"""Run one obsphase benchmark workload and print its metrics.

    python3 benchmark/run.py --workload scenario-cli --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: obsphase is imported from
``src/`` and the demo scenarios from ``demos/scenarios/``. Scratch files
go to ``.bench_work/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Units come from ``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7


class SetupClock:
    """Times fresh interpreters that import obsphase, spread over the
    window: one starts after the first operation to end past each of
    SETUP_RUNS evenly spaced points of the window. The host's speed
    swings over seconds, so interpreters started one after another would
    all see the same state. They run inside the window, between
    operations; their time is taken out of the round times."""

    def __init__(self, ctx, env, window):
        self.ctx, self.env = ctx, env
        self.points = [window * (k + 0.5) / SETUP_RUNS for k in range(SETUP_RUNS)]
        self.times = []

    def one(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import obsphase"], env=self.env, check=True)
        self.times.append(time.perf_counter() - start)
        self.ctx.paused += self.times[-1]

    def __call__(self):
        start = self.ctx.window_start
        if self.points and start is not None and time.perf_counter() - start >= self.points[0]:
            self.points.pop(0)
            self.one()

    def median(self):
        while self.points:
            self.points.pop(0)
            self.one()
        return statistics.median(self.times)


def operation_figures(res):
    """End-to-end figures of the operations' wall times, computed the
    same way on every workload: the geometric mean over kinds of each
    kind's median, so that every kind weighs alike whatever it costs,
    and operations completed per second spent in operations."""
    if not res.kind_times:
        raise SystemExit("error: no operation passed its check; nothing to measure")
    medians = [statistics.median(t) for t in res.kind_times.values()]
    every = [t for times in res.kind_times.values() for t in times]
    return {
        "op_p50_gmean_s": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "ops_per_s": len(every) / sum(every),
    }


def layer_figures(tracer, res):
    """Per-layer figures: counts of the first round, which depend on the
    seed alone, and times as medians over the rounds."""
    per_round = [tracer.round_figures(b, e) for b, e in res.rounds]
    out = {}
    for metric in per_round[0] if per_round else ():
        values = [r[metric] for r in per_round]
        out[metric] = values[0] if isinstance(values[0], int) else statistics.median(values)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "obsphase" / "__init__.py").is_file():
        print(f"error: no obsphase sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # the small dense matrices here gain nothing from BLAS threads, and
    # idle threads spinning on shared cores make timings wander
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(src), str(HERE)]

    import obsphase
    import tracing
    import workloads

    if Path(obsphase.__file__).resolve().parent != (src / "obsphase").resolve():
        print(f"error: imported obsphase from {obsphase.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    work = root / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        layers = tracing.import_times(os.environ)

    ctx = workloads.Context(root=root, work=work, seed=args.seed, seconds=args.seconds, tracer=tracer)
    if not args.trace:
        ctx.between = setup = SetupClock(ctx, os.environ, args.seconds)
    started = time.perf_counter()
    res = workloads.WORKLOADS[args.workload](ctx)
    elapsed = time.perf_counter() - started

    if args.trace:
        layers.update(layer_figures(tracer, res))
        layers.update(res.layers)
        tracer.dump(work / f"trace-seed{args.seed}.json")
        figures, units = layers, {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        figures = dict(operation_figures(res), setup_s=setup.median(),
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for problem in res.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for kind, times in res.kind_times.items():
        print(f"kind {kind}: median {statistics.median(times):.6f} s over {len(times)}", file=sys.stderr)
    if set(figures) != set(units):
        raise SystemExit(f"error: measured {sorted(figures)}, BENCHMARK.json names {sorted(units)}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {res.attempted} operations, "
          f"{len(res.round_times)} rounds in {elapsed:.3f} s, "
          f"median round {statistics.median(res.round_times or [float('nan')]):.4f} s, "
          f"{len(res.kind_times)} kinds, {res.note + ', ' if res.note else ''}"
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print(json.dumps({
        "correct": not res.incorrect,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": figures[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
