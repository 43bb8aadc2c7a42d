"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 benchmark/steadiness.py [--runs 10] [--traced 2] [--workloads a,b]

Run from the root of a checkout. For each workload it makes two sets of
``--runs`` untraced runs over the same seeds, alternating which set runs
first, and prints for every end-to-end metric both medians, both
quartiles, each set's spread (quartile distance over median) and
whether the two sets agree within the metric's bound: both spreads and
the gap between the medians, in either direction, at most the bound. ``--traced``
seeds are also run traced in both sets: their per-layer counts must
repeat exactly, and the median round time of the traced and untraced
run of each seed gives the tracing overhead. Every run's result goes
to ``.bench_work/steadiness-<workload>.json``. Exits 1 when anything
disagrees.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
ROUND = re.compile(r"median round (\S+) s")
# per-layer figures that are counts and must repeat exactly
EXACT_UNITS = ("count", "steps", "bytes", "ratio", "rad")
FIRST_SEED = 1000


def run(workload, seed, trace):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["round_s"] = float(ROUND.search(lines[-2]).group(1))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = ap.parse_args(argv)

    seeds = [FIRST_SEED + i for i in range(args.runs)]
    ok = True
    for workload in args.workloads.split(","):
        sets = ([], [])
        traced = ([], [])
        for i, seed in enumerate(seeds):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[s].append(run(workload, seed, 0))
                if i < args.traced:
                    traced[s].append(run(workload, seed, 1))
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
        Path(".bench_work").mkdir(exist_ok=True)
        Path(f".bench_work/steadiness-{workload}.json").write_text(
            json.dumps({"seeds": seeds, "untraced": sets, "traced": traced}))

        print(f"\n{workload}: {args.runs} runs per set, {SPEC['run_seconds']} s each, "
              f"seeds {seeds[0]}..{seeds[-1]}")
        print(f"{'metric':<20} {'median A':>12} {'Q1..Q3 A':>25} {'median B':>12} "
              f"{'Q1..Q3 B':>25} {'spread A':>9} {'spread B':>9} {'bound':>6}  agree")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in sets[0][0]["metrics"]:
                continue
            qa, qb = (quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            spread = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
            shift = abs(qb[1] - qa[1]) / qa[1]
            agree = shift <= bound and max(spread) <= bound
            ok &= agree
            print(f"{name:<20} {qa[1]:>12.6g} {qa[0]:>12.6g}..{qa[2]:<12.6g} {qb[1]:>12.6g} "
                  f"{qb[0]:>12.6g}..{qb[2]:<12.6g} {spread[0]:>9.4f} {spread[1]:>9.4f} {bound:>6}  "
                  f"{'yes' if agree else 'NO'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        ok &= shares[0] == shares[1]
        print(f"failed share: A {shares[0]:.6g}, B {shares[1]:.6g}")

        if traced[0]:
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            exact = [n for n in traced[0][0]["metrics"] if units[n] in EXACT_UNITS]
            differ = [
                f"{n} (seed {seeds[i]})"
                for i, (a, b) in enumerate(zip(*traced))
                for n in exact if a["metrics"][n]["value"] != b["metrics"][n]["value"]
            ]
            ok &= not differ
            print(f"exact per-layer figures ({len(exact)}) repeat in both sets: "
                  f"{'yes' if not differ else 'NO: ' + ', '.join(differ)}")
            over = [t["round_s"] / u["round_s"] - 1
                    for s in (0, 1) for t, u in zip(traced[s], sets[s])]
            print(f"tracing overhead (median round, traced / untraced - 1): "
                  f"{statistics.median(over):+.3f} over {len(over)} pairs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
