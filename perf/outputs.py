"""Write every CLI output of a source checkout, to compare two checkouts
byte for byte.

    python perf/outputs.py <checkout> <dir>
    diff -r <dir of one checkout> <dir of the other>

obsphase is imported from <checkout>/src, and the decks come from the
same checkout: the demo decks in demos/scenarios/, and the seeded decks
and sweeps of benchmark/workloads.py (`seeded_scenarios`, `_sweep_ops`),
which are imported and not changed. <dir> gets the outputs of
`obsphase run` on the 5 demo decks (in demos/) and on the seeded decks
of seeds 1-5 (in seed-<n>/), and of `obsphase sweep` on the sweeps of
seeds 1-3, drawn from the seed's generator after its decks as the
scenario-cli workload draws them. A change that keeps the CLI's
behaviour shows an empty diff: every report, curve, Bloch and sweep
file the same bytes.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = range(1, 6)
SWEEP_SEEDS = range(1, 4)


def jobs(checkout, workloads, decks):
    """(argv without --out, output subdirectory) of every CLI call."""
    for path in sorted((checkout / "demos" / "scenarios").glob("*.json")):
        yield ["run", str(path)], "demos"
    for seed in SEEDS:
        sub = f"seed-{seed}"
        (decks / sub).mkdir()

        def deck(sc):
            path = decks / sub / f"{sc['name']}.json"
            path.write_text(json.dumps(sc))
            return str(path)

        rng = np.random.default_rng(seed)
        for sc in workloads.seeded_scenarios(rng):
            yield ["run", deck(sc)], sub
        if seed in SWEEP_SEEDS:
            for sc, param, values in workloads._sweep_ops(rng):
                spec = f"{float(values[0])!r}:{float(values[-1])!r}:{len(values)}"
                yield ["sweep", deck(sc), "--param", param, "--range", spec], sub


def main(checkout, out):
    checkout, out = Path(checkout).resolve(), Path(out).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmark")]
    import obsphase.cli as cli
    import workloads

    with tempfile.TemporaryDirectory() as decks:
        for argv, sub in jobs(checkout, workloads, Path(decks)):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out / sub)])
            if code != 0:
                raise SystemExit(f"obsphase {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
