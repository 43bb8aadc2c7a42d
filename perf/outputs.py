"""Write every CLI output of a source checkout, to compare two checkouts
byte for byte, and list the values that differ between two such writes.

    python perf/outputs.py <checkout> <dir>
    python perf/outputs.py --compare <dir A> <dir B>

obsphase is imported from <checkout>/src, and the decks come from the
same checkout: the demo decks in demos/scenarios/, and the seeded decks
and sweeps of benchmark/workloads.py (`seeded_scenarios`, `_sweep_ops`),
which are imported and not changed. <dir> gets the outputs of
`obsphase run` on the 5 demo decks (in demos/) and on the seeded decks
of seeds 1-5 (in seed-<n>/), and of `obsphase sweep` on the sweeps of
seeds 1-3, drawn from the seed's generator after its decks as the
scenario-cli workload draws them. A change that keeps the CLI's
behaviour writes the same bytes to every report, curve, Bloch and sweep
file.

--compare is a report, not a gate. It prints one line per value that
differs between the two directories, as written: a report's by its JSON
path (`residuals.gauge_start`, `beta[1]`), a CSV's by its row (row 0 is
the header) and column name, then old -> new, with a file found on one side only named as
such. It ends with the count of differing values and files.
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


def _leaves(node, path=""):
    """(JSON path, value) of every leaf of a parsed report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


def _values(path):
    """{label: value as written} of one output file."""
    text = path.read_text()
    if path.suffix == ".json":
        return dict(_leaves(json.loads(text)))
    rows = [line.split(",") for line in text.splitlines()]
    names = [name.strip() for name in rows[0]]
    return {f"row {i} {names[j]}": value for i, row in enumerate(rows) for j, value in enumerate(row)}


def compare(a, b):
    """Print every value that differs between two output directories."""
    a, b = Path(a), Path(b)
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    values = changed = 0
    for rel in files:
        if not (a / rel).exists() or not (b / rel).exists():
            print(f"{rel}: only in {a if (a / rel).exists() else b}")
            changed += 1
            continue
        old, new = _values(a / rel), _values(b / rel)
        moved = [key for key in {**old, **new} if old.get(key) != new.get(key)]
        for key in moved:
            print(f"{rel} {key}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}")
        values += len(moved)
        changed += bool(moved)
    print(f"{values} values differ, in {changed} of {len(files)} files")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(*sys.argv[2:])
    elif len(sys.argv) == 3:
        main(*sys.argv[1:])
    else:
        raise SystemExit(__doc__)
