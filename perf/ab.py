"""Paired A/B timing of two source checkouts, operation by operation.

    python perf/ab.py <checkout A> <checkout B>

Two child processes, one per checkout, each import obsphase from their
own <checkout>/src and the operations' inputs from their own
benchmark/workloads.py, which is imported and not changed. They run in
lock step over pipes, pinned with this process to one core: for each
pair the parent asks one child to run an operation and then the other,
the first side alternating from pair to pair, and each child times its
calls with perf_counter. An operation that takes less than 5 ms is
called as many times in a row as make 5 ms (counted once, on A, at the
start), and a sample is their mean. One round is a pair of every
operation, so the samples of each operation spread over a session. A
session starts a fresh child per checkout, the first started alternating
from session to session. Both the sessions and the pinning are there
because one process can run a few per cent faster or slower than another
of the same code for its whole life: unpinned, in one session, two
copies of one tree read up to 2.4 % apart. The operations:

- ladder-<fixture>: solve + geometric_phases on each accuracy-ladder
  fixture at 32768 steps, its 1e-8 rung;
- distance-d<d>: distance_DW on 8 Haar pairs at d = 2, 3 and 4, drawn
  as the observable-distance workload draws them (seed 0), one sample
  timing all 8;
- run-<deck>: in-process `obsphase run` of each demo deck, as the
  scenario-cli workload runs it, into a temporary directory.

For each operation it prints the medians of A and of B, and B/A: the
median over blocks of two consecutive pairs, one in each order, of the
geometric mean of their two B/A ratios (so that what the first or the
second call of a pair gains cancels in each block), with a bootstrap
95 % interval of that median that resamples sessions, then blocks within
them. An interval that holds 1 does not resolve a difference. This is a
report, not a gate, and the default test run does not collect it
(testpaths = tests).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

LADDER_STEPS = 32768
DISTANCE_PAIRS = 8
# the shortest sample: a faster operation is repeated up to it
SAMPLE_S = 0.005
# sessions of fresh children, and untimed and timed pairs per operation
# in each; the timed pairs are taken in blocks of two, so PAIRS is even
SESSIONS = 10
WARMUP = 4
PAIRS = 20


def operations(tree, out):
    """name -> call of every operation, built from the checkout `tree`."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmark")]
    import obsphase
    import reference as ref
    import workloads

    if Path(obsphase.__file__).resolve().parent != (tree / "src" / "obsphase").resolve():
        raise SystemExit(f"imported obsphase from {obsphase.__file__}, not {tree / 'src'}")
    ops = {}
    for name, h, T, X0, *_ in workloads.ladder_fixtures():
        ops[f"ladder-{name}"] = lambda h=h, T=T, X0=X0: workloads.phases.geometric_phases(
            workloads.propagation.solve(h, T, steps=LADDER_STEPS), h, X0
        )
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        pairs = [
            (workloads.obspace.OrthDecomposition(ref.haar_frame(rng, d)),
             workloads.obspace.OrthDecomposition(ref.haar_frame(rng, d)))
            for _ in range(DISTANCE_PAIRS)
        ]
        ops[f"distance-d{d}"] = lambda pairs=pairs: [workloads.obspace.distance_DW(F, G) for F, G in pairs]
    for path in sorted((tree / "demos" / "scenarios").glob("*.json")):
        argv = ["run", str(path), "--out", str(out)]
        ops[f"run-{path.stem}"] = lambda argv=argv: workloads._cli(argv)
    return ops


def child(tree):
    """Read lines `<operation> <repeats>` from stdin; call the operation
    that many times in a row and answer the mean seconds a call. The
    first line out lists the operations."""
    with tempfile.TemporaryDirectory() as out:
        ops = operations(Path(tree).resolve(), out)
        print(json.dumps(list(ops)), flush=True)
        for line in sys.stdin:
            name, repeats = line.split()
            call, repeats = ops[name], int(repeats)
            start = time.perf_counter()
            for _ in range(repeats):
                call()
            print(repr((time.perf_counter() - start) / repeats), flush=True)


class Side:
    def __init__(self, tree):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ops = json.loads(self.proc.stdout.readline())

    def time(self, op, repeats):
        self.proc.stdin.write(f"{op} {repeats}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def median_interval(logs, rng, draws=4000):
    """The median of the log ratios logs (sessions, blocks), as a ratio,
    and a bootstrap 95 % interval of it: sessions drawn with replacement,
    then blocks within each drawn session."""
    sessions, blocks = logs.shape
    drawn = rng.integers(sessions, size=(draws, sessions, 1))
    within = rng.integers(blocks, size=(draws, sessions, blocks))
    medians = np.median(logs[drawn, within].reshape(draws, -1), axis=1)
    return np.exp([np.median(logs), *np.percentile(medians, [2.5, 97.5])])


def session(trees, first, repeats):
    """Time PAIRS pairs of every operation, after WARMUP untimed ones, on
    a fresh child process per tree, the one of index `first` started
    first: {op: (PAIRS, 2) seconds}. repeats (op -> calls a sample) is
    filled in by the first session, from one call on A."""
    sides = []
    try:
        for s in (first, 1 - first):
            sides.append(Side(trees[s]))
        if first:
            sides.reverse()
        if sides[0].ops != sides[1].ops:
            raise SystemExit(f"the checkouts name different operations: {sides[0].ops} against {sides[1].ops}")
        ops = sides[0].ops
        for op in ops:
            repeats.setdefault(op, max(1, math.ceil(SAMPLE_S / sides[0].time(op, 1))))
        times = {op: [] for op in ops}
        for i in range(WARMUP + PAIRS):
            for op in ops:
                pair = [None, None]
                for s in (i % 2, 1 - i % 2):
                    pair[s] = sides[s].time(op, repeats[op])
                if i >= WARMUP:
                    times[op].append(pair)
    finally:
        for side in sides:
            side.close()
    return {op: np.array(t) for op, t in times.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="checkout A, the baseline")
    ap.add_argument("b", type=Path, help="checkout B, the change")
    args = ap.parse_args(argv)
    # this process and the children it starts on one core, so that
    # neither child is the one the scheduler leaves beside another busy
    # process for its whole life
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    repeats = {}
    runs = [session((args.a, args.b), j % 2, repeats) for j in range(SESSIONS)]
    rng = np.random.default_rng(0)
    print(f"A = {args.a}\nB = {args.b}\n{SESSIONS} sessions of {PAIRS} pairs per operation, "
          f"each after {WARMUP} warm-up pairs")
    print(f"{'operation':28s} {'A ms':>9s} {'B ms':>9s}  B/A     95 % interval")
    for op in runs[0]:
        t = np.stack([run[op] for run in runs])  # (sessions, pairs, 2)
        # each block of two pairs, one in each order, as the mean of its log ratios
        logs = np.log(t[:, :, 1] / t[:, :, 0]).reshape(SESSIONS, -1, 2).mean(axis=2)
        ratio, lo, hi = median_interval(logs, rng)
        verdict = "B faster" if hi < 1 else "B slower" if lo > 1 else "not resolved"
        print(f"{op:28s} {1e3 * np.median(t[..., 0]):9.3f} {1e3 * np.median(t[..., 1]):9.3f}  "
              f"{ratio:.4f}  [{lo:.4f}, {hi:.4f}]  {verdict}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
