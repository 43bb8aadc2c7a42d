"""How far distance_DW moves between two source checkouts.

    python perf/distance_drift.py <before checkout> <after checkout>

Each checkout's obsphase is imported from <checkout>/src, in a child
process of its own, and run on one corpus of frame pairs at d = 3 to 16:
the 12 pairs of the test table of best known values (the first 10
default_rng(21) pairs at d = 3 and the first 2 default_rng(22) pairs at
d = 4), the 5 fixed probes of the observable-distance benchmark
(`workloads.distance_probes` of the checkout's benchmark/), 300 d = 3
and 60 d = 4 default_rng(2024) pairs, 300 d = 3 and 100 d = 4
default_rng(99) pairs, and 40 d = 5, 20 d = 6 and 8 d = 8
default_rng(2025) pairs, and the 6 default_rng(3) pairs at d = 14, 15,
16, 14, 15, 16 where the descent stalls at a kink of the arc width: 851
in all. Each (d, seed) draws from a generator of its own, except that
the 6 stall pairs share one, and the Haar pairs are drawn as
tests/support.py draws them (haar_frame, and _haar_frame for the stall
pairs).
Prints how many values rose, fell or stayed within 1e-13, how many are
bit-identical, the largest rise and the largest fall, every pair that
moved by more than 1e-13, and for each checkout the mean number of
eigen-solves (np.linalg.eig and np.linalg.eigvals calls) a call makes at
each d.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TOL = 1e-13


def haar_frame(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def _haar_frame(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))


def corpus(workloads):
    """(label, F, G) of every pair, in a fixed order."""
    for d, seed, pairs in ((3, 21, 10), (4, 22, 2), (3, 2024, 300), (4, 2024, 60),
                           (3, 99, 300), (4, 99, 100), (5, 2025, 40), (6, 2025, 20),
                           (8, 2025, 8)):
        rng = np.random.default_rng(seed)
        for k in range(pairs):
            yield f"rng({seed}) d={d} #{k}", haar_frame(rng, d), haar_frame(rng, d)
    rng = np.random.default_rng(3)
    for k, d in enumerate((14, 15, 16, 14, 15, 16)):
        yield f"rng(3) d={d} #{k}", _haar_frame(rng, d), _haar_frame(rng, d)
    for name, (d, F, G, *_) in workloads.distance_probes().items():
        yield f"probe {name}", F, G


def values(checkout):
    """({label: distance_DW}, {d: mean eigen-solves a call}) for one
    checkout, imported in this process."""
    checkout = Path(checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmark")]
    from obsphase import OrthDecomposition, distance_DW
    import workloads

    solves = [0]

    def counted(f):
        def call(*args, **kwargs):
            solves[0] += 1
            return f(*args, **kwargs)

        return call

    np.linalg.eig, np.linalg.eigvals = counted(np.linalg.eig), counted(np.linalg.eigvals)
    out, per_d = {}, {}
    for label, F, G in corpus(workloads):
        before = solves[0]
        out[label] = distance_DW(OrthDecomposition(F), OrthDecomposition(G))
        per_d.setdefault(len(F), []).append(solves[0] - before)
    return out, {d: sum(n) / len(n) for d, n in per_d.items()}


def child(checkout):
    proc = subprocess.run(
        [sys.executable, __file__, "--values", str(checkout)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(before, after):
    (old, old_solves), (new, new_solves) = child(before), child(after)
    moves = {label: new[label] - old[label] for label in old}
    rose = {k: v for k, v in moves.items() if v > TOL}
    fell = {k: v for k, v in moves.items() if v < -TOL}
    print(f"{len(moves)} pairs: {len(rose)} rose, {len(fell)} fell, "
          f"{len(moves) - len(rose) - len(fell)} within {TOL:g}, "
          f"{sum(new[k] == old[k] for k in old)} bit-identical")
    print(f"largest rise {max(moves.values()):.3e}, largest fall {min(moves.values()):.3e}")
    for label in sorted({**rose, **fell}, key=moves.get):
        print(f"  {label}: {old[label]!r} -> {new[label]!r} ({moves[label]:+.3e})")
    for d in sorted(old_solves, key=int):  # the keys come back from JSON as strings
        print(f"eigen-solves per call at d = {d}: {old_solves[d]:.1f} -> {new_solves[d]:.1f}")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--values":
        json.dump(values(sys.argv[2]), sys.stdout)
    elif len(sys.argv) == 3:
        main(*sys.argv[1:])
    else:
        raise SystemExit(__doc__)
