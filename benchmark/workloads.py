"""The benchmark's three workloads.

Each workload builds its inputs from the seed, then repeats whole
rounds of the same operations until the measuring window has passed.
Only the call into obsphase is timed, and each timing lands in the list
of its operation's kind (a deck slot, a fixture, a dimension): the
end-to-end metrics are computed from those lists the same way on every
workload (see ``run.py``). Every output is then checked
against ``reference``, and an operation that raises or fails its check
counts as failed and makes the run incorrect. The one exception are the
fixed ``observable-distance`` probes: they hold ``distance_DW`` to
properties it is known to miss on some of them, and a probe that fails
its check counts as failed only.
"""

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import obsphase.cli as cli
import obsphase.obspace as obspace
import obsphase.phases as phases
import obsphase.propagation as propagation
from obsphase.hamiltonians import make_constant_z, make_rotating, make_tabulated

import reference as ref

TWO_PI = 2 * np.pi


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float  # length of the measuring window
    tracer: object = None
    window_start: float = None  # time.perf_counter() value; None until the rounds begin
    between: object = None  # called after every operation, outside its timing
    paused: float = 0.0  # seconds spent in between, taken out of round times


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    incorrect: bool = False  # an operation raised, or failed a check that is not a probe's
    round_times: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    kind_times: dict = field(default_factory=dict)  # kind -> wall times of its operations
    layers: dict = field(default_factory=dict)
    note: str = ""
    rounds: list = field(default_factory=list)


def attempt(ctx, res, label, call, check, probe=False, kind=None):
    """Run one operation; return its wall time, or None if it failed.
    The time of an operation that passed is added to ``kind``'s list.

    A probe whose output fails its check counts as failed without
    making the run incorrect; anything that raises does both."""
    res.attempted += 1
    if ctx.tracer is not None:
        ctx.tracer.op = res.attempted
    start = time.perf_counter()
    try:
        out = call()
        elapsed = time.perf_counter() - start
        problems = check(out)
    except Exception as e:  # one failed operation must not end the run
        elapsed, problems = None, [f"raised {type(e).__name__}: {e}"]
        res.incorrect = True
    if ctx.between is not None:
        ctx.between()
    if not problems:
        if kind is not None:
            res.kind_times.setdefault(kind, []).append(elapsed)
        return elapsed
    res.failed += 1
    res.incorrect |= not probe
    for p in problems:
        if f"{label}: {p}" not in res.problems:  # rounds repeat the same probes
            res.problems.append(f"{label}: {p}")
    return None


def repeat_rounds(ctx, res, one_round):
    """Call one_round until the window has passed (at least once),
    recording tracer marks around each round. The window opens here,
    after the workload's own set-up (decks, the accuracy-ladder climb)."""
    ctx.window_start = time.perf_counter()
    deadline = ctx.window_start + ctx.seconds
    while True:
        begin = ctx.tracer.mark() if ctx.tracer else None
        start, paused = time.perf_counter(), ctx.paused
        one_round()
        res.round_times.append(time.perf_counter() - start - (ctx.paused - paused))
        if ctx.tracer:
            res.rounds.append((begin, ctx.tracer.mark()))
        if time.perf_counter() >= deadline:
            return


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


# ------------------------------------------------------------ scenario-cli


def _tabulated_drive(rng, turns):
    """A piecewise-linear z drive h = -(f/2) sigma_z with a random number
    of samples whose area int f dt is exactly turns whole turns."""
    n = int(rng.integers(3, 10))
    T = float(rng.uniform(6.0, 9.0))
    # sample spacings within a factor 3 of each other keep the slopes,
    # and so the kinks the second-order step resolves, bounded
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
    times *= T / times[-1]
    f = rng.uniform(0.3, 1.0, n)
    f *= TWO_PI * turns / np.trapezoid(f, times)
    mats = [ref.pairs_from_matrix(-(fk / 2) * ref.SZ) for fk in f]
    phi, azimuth = rng.uniform(0.4, 2.7), rng.uniform(0.0, TWO_PI)
    return {
        "schedule": {"times": times.tolist(), "matrices": mats},
        "observable": ref.pairs_from_matrix(ref.tilt_observable(phi, azimuth)),
    }


def _rotating_params(rng):
    return {
        "w0": round(float(rng.uniform(0.5, 1.5)), 6),
        "w1": round(float(rng.uniform(1.0, 4.0)), 6),
        "w": round(float(rng.uniform(1.5, 3.0)), 6),
    }


def _constant_params(rng):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return {
        "mu_B": round(sign * float(rng.uniform(0.5, 2.0)), 6),
        "phi": round(float(rng.uniform(0.3, 2.8)), 6),
    }


def seeded_scenarios(rng):
    """Seeded variants; the checks and outputs of each slot are fixed so
    that every deck costs about the same."""
    out = []

    def add(name, system, params, checks=(), outputs=("report",), **extra):
        out.append(
            {"schema": 1, "name": name, "system": system,
             "params": dict(params, steps=4096), "checks": list(checks),
             "outputs": list(outputs), **extra}
        )

    add("constant-a", "constant-field", _constant_params(rng), ["gauge-start", "reference-frame"])
    add("constant-b", "constant-field", _constant_params(rng), ["reparameterization"],
        ["report", "bloch_csv"])
    add("rotating-a", "rotating-field", _rotating_params(rng), ["gauge-start"],
        ["report", "curve_csv"])
    add("rotating-b", "rotating-field", _rotating_params(rng),
        ["reference-frame", "reparameterization"])
    add("tabulated-a", "custom-tabulated", {}, (), ["report", "curve_csv"],
        **_tabulated_drive(rng, 1))
    add("tabulated-b", "custom-tabulated", {}, ["gauge-start"], **_tabulated_drive(rng, 2))
    add("two-loop-a", "two-loop", _rotating_params(rng))
    add("two-loop-b", "two-loop", _rotating_params(rng), (), ["report", "curve_csv"])
    return out


def _phase_reference(sc, steps):
    """(reference betas, error allowance) of a cyclic scenario."""
    p = sc["params"]
    if sc["system"] == "constant-field":
        mu = p["mu_B"]
        T = p.get("T", TWO_PI / abs(mu))
        return ref.whole_turn_betas(round(mu * T / TWO_PI), p["phi"]), ref.step_tolerance(abs(mu), T, steps)
    if sc["system"] == "rotating-field":
        w0, w1, w = p["w0"], p["w1"], p["w"]
        return ref.rotating_betas(w0, w1, w), ref.step_tolerance(ref.rotating_width(w0, w1, w), TWO_PI / w, steps)
    # custom-tabulated z drive: h = -(f/2) sigma_z
    times = np.array(sc["schedule"]["times"], dtype=float)
    f = np.array([-2 * ref.matrix_from_pairs(m)[0, 0].real for m in sc["schedule"]["matrices"]])
    X0 = ref.matrix_from_pairs(sc["observable"])
    phi = float(np.arccos(np.clip(-X0[0, 0].real, -1.0, 1.0)))
    turns = round(np.trapezoid(f, times) / TWO_PI)
    tol = ref.step_tolerance(float(np.max(np.abs(f))), times[-1], steps) + ref.kink_allowance(times, f, steps)
    return ref.whole_turn_betas(turns, phi), tol


def _read_rows(path):
    with open(path) as f:
        return list(csv.reader(f, skipinitialspace=True))


def _check_curves(sc, out, steps, holonomy_beta, problems):
    name = sc["name"]
    if "curve_csv" in sc["outputs"]:
        rows = _read_rows(out / f"{name}-curve.csv")[1:]
        _expect(problems, len(rows) == steps + 1, f"curve has {len(rows)} rows, expected {steps + 1}")
        d = len(holonomy_beta)
        end = [float(x) for x in rows[-1][-d:]]
        _expect(problems, ref.circular_gap(end, holonomy_beta) <= 1e-9,
                f"curve ends at {end}, report holonomy_beta {holonomy_beta}")
    if "bloch_csv" in sc["outputs"]:
        rows = _read_rows(out / f"{name}-bloch.csv")[1:]
        _expect(problems, len(rows) == steps + 1, f"bloch curve has {len(rows)} rows")
        norms = np.linalg.norm(np.array(rows, dtype=float)[:, 1:4], axis=1)
        _expect(problems, np.max(np.abs(norms - 1)) <= 1e-9, "bloch vectors off the unit sphere")


def _check_cnot(report):
    problems = []
    U = ref.matrix_from_pairs(report["gates"]["cnot"])
    flip = U[2:, 2:]
    alpha = np.angle(flip[0, 1])
    target = np.exp(1j * alpha) * ref.SX
    deviation = np.linalg.norm(U[:2, :2] - np.eye(2)) + np.linalg.norm(U[:2, 2:]) \
        + np.linalg.norm(U[2:, :2]) + np.linalg.norm(flip - target)
    _expect(problems, report["cnot"]["equivalent"] is True, "cnot.equivalent is not true")
    _expect(problems, report["residuals"]["cnot_deviation"] <= 1e-8,
            f"cnot_deviation {report['residuals']['cnot_deviation']}")
    _expect(problems, deviation <= 1e-8, f"gate is {deviation:.2e} from diag(I, e^ia X)")
    return problems


def _check_two_loop(sc, report):
    """Properties any dynamical-phase-cancelling double loop has; the
    value of the gate phase itself is not pinned."""
    p = sc["params"]
    steps = p.get("steps", 4096)
    steps += steps % 2
    T = 2 * TWO_PI / p["w"]
    tol = ref.step_tolerance(ref.rotating_width(p["w0"], p["w1"], p["w"]), T, steps)
    problems = []
    gamma = np.max(np.abs(report["gamma"]))
    _expect(problems, gamma <= 1e-6, f"|gamma| = {gamma:.2e} > 1e-6")
    gap = ref.circular_gap(report["beta"], report["holonomy_beta"])
    _expect(problems, gap <= tol, f"beta and holonomy_beta differ by {gap:.2e} > {tol:.2e}")
    G = ref.matrix_from_pairs(report["gates"]["two-loop"])
    F = ref.matrix_from_pairs(report["gates"]["fitted"])
    _expect(problems, np.linalg.norm(G - F) <= tol, f"fitted gate is {np.linalg.norm(G - F):.2e} off")
    return problems, steps


def check_run(sc, out, errors):
    """Problems of one run's outputs; the worst error of each phase route
    against its reference goes into errors[key]."""
    report = json.loads((out / f"{sc['name']}-report.json").read_text())
    if sc["system"] == "two-qubit-cnot":
        return _check_cnot(report)
    if sc["system"] == "two-loop":
        problems, steps = _check_two_loop(sc, report)
    else:
        steps = sc["params"].get("steps", 4096)
        betas, tol = _phase_reference(sc, steps)
        problems = []
        for key in ("beta", "holonomy_beta"):
            gap = ref.circular_gap(report[key], betas)
            errors[key] = max(errors[key], gap)
            _expect(problems, gap <= tol, f"{key} {report[key]} is {gap:.2e} from {betas} (tol {tol:.2e})")
        for key in ("gauge_start", "reference_frame", "reparameterization"):
            value = report["residuals"].get(key, 0.0)
            _expect(problems, value <= tol, f"{key} residual {value:.2e} > {tol:.2e}")
    _check_curves(sc, out, steps, report["holonomy_beta"], problems)
    return problems


def _sweep_ops(rng):
    """A rotating-field sweep over w1 (every row cyclic) and a
    constant-field sweep over T from one period to two, in eighths, so
    that exactly the two whole periods are cyclic."""
    rot = {"schema": 1, "name": "sweep-rotating", "system": "rotating-field",
           "params": dict(_rotating_params(rng), steps=4096)}
    lo = round(float(rng.uniform(1.0, 2.0)), 6)
    w1_values = np.linspace(lo, lo + 2.0, 5)
    const = {"schema": 1, "name": "sweep-constant", "system": "constant-field",
             "params": dict(_constant_params(rng), steps=4096)}
    period = TWO_PI / abs(const["params"]["mu_B"])
    T_values = np.linspace(period, 2 * period, 9)
    return [(rot, "w1", w1_values), (const, "T", T_values)]


def check_sweep(sc, param, values, path):
    rows = _read_rows(path)[1:]
    if len(rows) != len(values):
        return [f"{len(rows)} rows for {len(values)} values"]
    p = sc["params"]
    problems = []
    for value, row in zip(values, rows):
        if param == "w1":
            betas = ref.rotating_betas(p["w0"], value, p["w"])
            tol = ref.step_tolerance(ref.rotating_width(p["w0"], value, p["w"]), TWO_PI / p["w"], p["steps"])
            cyclic = True
        else:
            turns = p["mu_B"] * value / TWO_PI
            cyclic = abs(turns - round(turns)) < 1e-9
            betas = ref.whole_turn_betas(round(turns), p["phi"])
            tol = ref.step_tolerance(abs(p["mu_B"]), value, p["steps"])
        status = row[-1]
        if not cyclic:
            _expect(problems, status == "not-cyclic", f"{param}={value:.6g}: {status}, expected not-cyclic")
            continue
        _expect(problems, status == "ok", f"{param}={value:.6g}: {status}, expected ok")
        if status == "ok":
            gap = ref.circular_gap([float(x) for x in row[1:3]], betas)
            _expect(problems, gap <= tol, f"{param}={value:.6g}: beta {row[1:3]} is {gap:.2e} from {betas}")
    return problems


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")


def scenario_cli(ctx):
    """In-process ``obsphase run`` on the five demo scenarios and eight
    seeded variants, and two seeded ``obsphase sweep`` calls."""
    rng = np.random.default_rng(ctx.seed)
    deck_dir, out = ctx.work / "deck", ctx.work / "out"
    deck_dir.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)

    errors = {"beta": 0.0, "holonomy_beta": 0.0}
    ops = []  # (label, argv, check)
    for path in sorted((ctx.root / "demos" / "scenarios").glob("*.json")):
        sc = json.loads(path.read_text())
        ops.append((path.name, ["run", str(path), "--out", str(out)],
                    lambda sc=sc: check_run(sc, out, errors)))
    for sc in seeded_scenarios(rng):
        path = deck_dir / f"{sc['name']}.json"
        path.write_text(json.dumps(sc))
        ops.append((sc["name"], ["run", str(path), "--out", str(out)],
                    lambda sc=sc: check_run(sc, out, errors)))
    for sc, param, values in _sweep_ops(rng):
        path = deck_dir / f"{sc['name']}.json"
        path.write_text(json.dumps(sc))
        spec = f"{float(values[0])!r}:{float(values[-1])!r}:{len(values)}"
        csv_path = out / f"{sc['name']}-sweep-{param}.csv"
        ops.append((f"{sc['name']} over {param}",
                    ["sweep", str(path), "--param", param, "--range", spec, "--out", str(out)],
                    lambda sc=sc, param=param, values=values, csv_path=csv_path:
                        check_sweep(sc, param, values, csv_path)))
    order = rng.permutation(len(ops))

    res = Result()

    def one_round():
        for i in order:
            label, argv, check = ops[i]
            # each slot repeats the same input every round: a kind of its own
            attempt(ctx, res, label, lambda: _cli(argv), lambda _: check(), kind=label)

    repeat_rounds(ctx, res, one_round)
    res.layers["phases.beta_err_rad"] = errors["beta"]
    res.layers["bundle.holonomy_err_rad"] = errors["holonomy_beta"]
    return res


# --------------------------------------------------------- accuracy-ladder

LADDER_TARGET = 1e-8
LADDER_START, LADDER_CAP = 4096, 262144


def ladder_fixtures():
    """(name, schedule, T, X0, reference betas, allowance(steps)) of the
    three fixtures."""
    w0, w1, w = 1.0, 3.0, 2.0
    # the rotating field's cyclic observable is stationary in the
    # rotating frame: its eigenvectors are those of H_rot
    H_rot = -0.5 * (w0 * ref.SX + (w1 + w) * ref.SZ)
    times, f = np.array([0.0, np.pi, TWO_PI]), np.array([0.0, 2.0, 0.0])
    tri = make_tabulated(times, [-(fk / 2) * ref.SZ for fk in f])
    return [
        ("rotating", make_rotating(w0, w1, w), TWO_PI / w, 2 * H_rot / np.hypot(w0, w1 + w),
         ref.rotating_betas(w0, w1, w),
         lambda n: ref.step_tolerance(ref.rotating_width(w0, w1, w), TWO_PI / w, n)),
        ("constant", make_constant_z(1.0), TWO_PI, ref.tilt_observable(np.pi / 3),
         ref.whole_turn_betas(1, np.pi / 3), lambda n: ref.step_tolerance(1.0, TWO_PI, n)),
        ("triangle", tri, TWO_PI, ref.tilt_observable(1.0), ref.whole_turn_betas(1, 1.0),
         lambda n: ref.step_tolerance(2.0, TWO_PI, n) + ref.kink_allowance(times, f, n)),
    ]


def accuracy_ladder(ctx):
    """solve + geometric_phases on each fixture at doubling step counts
    from 4096 until both routes are within 1e-8 of the closed form, then
    repeated at that step count."""
    res = Result()
    fixtures = ladder_fixtures()

    def measure(fixture, steps, errors, limit=None, kind=None):
        """Time one solve + geometric_phases; both routes' errors land in
        errors and must be within limit (default: the step allowance)."""
        name, h, T, X0, betas, allowance = fixture
        limit = limit or allowance(steps)

        def check(report):
            errors[:] = (ref.circular_gap(report.beta, betas),
                         ref.circular_gap(report.holonomy_beta, betas))
            return [] if max(errors) <= limit else [f"errors {errors} above {limit:.2e}"]

        call = lambda: phases.geometric_phases(propagation.solve(h, T, steps=steps), h, X0)
        return attempt(ctx, res, f"{name} at {steps} steps", call, check, kind=kind)

    rungs, errors_at_start = {}, []
    for fixture in fixtures:
        name, steps = fixture[0], LADDER_START
        while name not in rungs and steps <= LADDER_CAP:
            errors = []
            if measure(fixture, steps, errors) is None:
                break
            if steps == LADDER_START:
                errors_at_start.append(errors)
            if max(errors) <= LADDER_TARGET:
                rungs[name] = steps
            steps *= 2
        if name not in rungs:
            res.incorrect = True
            res.problems.append(f"{name}: no rung up to {LADDER_CAP} steps reaches {LADDER_TARGET:g}")
            return res

    order = np.random.default_rng(ctx.seed).permutation(len(fixtures))

    def one_round():
        for i in order:
            name = fixtures[i][0]
            measure(fixtures[i], rungs[name], [], LADDER_TARGET, kind=name)

    repeat_rounds(ctx, res, one_round)
    res.note = "steps to 1e-8: " + ", ".join(f"{n} {s}" for n, s in rungs.items())
    res.layers["phases.beta_err_rad"] = max(e[0] for e in errors_at_start)
    res.layers["bundle.holonomy_err_rad"] = max(e[1] for e in errors_at_start)
    return res


# ----------------------------------------------------- observable-distance

# One round of distance_DW calls, in order. An int d is a fresh seeded
# Haar pair at dimension d; a name is one of the fixed probes. A d = 4
# call costs about 80 d = 2 calls, so the cheap dimensions get more
# pairs, and the d = 4 calls are kept apart so that the samples of each
# dimension spread over the round: on a shared host the speed swings
# within seconds.
DISTANCE_ROUND = (2, "pair-3a", 4, 2, 3, "gauge-3", "pair-4", 2, 3, "pair-3b", "gauge-4", 2)
# the probes are the same for every seed
PROBE_SEED = 0


def distance_probes():
    """Fixed inputs on which distance_DW is held to more than the seeded
    pairs are: name -> (d, F, G, lower, upper), G a Haar frame (pairs) or
    a permuted and rephased copy of F, at distance 0 (gauges)."""
    rng = np.random.default_rng(PROBE_SEED)
    probes = {}
    for name, d in (("pair-3a", 3), ("pair-3b", 3), ("pair-4", 4)):
        F, G = ref.haar_frame(rng, d), ref.haar_frame(rng, d)
        probes[name] = (d, F, G, ref.distance_lower_bound(F, G), ref.distance_upper_bound(F, G))
    for name, d in (("gauge-3", 3), ("gauge-4", 4)):
        F = ref.haar_frame(rng, d)
        probes[name] = (d, F, ref.gauge_copy(rng, F), 0.0, 0.0)
    return probes


def observable_distance(ctx):
    """distance_DW on fresh seeded Haar pairs at d = 2, 3 and 4, and on
    the fixed probes.

    A seeded pair is held to ``reference.distance_lower_bound`` (d = 2:
    to the closed form). At d = 2 and 3 it is also measured in the other
    argument order, which must give the same number; at d = 2 a
    gauge-transformed copy must be at distance 0. A probe is held to
    both bounds: a pair at d = 3 or 4 to the lower bound and to
    ``reference.distance_upper_bound`` (plus 1e-6, the accuracy the
    docstring claims), a gauge copy at d = 3 or 4 to 0 within 1e-6. The
    program misses these on some inputs; on the fixed probes it misses
    the same ones in every round and every run.
    """
    rng = np.random.default_rng(ctx.seed)
    res = Result()
    probes = distance_probes()

    def measure(F, G, label, check, probe=False, timed=True):
        """Time one call; Haar pairs are timed into their dimension's
        kind, gauge copies into none."""
        call = lambda: obspace.distance_DW(obspace.OrthDecomposition(F), obspace.OrthDecomposition(G))
        return attempt(ctx, res, label, call, check, probe, kind=f"d={len(F)}" if timed else None)

    def seeded_pair(d):
        F, G = ref.haar_frame(rng, d), ref.haar_frame(rng, d)
        lower = ref.distance_lower_bound(F, G)
        exact = ref.distance_d2(F, G) if d == 2 else None
        value = {}

        def bounded(D):
            value["D"] = D
            if exact is not None:
                return [] if abs(D - exact) <= 1e-6 else [f"{D} != closed form {exact}"]
            return [] if D >= lower - 1e-9 else [f"{D} below the lower bound {lower}"]

        measure(F, G, f"d={d} pair", bounded)
        if d < 4:
            measure(G, F, f"d={d} swapped pair",
                    lambda D: [] if D == value.get("D") else [f"{D} != {value.get('D')} swapped"])
        if d == 2:
            measure(F, ref.gauge_copy(rng, F), "d=2 gauge copy",
                    lambda D: [] if D <= 1e-6 else [f"{D} from its own gauge copy"], timed=False)

    def probe(name):
        _, F, G, lower, upper = probes[name]

        def bounded(D):
            if D < lower - 1e-9:
                return [f"{D} below the lower bound {lower}"]
            if name.startswith("gauge"):
                return [] if D <= 1e-6 else [f"{D} from its own gauge copy"]
            return [] if D <= upper + 1e-6 else [f"{D} above the upper reference {upper}"]

        measure(F, G, f"probe {name}", bounded, probe=True, timed=name.startswith("pair"))

    def one_round():
        for item in DISTANCE_ROUND:
            if isinstance(item, int):
                seeded_pair(item)
            else:
                probe(item)

    repeat_rounds(ctx, res, one_round)
    # no phases are read on this workload
    res.layers["phases.beta_err_rad"] = res.layers["bundle.holonomy_err_rad"] = 0.0
    return res


WORKLOADS = {
    "scenario-cli": scenario_cli,
    "accuracy-ladder": accuracy_ladder,
    "observable-distance": observable_distance,
}
