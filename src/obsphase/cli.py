"""Scenario-driven command line front end.

Loads a JSON scenario, runs the requested pipeline (phase extraction,
holonomy cross-check, gate synthesis, parameter sweeps), and writes JSON
reports plus optional CSV curve samples. Reports are byte-deterministic:
floats are rounded to 12 significant digits and the payload carries no
timestamps.
"""

import argparse
import json
import os
import sys
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CrossCheckError,
    DynamicalResidualError,
    NotClosedError,
    NotCyclicError,
    ObsphaseError,
    ScenarioError,
)
from .gates import (
    GateSpec,
    cnot_equivalence,
    cyclic_tilt,
    read_two_loop_gate,
    rotating_problem,
    tilted_observable,
    two_qubit_gate,
    u_phi_beta,
)
from .hamiltonians import make_constant_z, make_tabulated
from .linalg import is_hermitian, sigma_x, sigma_y, sigma_z
from .obspace import TWO_PI, from_observable, wrap_angle
from .phases import CYCLIC_TOL, geometric_phases, invariance_residuals
from .propagation import DEFAULT_STEPS, solve

# unused here: the benchmark's tracer wraps these names as cli attributes
from .bundle import holonomy, horizontal_lift, lift_from_propagator
from .gates import two_loop_protocol
from .phases import detect_cyclic

_CHECKS = ("reparameterization", "gauge-start", "reference-frame")
_OUTPUT_KINDS = ("report", "curve_csv", "bloch_csv")
_TOP_KEYS = ("schema", "name", "system", "params", "checks", "outputs", "schedule", "observable")


# ------------------------------------------------------------- serialization


def _round12(x):
    # fixed 12-significant-digit float so identical scenarios produce
    # byte-identical reports
    return float(f"{float(x):.12g}")


def _float_list(xs):
    return [_round12(x) for x in np.atleast_1d(xs)]


# the least double that %.12g prints as 2pi: the literal 6.283185307175
# is stored just below the halfway point and prints as 6.28318530717
_PRINTS_AS_TWO_PI = np.nextafter(6.283185307175, 7.0)


def _angle(x):
    # a wrapped angle just below 2pi would round up to 2pi; it is 0
    return 0.0 if x >= _PRINTS_AS_TWO_PI else _round12(x)


def _matrix_json(M):
    M = np.asarray(M, dtype=complex)
    return [[[_round12(z.real), _round12(z.imag)] for z in row] for row in M]


def _fmt(x):
    # the same string as printing _round12(x): 12 digits read back and
    # printed again do not change
    return "%.12g" % x


# CSV rows formatted per call, so the text in memory does not grow with
# the step count
_CSV_BLOCK_ROWS = 1024


def _write_csv(path, columns, table):
    """Write a header of column names and one %.12g row per table row."""
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(", ".join(columns) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            f.write(line * len(block) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------- validation


def _want(cond, pointer, message):
    if not cond:
        raise ScenarioError(pointer, message)


def _is_real(x):
    # finite only: Python's json parses NaN, Infinity, 1e999 and huge integers
    return (
        isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
    )


def _parse_complex_matrix(obj, pointer):
    _want(isinstance(obj, list) and obj, pointer, "expected a non-empty matrix")
    d = len(obj)
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(obj):
        _want(
            isinstance(row, list) and len(row) == d,
            f"{pointer}/{i}",
            f"expected a row of {d} [re, im] pairs",
        )
        for j, entry in enumerate(row):
            _want(
                isinstance(entry, list)
                and len(entry) == 2
                and all(_is_real(v) for v in entry),
                f"{pointer}/{i}/{j}",
                "expected an [re, im] pair of finite numbers",
            )
            out[i, j] = complex(entry[0], entry[1])
    return out


def _choices(raw, key, allowed, default, barred):
    """raw[key], or default when absent: a list of distinct entries of
    allowed, none of them a key of barred ({entry: why the system bars
    it}), which must be non-empty unless the default is."""
    items = raw.get(key, default)
    _want(
        isinstance(items, list) and (items or not default),
        f"/{key}",
        "expected a non-empty list" if default else "expected a list",
    )
    for i, item in enumerate(items):
        _want(item in allowed, f"/{key}/{i}", f"expected one of {', '.join(allowed)}")
        _want(item not in barred, f"/{key}/{i}", barred.get(item))
    _want(len(set(items)) == len(items), f"/{key}", "duplicate entries")
    return list(items)


def load_scenario(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ScenarioError("", f"cannot read scenario file: {e}")
    except json.JSONDecodeError as e:
        raise ScenarioError("", f"not valid JSON: {e}")


def _check_params(params, system):
    """Check a params object against its system's spec (steps: _check_steps)."""
    spec = _SYSTEMS[system]
    for key, value in params.items():
        _want(
            key in spec.required + spec.optional,
            f"/params/{key}",
            f"unknown parameter for system {system}",
        )
        _want(_is_real(value), f"/params/{key}", "expected a finite number")
    for key in spec.required:
        _want(key in params, f"/params/{key}", f"required by system {system}")

    if spec.nonzero:
        _want(params[spec.nonzero] != 0, f"/params/{spec.nonzero}", "must be nonzero")
        # unless T is given, this param sets the duration: 2pi/|x| per loop
        T = spec.build({"params": params}, 8)[1]
        _want(np.isfinite(T), f"/params/{spec.nonzero}", "too small: the duration overflows")
    _want(params.get("T", 1.0) > 0, "/params/T", "duration must be positive")


# bounds one stack of steps + 1 complex d x d matrices, 16 (steps + 1) d^2
# bytes (the step unitaries a solved propagator holds), not the run: a report
# run peaks at 1.7 times it and a run that writes a curve at 6.6 times, with
# the running products, the lift's unitaries and the curve's columns (run_scenario
# under tracemalloc, rotating field at 65536 steps: 6.8 and 26.5 MiB against a
# 4 MiB stack), so about 430 MiB and 1.7 GiB at the cap
_MAX_STACK_BYTES = 256 * 2**20


def _check_steps(steps, sc):
    """The step rule for a deck's steps and --steps: an integer >= 8 whose
    propagator stack fits in 256 MiB at the deck's dimension. Returns an int."""
    _want(float(steps).is_integer() and steps >= 8, "/params/steps", "expected an integer >= 8")
    dim = sc["_samples"].shape[1] if "_samples" in sc else 2
    limit = _MAX_STACK_BYTES // (16 * dim * dim) - 1
    _want(
        steps <= limit,
        "/params/steps",
        f"the propagator stack must fit in 256 MiB: at most {limit} steps at d = {dim}",
    )
    return int(steps)


def validate_scenario(raw):
    """Check a parsed scenario against the published schema and fill in
    defaults. Returns the normalized scenario dict; raises ScenarioError
    with a JSON-pointer path on the first violation."""
    _want(isinstance(raw, dict), "", "scenario must be a JSON object")
    for key in raw:
        _want(key in _TOP_KEYS, f"/{key}", "unknown key")
    _want(raw.get("schema") == 1, "/schema", "expected the integer 1")

    name = raw.get("name")
    _want(isinstance(name, str) and name, "/name", "expected a non-empty string")
    _want(
        all(c.isalnum() or c in "._-" for c in name),
        "/name",
        "may contain only letters, digits, '.', '_' and '-' (it names output files)",
    )

    system = raw.get("system")
    _want(
        system in _SYSTEMS,
        "/system",
        f"expected one of {', '.join(sorted(_SYSTEMS))}",
    )
    spec = _SYSTEMS[system]

    params = raw.get("params", {})
    _want(isinstance(params, dict), "/params", "expected an object")
    _check_params(params, system)

    # the quadratic warp moves jump times off every uniform grid
    warp = {"reparameterization": "reparameterization needs a jump-free schedule"}
    checks = _choices(raw, "checks", _CHECKS, [], warp if spec.jumps else {})
    if spec.build is None:
        _want(not checks, "/checks", f"no evolution to check for system {system}")

    curves = dict.fromkeys(("curve_csv", "bloch_csv"), f"only report is available for system {system}")
    outputs = _choices(raw, "outputs", _OUTPUT_KINDS, ["report"], curves if spec.build is None else {})

    sc = {
        "schema": 1,
        "name": name,
        "system": system,
        "params": params,
        "checks": checks,
        "outputs": outputs,
    }

    if system == "custom-tabulated":
        _want("schedule" in raw, "/schedule", "required by system custom-tabulated")
        _want("observable" in raw, "/observable", "required by system custom-tabulated")
        sched = raw["schedule"]
        _want(isinstance(sched, dict), "/schedule", "expected an object")
        for key in sched:
            _want(key in ("times", "matrices"), f"/schedule/{key}", "unknown key")
        times = sched.get("times")
        _want(
            isinstance(times, list) and len(times) >= 2,
            "/schedule/times",
            "expected a list of at least two numbers",
        )
        for i, t in enumerate(times):
            _want(_is_real(t), f"/schedule/times/{i}", "expected a finite number")
        _want(times[0] == 0, "/schedule/times/0", "tabulated schedules must start at t = 0")
        _want(
            all(b > a for a, b in zip(times, times[1:])),
            "/schedule/times",
            "times must be strictly increasing",
        )
        mats = sched.get("matrices")
        _want(
            isinstance(mats, list) and len(mats) == len(times),
            "/schedule/matrices",
            "expected one matrix per time sample",
        )
        parsed = []
        dim = None
        for i, m in enumerate(mats):
            H = _parse_complex_matrix(m, f"/schedule/matrices/{i}")
            dim = dim or H.shape[0]
            _want(H.shape[0] == dim, f"/schedule/matrices/{i}", "inconsistent dimension")
            _want(is_hermitian(H), f"/schedule/matrices/{i}", "sample is not Hermitian")
            parsed.append(H)
        X0 = _parse_complex_matrix(raw["observable"], "/observable")
        _want(X0.shape[0] == dim, "/observable", "dimension differs from the schedule")
        try:
            from_observable(X0)
        except ObsphaseError as e:
            raise ScenarioError("/observable", str(e))
        sc["schedule"] = {"times": [float(t) for t in times], "matrices": mats}
        sc["observable"] = raw["observable"]
        sc["_times"] = np.asarray(times, dtype=float)
        sc["_samples"] = np.stack(parsed)
        sc["_X0"] = X0
        if "bloch_csv" in outputs:
            _want(dim == 2, "/outputs", "bloch_csv is only defined for dimension 2")
    else:
        _want("schedule" not in raw, "/schedule", f"not allowed for system {system}")
        _want("observable" not in raw, "/observable", f"not allowed for system {system}")
    if "steps" in params:
        params["steps"] = _check_steps(params["steps"], sc)

    return sc


# ------------------------------------------------------------------ pipeline


def _constant_field(sc, steps):
    params = sc["params"]
    T = params.get("T", TWO_PI / abs(params["mu_B"]))
    return make_constant_z(params["mu_B"]), T, tilted_observable(params["phi"]), steps


def _rotating(sc, steps, two_loop=False):
    params = sc["params"]
    return rotating_problem(params["w0"], params["w1"], params["w"], steps, two_loop)


def _tabulated(sc, steps):
    times = sc["_times"]
    return make_tabulated(times, sc["_samples"]), float(times[-1]), sc["_X0"], steps


def _two_loop_gate(report, sc, p, phase_report):
    params = sc["params"]
    phi = cyclic_tilt(params["w0"], params["w1"], params["w"])
    gate, fit = read_two_loop_gate(p, phase_report, phi)
    fitted = u_phi_beta(fit)
    report["gates"]["two-loop"] = _matrix_json(gate)
    report["gates"]["fitted"] = _matrix_json(fitted)
    report["gate_fit"] = {"phi": _round12(fit.phi), "beta": _angle(fit.beta)}
    report["residuals"]["dynamical_cancellation"] = _round12(
        np.max(np.abs(phase_report.gamma))
    )
    report["residuals"]["gate_reconstruction"] = _round12(np.linalg.norm(gate - fitted))


class _System(NamedTuple):
    """One system: its params, the param that must be nonzero and, unless
    T is given, sets the duration, build(sc, steps) -> (schedule, T, X0,
    steps) or None when nothing evolves, gate(report, sc, p, phase_report)
    adding the gate read off the solved propagator, and whether the
    schedule jumps (so it cannot be warped)."""

    required: tuple
    optional: tuple = ("steps",)
    nonzero: str = None
    build: Callable = None
    gate: Callable = None
    jumps: bool = False


_SYSTEMS = {
    "constant-field": _System(("mu_B", "phi"), ("T", "steps"), "mu_B", _constant_field),
    "rotating-field": _System(("w0", "w1", "w"), nonzero="w", build=_rotating),
    "two-loop": _System(
        ("w0", "w1", "w"), nonzero="w", build=partial(_rotating, two_loop=True),
        gate=_two_loop_gate, jumps=True,
    ),
    "two-qubit-cnot": _System((), ("phi0", "beta0", "phi1", "beta1")),
    "custom-tabulated": _System((), build=_tabulated),
}


def _build_problem(sc, steps_override):
    """Schedule, duration, observable and step count of an evolving system."""
    steps = steps_override or sc["params"].get("steps", DEFAULT_STEPS)
    return _SYSTEMS[sc["system"]].build(sc, int(steps))


def _evolve(sc, steps, tol):
    """Build, solve and read the phases of an evolving system: (schedule,
    propagator, PhaseReport). NotCyclicError when the observable does not
    return within tol."""
    h, T, X0, n = _build_problem(sc, steps)
    p = solve(h, T, steps=n)
    return h, p, geometric_phases(p, h, X0, tol=tol)


def _curve(hor):
    """Column names and one row per grid point of the horizontal lift
    hor: time, Bloch coordinates of the lowest-level projector
    (dimension 2 only), and the running holonomy phases, where one that
    would print as 2pi is 0."""
    frames = hor.unitaries @ hor.reference.vectors
    overlaps = np.einsum("in,kin->kn", frames[0].conj(), frames[1:])
    running = np.vstack([np.zeros(hor.dim), wrap_angle(np.angle(overlaps))])
    running[running >= _PRINTS_AS_TWO_PI] = 0.0
    columns = ["t"]
    parts = [hor.grid[:, None]]
    if hor.dim == 2:
        # <v|S|v> as (v^dag S) v, in that order: an einsum or a summed
        # product differs from v.conj() @ S @ v in the last bit
        v = frames[:, :, 0]
        columns += ["n_x", "n_y", "n_z"]
        parts += [
            ((v.conj()[:, None, :] @ S) @ v[:, :, None])[:, 0].real
            for S in (sigma_x, sigma_y, sigma_z)
        ]
    columns += [f"beta_running_{n + 1}" for n in range(hor.dim)]
    return columns, np.hstack(parts + [running])


def _fill_cnot(report, params):
    spec0 = GateSpec(params.get("phi0", np.pi / 2), params.get("beta0", 0.0))
    spec1 = GateSpec(params.get("phi1", np.pi / 2), params.get("beta1", np.pi / 2))
    U = two_qubit_gate(spec0, spec1)
    equivalent, alpha = cnot_equivalence(U)
    target = np.zeros((4, 4), dtype=complex)
    target[:2, :2] = np.eye(2)
    target[2:, 2:] = np.exp(1j * alpha) * np.array([[0, 1], [1, 0]])
    report["gates"]["cnot"] = _matrix_json(U)
    report["residuals"]["cnot_deviation"] = _round12(np.linalg.norm(U - target))
    report["cnot"] = {"equivalent": bool(equivalent), "target_phase": _round12(alpha)}


def run_scenario(sc, out_dir=".", steps=None, tol=CYCLIC_TOL):
    """Execute a validated scenario and write its artifacts. Returns the
    list of paths written."""
    os.makedirs(out_dir, exist_ok=True)
    name = sc["name"]
    report = {
        "schema": 1,
        "scenario": {k: v for k, v in sc.items() if not k.startswith("_")},
        "residuals": {},
        "gates": {},
    }
    system = _SYSTEMS[sc["system"]]

    if system.build is None:
        report.update(theta=[], gamma=[], beta=[], beta_unreduced=[], holonomy_beta=[])
        _fill_cnot(report, sc["params"])
    else:
        h, p, phase_report = _evolve(sc, steps, tol)
        report.update(
            theta=[_angle(x) for x in phase_report.theta],
            gamma=_float_list(phase_report.gamma),
            beta=[_angle(x) for x in phase_report.beta],
            beta_unreduced=_float_list(phase_report.beta_raw),
            holonomy_beta=[_angle(x) for x in phase_report.holonomy_beta],
        )
        report["residuals"]["cyclicity"] = _round12(phase_report.cyclicity_residual)
        report["residuals"]["cross_check"] = _round12(phase_report.cross_residual)
        if system.gate:
            system.gate(report, sc, p, phase_report)
        gaps = invariance_residuals(p, h, phase_report, sc["checks"], tol)
        report["residuals"].update(
            {check.replace("-", "_"): _round12(gap) for check, gap in gaps.items()}
        )

    if {"curve_csv", "bloch_csv"} & set(sc["outputs"]):
        columns, curve = _curve(phase_report.lift)

    artifacts = []
    for kind in sc["outputs"]:
        if kind == "report":
            path = os.path.join(out_dir, f"{name}-report.json")
            with open(path, "w") as f:
                json.dump(report, f, indent=2, sort_keys=True)
                f.write("\n")
        elif kind == "curve_csv":
            path = os.path.join(out_dir, f"{name}-curve.csv")
            _write_csv(path, columns, curve)
        else:
            path = os.path.join(out_dir, f"{name}-bloch.csv")
            _write_csv(path, columns[:4], curve[:, :4])
        artifacts.append(path)
    return artifacts


# --------------------------------------------------------------------- sweep


def _parse_range(spec):
    """The values of --range lo:hi:n: n >= 1 evenly spaced floats from lo
    to hi inclusive, their 8 n bytes within the stack cap of 256 MiB (n is
    checked before anything is allocated)."""
    parts = spec.split(":")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if len(parts) != 3 or count < 0:
            raise ValueError
    except (ValueError, IndexError):
        raise ScenarioError("", f"range must look like lo:hi:n, got {spec!r}")
    limit = _MAX_STACK_BYTES // 8
    _want(1 <= count <= limit, "", f"--range needs 1 to {limit} points (256 MiB of values), got {spec!r}")
    _want(_is_real(lo) and _is_real(hi), "", f"range bounds must be finite, got {spec!r}")
    return np.linspace(lo, hi, count)


def sweep_scenario(sc, param, values, out_dir=".", steps=None, tol=CYCLIC_TOL):
    """Rerun the scenario once per parameter value and tabulate the
    geometric phases. Non-cyclic rows are marked, not fatal."""
    system = _SYSTEMS[sc["system"]]
    _want(system.build is not None, "/system", "sweep needs an evolving system")
    _want(
        param != "steps" and param in system.required + system.optional,
        f"/params/{param}",
        f"not a sweepable parameter of system {sc['system']}",
    )
    # every row is checked before the CSV is opened; a row's parameters are
    # built again when it runs, so only the values are held n long
    for value in values:
        _check_params(dict(sc["params"], **{param: float(value)}), sc["system"])

    os.makedirs(out_dir, exist_ok=True)
    dim = sc["_X0"].shape[0] if "_X0" in sc else 2

    path = os.path.join(out_dir, f"{sc['name']}-sweep-{param}.csv")
    header = (
        f"{param}, "
        + ", ".join(f"beta_{n + 1}" for n in range(dim))
        + ", holonomy_residual, cyclicity_residual, status"
    )
    with open(path, "w") as f:
        f.write(header + "\n")
        for value in values:
            params = dict(sc["params"], **{param: float(value)})
            cells = [_fmt(value)]
            try:
                r = _evolve(dict(sc, params=params), steps, tol)[2]
            except NotCyclicError as e:
                cells += ["nan"] * (dim + 1) + [_fmt(e.check.residual), "not-cyclic"]
            else:
                cells += [_fmt(_angle(b)) for b in r.beta]
                cells += [_fmt(r.cross_residual), _fmt(r.cyclicity_residual), "ok"]
            f.write(",".join(cells) + "\n")
    return [path]


# ----------------------------------------------------------------------- cli


@cache  # built once per process: building costs several parses
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="obsphase",
        description="observable-geometric phases of cyclic Heisenberg evolutions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario JSON file")
    common.add_argument("--steps", type=int, help="override the time grid resolution")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--tol", type=float, default=CYCLIC_TOL, help="cyclicity tolerance override")
    sub.add_parser("run", parents=[common], help="run one scenario")
    sw = sub.add_parser("sweep", parents=[common], help="sweep one parameter")
    sw.add_argument("--param", required=True, help="scenario parameter to sweep")
    sw.add_argument(
        "--range",
        required=True,
        dest="range_spec",
        metavar="LO:HI:N",
        help="N evenly spaced values from LO to HI inclusive",
    )
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        sc = validate_scenario(load_scenario(args.scenario))
        if args.steps is not None:
            _check_steps(args.steps, sc)
        if not (_is_real(args.tol) and args.tol > 0):
            raise ScenarioError("", f"--tol must be positive and finite, got {args.tol:g}")
        if args.command == "run":
            artifacts = run_scenario(sc, out_dir=args.out, steps=args.steps, tol=args.tol)
        else:
            values = _parse_range(args.range_spec)
            artifacts = sweep_scenario(
                sc, args.param, values, out_dir=args.out, steps=args.steps, tol=args.tol
            )
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NotCyclicError, NotClosedError, CrossCheckError, DynamicalResidualError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except ObsphaseError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # load_scenario turns its own OSError into a ScenarioError
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    for path in artifacts:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
