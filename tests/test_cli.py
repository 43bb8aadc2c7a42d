import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from obsphase import geometric_phases, solve
from obsphase.cli import (
    _parse_range,
    load_scenario,
    main,
    run_scenario,
    sweep_scenario,
    validate_scenario,
)
from obsphase.errors import ScenarioError


def circ_dist(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2 * np.pi)
    return np.max(np.minimum(d, 2 * np.pi - d))


def scenario(**overrides):
    base = {
        "schema": 1,
        "name": "t",
        "system": "constant-field",
        "params": {"mu_B": 1.0, "phi": np.pi / 3, "steps": 1024},
        "outputs": ["report"],
    }
    base.update(overrides)
    return base


def write_scenario(tmp_path, sc, fname="scenario.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(sc))
    return str(path)


def read_report(tmp_path, name):
    with open(tmp_path / f"{name}-report.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- validation


def test_unknown_top_level_key_is_rejected_with_pointer():
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario(color="red"))
    assert err.value.pointer == "/color"


def test_schema_version_is_required():
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario(schema=2))
    assert err.value.pointer == "/schema"


def test_missing_required_parameter_is_pointed_at():
    sc = scenario()
    del sc["params"]["phi"]
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == "/params/phi"


def test_unknown_parameter_is_rejected():
    sc = scenario()
    sc["params"]["w0"] = 1.0
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == "/params/w0"


def test_too_few_steps_rejected():
    sc = scenario()
    sc["params"]["steps"] = 4
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == "/params/steps"


def test_steps_beyond_the_propagator_memory_cap_are_rejected():
    # 16 (steps + 1) d^2 bytes must fit in 256 MiB; validation only, no solve
    for steps, ok in ((1e9, False), (4194304, False), (4194303, True)):
        sc = scenario()
        sc["params"]["steps"] = steps
        if ok:
            assert validate_scenario(sc)["params"]["steps"] == steps
            continue
        with pytest.raises(ScenarioError) as err:
            validate_scenario(sc)
        assert err.value.pointer == "/params/steps"


def test_steps_cap_follows_the_tabulated_dimension():
    # at d = 3 the cap is 256 MiB // 144 - 1 = 1864134 steps
    H = [[[[float(i == j) * (i + 1), 0.0] for j in range(3)] for i in range(3)]] * 2
    for steps, ok in ((1864134, True), (1864135, False)):
        sc = scenario(
            system="custom-tabulated",
            params={"steps": steps},
            schedule={"times": [0.0, 1.0], "matrices": H},
            observable=H[0],
        )
        if ok:
            validate_scenario(sc)
            continue
        with pytest.raises(ScenarioError) as err:
            validate_scenario(sc)
        assert err.value.pointer == "/params/steps"


def test_main_rejects_oversized_steps_override(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("an oversized --steps must not reach the pipeline")

    monkeypatch.setattr("obsphase.cli.run_scenario", no_run)
    monkeypatch.setattr("obsphase.cli.sweep_scenario", no_run)
    path = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 0.5}))
    assert main(["run", path, "--steps", "4194304"]) == 2
    assert main(["sweep", path, "--param", "phi", "--range", "0:1:3", "--steps", "1000000000"]) == 2
    assert "/params/steps" in capsys.readouterr().err


def test_main_rejects_a_steps_override_beyond_the_float_range(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 0.5}))
    steps = "1" + "0" * 400
    for argv in (["run", path], ["sweep", path, "--param", "phi", "--range", "0:1:3"]):
        assert main(argv + ["--steps", steps]) == 2
        assert capsys.readouterr().err == (
            "error: /params/steps: the propagator stack must fit in 256 MiB:"
            " at most 4194303 steps at d = 2\n"
        )


def test_unknown_system_check_and_output_are_rejected():
    with pytest.raises(ScenarioError):
        validate_scenario(scenario(system="spin-chain"))
    with pytest.raises(ScenarioError):
        validate_scenario(scenario(checks=["unitarity"]))
    with pytest.raises(ScenarioError):
        validate_scenario(scenario(outputs=["pdf"]))


_TWO_LOOP = {"system": "two-loop", "params": {"w0": 1.0, "w1": 3.0, "w": 2.0}}
_CNOT = {"system": "two-qubit-cnot", "params": {}}


@pytest.mark.parametrize(
    "overrides, pointer, message",
    [
        ({"checks": "gauge-start"}, "/checks", "expected a list"),
        ({"checks": None}, "/checks", "expected a list"),
        ({"checks": ["gauge-start", "unitarity"]}, "/checks/1",
         "expected one of reparameterization, gauge-start, reference-frame"),
        ({"checks": ["gauge-start", "gauge-start"]}, "/checks", "duplicate entries"),
        ({**_TWO_LOOP, "checks": ["gauge-start", "reparameterization"]}, "/checks/1",
         "reparameterization needs a jump-free schedule"),
        ({**_CNOT, "checks": ["gauge-start"]}, "/checks", "no evolution to check for system two-qubit-cnot"),
        ({"outputs": "report"}, "/outputs", "expected a non-empty list"),
        ({"outputs": []}, "/outputs", "expected a non-empty list"),
        ({"outputs": ["report", "pdf"]}, "/outputs/1", "expected one of report, curve_csv, bloch_csv"),
        ({"outputs": ["report", "report"]}, "/outputs", "duplicate entries"),
        ({**_CNOT, "outputs": ["report", "curve_csv"]}, "/outputs/1",
         "only report is available for system two-qubit-cnot"),
    ],
    ids=[
        "checks-string", "checks-null", "checks-unknown", "checks-duplicate", "checks-warp-of-jumps",
        "checks-cnot", "outputs-string", "outputs-empty", "outputs-unknown", "outputs-duplicate",
        "outputs-cnot-curve",
    ],
)
def test_a_checks_or_outputs_list_that_breaks_the_rule_is_pointed_at(overrides, pointer, message):
    with pytest.raises(ScenarioError) as err:
        validate_scenario(scenario(**overrides))
    assert err.value.pointer == pointer
    assert str(err.value) == f"{pointer}: {message}"


def test_gate_system_has_no_curves():
    sc = scenario(system="two-qubit-cnot", params={}, outputs=["report", "curve_csv"])
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer.startswith("/outputs")


def test_tabulated_system_requires_schedule_and_observable():
    sc = scenario(system="custom-tabulated", params={})
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == "/schedule"


def test_bloch_csv_is_refused_for_a_d3_tabulated_deck():
    H = [[[[float(i == j) * (i + 1), 0.0] for j in range(3)] for i in range(3)]] * 2
    sc = scenario(
        system="custom-tabulated",
        params={},
        schedule={"times": [0.0, 1.0], "matrices": H},
        observable=H[0],
        outputs=["report", "bloch_csv"],
    )
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == "/outputs"
    assert "bloch_csv is only defined for dimension 2" in str(err.value)


def test_tabulated_rejects_non_hermitian_sample():
    mat = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    herm = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    sc = scenario(
        system="custom-tabulated",
        params={},
        schedule={"times": [0.0, 1.0], "matrices": [mat, mat]},
        observable=herm,
    )
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == "/schedule/matrices/0"


# ----------------------------------------------------------------- run paths


def test_constant_field_report_betas(tmp_path):
    sc = validate_scenario(scenario(params={"mu_B": 1.0, "phi": np.pi / 3, "steps": 4096}))
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    assert circ_dist(r["beta"], [3 * np.pi / 2, np.pi / 2]) < 1e-6
    assert circ_dist(r["theta"], [np.pi, np.pi]) < 1e-6
    assert r["residuals"]["cross_check"] < 1e-5
    assert r["schema"] == 1 and r["scenario"]["system"] == "constant-field"


def test_rotating_field_report_thetas(tmp_path):
    sc = validate_scenario(
        scenario(system="rotating-field", params={"w0": 1.0, "w1": 0.0, "w": 2.0, "steps": 4096})
    )
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    want = [np.pi - np.pi / 2 * np.sqrt(5), np.pi + np.pi / 2 * np.sqrt(5)]
    assert circ_dist(r["theta"], want) < 1e-6
    assert circ_dist(r["beta"], r["holonomy_beta"]) < 1e-5


def test_two_loop_report_is_identity_gate(tmp_path):
    # the reversed second loop cancels the first, so the fitted gate is
    # the identity and every phase column is 0 mod 2pi
    sc = validate_scenario(
        scenario(system="two-loop", params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 2048})
    )
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    assert circ_dist(r["beta"], [0.0, 0.0]) < 1e-6
    assert r["residuals"]["dynamical_cancellation"] < 1e-8
    assert r["residuals"]["gate_reconstruction"] < 1e-6
    gate = np.array([[complex(re, im) for re, im in row] for row in r["gates"]["two-loop"]])
    assert np.linalg.norm(gate - np.eye(2)) < 1e-6


def test_cnot_report(tmp_path):
    sc = validate_scenario(scenario(system="two-qubit-cnot", params={}))
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    assert r["cnot"]["equivalent"] is True
    assert abs(r["cnot"]["target_phase"] - np.pi / 2) < 1e-9
    assert len(r["gates"]["cnot"]) == 4
    assert r["theta"] == []


def test_tabulated_constant_schedule_matches_closed_form(tmp_path):
    # two identical samples interpolate to a constant -sigma_z/2 drive
    phi = 1.0
    hz = [[[-0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    obs = [
        [[-np.cos(phi), 0.0], [-np.sin(phi), 0.0]],
        [[-np.sin(phi), 0.0], [np.cos(phi), 0.0]],
    ]
    sc = validate_scenario(
        scenario(
            system="custom-tabulated",
            params={"steps": 2048},
            schedule={"times": [0.0, 2 * np.pi], "matrices": [hz, hz]},
            observable=obs,
        )
    )
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    want = [np.pi * (1 + np.cos(phi)), np.pi * (1 - np.cos(phi))]
    assert circ_dist(r["beta"], want) < 1e-6


def test_invariance_checks_record_small_residuals(tmp_path):
    sc = validate_scenario(
        scenario(
            params={"mu_B": 1.0, "phi": 0.9, "steps": 2048},
            checks=["reparameterization", "gauge-start", "reference-frame"],
        )
    )
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    assert r["residuals"]["gauge_start"] < 1e-9
    assert r["residuals"]["reference_frame"] < 1e-6
    assert r["residuals"]["reparameterization"] < 1e-6


def test_curve_csv_headers_and_closure(tmp_path):
    sc = validate_scenario(
        scenario(
            params={"mu_B": 1.0, "phi": 0.9, "steps": 1024},
            outputs=["report", "curve_csv", "bloch_csv"],
        )
    )
    run_scenario(sc, out_dir=str(tmp_path))
    curve = (tmp_path / "t-curve.csv").read_text().splitlines()
    bloch = (tmp_path / "t-bloch.csv").read_text().splitlines()
    assert curve[0] == "t, n_x, n_y, n_z, beta_running_1, beta_running_2"
    assert bloch[0] == "t, n_x, n_y, n_z"
    assert len(curve) == 1 + 1024 + 1
    first = [float(v) for v in curve[1].split(",")]
    assert first[:4] == pytest.approx([0.0, np.sin(0.9), 0.0, np.cos(0.9)], abs=1e-9)
    last = [float(v) for v in curve[-1].split(",")]
    r = read_report(tmp_path, "t")
    assert circ_dist(last[4:], r["holonomy_beta"]) < 1e-9


# --------------------------------------------------------------------- sweep


def test_sweep_constant_field_matches_closed_form(tmp_path):
    sc = validate_scenario(scenario(params={"mu_B": 1.0, "phi": 0.0, "steps": 1024}))
    sweep_scenario(sc, "phi", np.linspace(0, np.pi, 9), out_dir=str(tmp_path))
    lines = (tmp_path / "t-sweep-phi.csv").read_text().splitlines()
    assert lines[0] == "phi, beta_1, beta_2, holonomy_residual, cyclicity_residual, status"
    assert len(lines) == 10
    for line in lines[1:]:
        cells = line.split(",")
        phi, beta1 = float(cells[0]), float(cells[1])
        assert circ_dist(beta1, np.pi * (1 + np.cos(phi))) < 1e-6
        assert cells[-1] == "ok"


def test_sweep_empty_range_writes_header_only(tmp_path):
    sc = validate_scenario(scenario())
    sweep_scenario(sc, "phi", np.linspace(0, 1, 0), out_dir=str(tmp_path))
    lines = (tmp_path / "t-sweep-phi.csv").read_text().splitlines()
    assert len(lines) == 1


def test_sweep_marks_non_cyclic_rows(tmp_path):
    sc = validate_scenario(scenario(params={"mu_B": 1.0, "phi": 0.7, "steps": 1024}))
    sweep_scenario(sc, "T", np.array([3.0, 2 * np.pi]), out_dir=str(tmp_path))
    lines = (tmp_path / "t-sweep-T.csv").read_text().splitlines()
    assert lines[1].endswith("not-cyclic")
    assert lines[2].endswith("ok")
    assert "nan" in lines[1]


def test_sweep_rejects_non_numeric_or_unknown_param(tmp_path):
    sc = validate_scenario(scenario())
    with pytest.raises(ScenarioError):
        sweep_scenario(sc, "steps", np.array([16.0]), out_dir=str(tmp_path))
    with pytest.raises(ScenarioError):
        sweep_scenario(sc, "w0", np.array([1.0]), out_dir=str(tmp_path))


# ------------------------------------------------------------ main/exit codes


def test_main_run_exit_codes(tmp_path):
    good = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 0.5, "steps": 512}))
    assert main(["run", good, "--out", str(tmp_path)]) == 0

    bad = write_scenario(tmp_path, scenario(system="nope"), "bad.json")
    assert main(["run", bad, "--out", str(tmp_path)]) == 2

    partial = write_scenario(
        tmp_path,
        scenario(params={"mu_B": 1.0, "phi": 0.5, "T": 3.0, "steps": 512}),
        "partial.json",
    )
    assert main(["run", partial, "--out", str(tmp_path)]) == 3


def test_main_rejects_malformed_json_and_range(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken)]) == 2

    good = write_scenario(tmp_path, scenario())
    assert main(["sweep", good, "--param", "phi", "--range", "0:pi:4"]) == 2


def test_an_error_without_a_pointer_prints_its_message_alone(tmp_path, capsys):
    good = write_scenario(tmp_path, scenario())
    array = tmp_path / "array.json"
    array.write_text("[]")
    for argv, message in (
        (["run", good, "--out", str(tmp_path), "--tol", "-1"], "--tol must be positive and finite, got -1"),
        (["sweep", good, "--param", "phi", "--range", "1:2"], "range must look like lo:hi:n, got '1:2'"),
        (["run", str(array), "--out", str(tmp_path)], "scenario must be a JSON object"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_main_steps_override(tmp_path):
    path = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 0.5}))
    assert main(["run", path, "--out", str(tmp_path), "--steps", "512"]) == 0
    assert main(["run", path, "--out", str(tmp_path), "--steps", "4"]) == 2


def test_reports_are_byte_identical_across_runs(tmp_path):
    sc = scenario(
        system="rotating-field", params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 2048}
    )
    path = write_scenario(tmp_path, sc)
    for sub in ("a", "b"):
        assert main(["run", path, "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "t-report.json").read_bytes()
    b = (tmp_path / "b" / "t-report.json").read_bytes()
    assert a == b


def test_run_then_sweep_in_one_process_writes_what_fresh_processes_write(tmp_path):
    # main builds its parser once per process: a run with --steps and a
    # sweep without it, in one process, write the bytes that each writes
    # in an interpreter of its own
    sc = scenario(outputs=["report", "curve_csv"])
    path = write_scenario(tmp_path, sc)
    commands = (
        ["run", path, "--steps", "2048"],
        ["sweep", path, "--param", "phi", "--range", "0.5:1.5:3"],
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for argv in commands:
        assert main([*argv, "--out", str(tmp_path / "one")]) == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "obsphase.cli", *argv, "--out", str(tmp_path / "fresh")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
    written = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert written == ["t-curve.csv", "t-report.json", "t-sweep-phi.csv"]
    assert written == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    for name in written:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_report_round_trips_and_revalidates(tmp_path):
    sc = scenario(params={"mu_B": 1.0, "phi": 0.3, "steps": 512})
    path = write_scenario(tmp_path, sc)
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    r = read_report(tmp_path, "t")
    validate_scenario(r["scenario"])  # the echoed scenario is itself valid
    for key in ("theta", "gamma", "beta", "beta_unreduced", "holonomy_beta"):
        assert isinstance(r[key], list) and len(r[key]) == 2
    assert set(r["residuals"]) >= {"cyclicity", "cross_check"}


# ------------------------------------------------------ angles, input bounds


def test_angles_below_two_pi_never_print_as_two_pi(tmp_path):
    # the identity gate's phases sit a rounding step below 2pi; they must
    # read 0, not 6.28318530718, at 12 significant digits
    sc = validate_scenario(
        scenario(
            system="two-loop",
            params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 2048},
            outputs=["report", "curve_csv"],
        )
    )
    run_scenario(sc, out_dir=str(tmp_path))
    r = read_report(tmp_path, "t")
    angles = r["theta"] + r["beta"] + r["holonomy_beta"] + [r["gate_fit"]["beta"]]
    assert all(0 <= a < 2 * np.pi for a in angles)
    for line in (tmp_path / "t-curve.csv").read_text().splitlines()[1:]:
        assert all(0 <= float(a) < 2 * np.pi for a in line.split(",")[4:])

    sweep_scenario(sc, "w1", np.array([3.0, 4.0, 5.0]), out_dir=str(tmp_path), steps=1024)
    rows = (tmp_path / "t-sweep-w1.csv").read_text().splitlines()[1:]
    assert all(0 <= float(a) < 2 * np.pi for row in rows for a in row.split(",")[1:3])


@pytest.mark.parametrize(
    "pointer, value",
    [
        ("/params/mu_B", float("nan")),
        ("/params/phi", float("inf")),
        ("/params/T", 10**400),
        ("/schedule/times/1", float("nan")),
        ("/schedule/matrices/1/0/0", [float("-inf"), 0.0]),
        ("/observable/1/0", [0.0, float("nan")]),
    ],
)
def test_non_finite_numbers_are_pointed_at(pointer, value):
    Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    tabulated = scenario(
        system="custom-tabulated",
        params={},
        schedule={"times": [0.0, 1.0], "matrices": [Z, Z]},
        observable=Z,
    )
    sc = json.loads(json.dumps(tabulated if "params" not in pointer else scenario()))
    *path, last = pointer.strip("/").split("/")
    node = sc
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    with pytest.raises(ScenarioError) as err:
        validate_scenario(sc)
    assert err.value.pointer == pointer


def test_main_rejects_non_finite_json_range_and_tolerance(tmp_path, capsys):
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(scenario(params={"mu_B": float("nan"), "phi": 0.5})))
    assert "NaN" in nan.read_text()
    assert main(["run", str(nan), "--out", str(tmp_path)]) == 2
    assert "/params/mu_B" in capsys.readouterr().err

    good = write_scenario(tmp_path, scenario())
    for spec in ("0:inf:3", "nan:1:3", "-inf:1:0"):
        assert main(["sweep", good, "--param", "phi", f"--range={spec}"]) == 2
    for tol in ("0", "-1e-6", "nan", "inf"):
        assert main(["run", good, "--out", str(tmp_path), f"--tol={tol}"]) == 2
    assert main(["run", good, "--out", str(tmp_path), "--tol=1e-5"]) == 0


def test_main_rejects_a_tolerance_of_one_or_more(tmp_path, capsys):
    # an overlap deficit lies in [0, 1], so --tol 1 or more accepts any
    # match; this evolution misses its cycle by a deficit of 0.053
    path = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 1.0, "T": 5.5, "steps": 1024}))
    out = tmp_path / "out"
    for tol in ("1", "2"):
        for argv in (["run", path], ["sweep", path, "--param", "phi", "--range", "0.5:1.5:3"]):
            assert main([*argv, "--out", str(out), "--tol", tol]) == 2
            assert capsys.readouterr().err == f"error: --tol must be below 1, got {tol}\n"
    assert not out.exists()
    assert main(["run", path, "--out", str(out), "--tol", "0.06"]) == 0
    assert 0.05 < read_report(out, "t")["residuals"]["cyclicity"] < 0.06


def test_sweep_rejects_an_empty_or_oversized_range_before_allocating(tmp_path, capsys):
    # a trillion values would take 8 TB: the count is checked before the
    # values exist, so this run allocates nothing; no point would write a
    # CSV with only its header
    good = write_scenario(tmp_path, scenario())
    out = tmp_path / "out"
    for spec in ("1:2:1000000000000", "1:2:0"):
        argv = ["sweep", good, "--param", "phi", "--range", spec, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --range needs 1 to 33554432 points") and spec in err
    assert not out.exists()
    with pytest.raises(ScenarioError, match="--range"):
        _parse_range("0:1:33554433")  # one past 256 MiB of float64


# ---------------------------------------------------------- one solve per run


def test_two_loop_run_solves_once_and_passes_tol(tmp_path, monkeypatch):
    import obsphase.cli as cli
    import obsphase.gates as gates

    solves, tols = [], []

    def counted_solve(h, T, steps):
        if h.kind != "Warped":
            solves.append(steps)
        return solve(h, T, steps=steps)

    def recorded_phases(p, h, X0, tol=1e-6):
        tols.append(tol)
        return geometric_phases(p, h, X0, tol=tol)

    for module in (cli, gates):
        monkeypatch.setattr(module, "solve", counted_solve)
        monkeypatch.setattr(module, "geometric_phases", recorded_phases)
    sc = validate_scenario(
        scenario(
            system="two-loop",
            params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 1024},
            checks=["gauge-start"],
            outputs=["report", "curve_csv"],
        )
    )
    run_scenario(sc, out_dir=str(tmp_path), tol=1e-4)
    assert solves == [1024]
    assert tols == [1e-4]


def test_invariance_checks_read_the_holonomy_at_the_run_tolerance(tmp_path):
    # a period a little long: cyclicity 3.5e-6 and alignment 0.999996, so
    # only a tolerance looser than the default lets the run through, and
    # the gauge-start check must use it too
    raw = scenario(
        params={"mu_B": 1.0, "phi": 1.0, "T": 6.2895, "steps": 4096},
        checks=["gauge-start"],
    )
    path = write_scenario(tmp_path, raw)
    assert main(["run", path, "--out", str(tmp_path), "--tol", "1e-3"]) == 0
    r = read_report(tmp_path, "t")
    assert r["residuals"]["cyclicity"] > 1e-6
    assert r["residuals"]["gauge_start"] < 1e-12


def test_a_lift_that_does_not_close_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    import obsphase.cli as cli
    from obsphase.errors import NotClosedError

    def not_closed(*args, **kwargs):
        raise NotClosedError("base curve does not close within tolerance")

    monkeypatch.setattr(cli, "run_scenario", not_closed)
    assert main(["run", write_scenario(tmp_path, scenario()), "--out", str(tmp_path)]) == 3
    assert "NotClosedError" in capsys.readouterr().err


DEMO_SCENARIOS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "scenarios").glob("*.json")
)


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_demo_scenarios_run(path, tmp_path):
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert any(tmp_path.iterdir())



def test_demo_cyclicity_residuals_are_never_negative(tmp_path):
    # an overlap amplitude that rounds above 1 is no deficit, and three
    # of the demos have one
    residuals = []
    for path in DEMO_SCENARIOS:
        out = tmp_path / path.stem
        assert main(["run", str(path), "--out", str(out)]) == 0
        for report in out.glob("*-report.json"):
            residuals.append(json.loads(report.read_text())["residuals"].get("cyclicity"))
    residuals = [r for r in residuals if r is not None]
    assert len(residuals) >= 4 and min(residuals) >= 0.0

# ------------------------------------------------ negative drive frequency


def test_negative_drive_frequency_runs_one_period(tmp_path):
    from obsphase.gates import cyclic_tilt, tilted_observable
    from obsphase.linalg import sigma_z
    from obsphase.obspace import from_observable
    from support import closed_form_rotating

    w0, w1, w, steps = 1.0, 3.0, -2.0, 4096
    for system in ("rotating-field", "two-loop"):
        path = write_scenario(
            tmp_path,
            scenario(name=system, system=system, params={"w0": w0, "w1": w1, "w": w}),
            f"{system}.json",
        )
        assert main(["run", path, "--out", str(tmp_path)]) == 0

    # one period is 2pi/|w|; theta from the exact propagator, gamma from
    # the rotating components averaging out over the period
    T = 2 * np.pi / abs(w)
    vectors = from_observable(tilted_observable(cyclic_tilt(w0, w1, w))).vectors
    U = closed_form_rotating(w0, w1, w, T)
    theta = np.angle(np.einsum("in,ij,jn->n", vectors.conj(), U.conj().T, vectors))
    gamma = -(w1 / 2) * T * np.einsum("in,ij,jn->n", vectors.conj(), sigma_z, vectors).real
    width = np.hypot(w0, w1 + w) + abs(w)
    allowance = 1e-9 + width**3 * T * (T / steps) ** 2 / 12
    report = read_report(tmp_path, "rotating-field")
    assert circ_dist(report["beta"], theta - gamma) <= allowance


def test_sweep_values_are_validated_before_the_csv_is_opened(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 0.5}))
    out = tmp_path / "out"
    assert main(["sweep", path, "--param", "T", "--range=-1:1:3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "/params/T" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_that_cannot_write_its_outputs_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario())
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", path, "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    # the directory exists, but the report's path is a directory
    (tmp_path / "out" / "t-report.json").mkdir(parents=True)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_sweep_that_cannot_write_its_outputs_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario())
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["sweep", path, "--param", "phi", "--range=0.5:1.5:3", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and str(taken) in err
    assert taken.read_text() == ""


# ------------------------------------------- CSV bytes against per-row code


def _round12(x):
    return float(f"{float(x):.12g}")


def _row_cell(x):
    return f"{_round12(x):.12g}"


def _row_angle(x):
    x = _round12(x)
    return 0.0 if x == _round12(2 * np.pi) else x


def per_row_curve_csv(p, X0, bloch_only=False):
    """The curve CSV built one grid point at a time, each cell rounded
    to 12 digits and printed again: the reference for the CLI writer."""
    from obsphase.bundle import horizontal_lift, lift_from_propagator
    from obsphase.linalg import sigma_x, sigma_y, sigma_z
    from obsphase.obspace import from_observable

    obs = from_observable(X0)
    hor = horizontal_lift(lift_from_propagator(p, obs))
    frames = hor.unitaries @ obs.vectors
    overlaps = np.einsum("in,kin->kn", frames[0].conj(), frames[1:])
    running = np.vstack([np.zeros(obs.dim), np.angle(overlaps) % (2 * np.pi)])
    columns = ["t"] + (["n_x", "n_y", "n_z"] if obs.dim == 2 else [])
    if not bloch_only:
        columns += [f"beta_running_{n + 1}" for n in range(obs.dim)]
    lines = [", ".join(columns)]
    for k, t in enumerate(p.grid):
        row = [_row_cell(t)]
        if obs.dim == 2:
            v = frames[k, :, 0]
            row += [_row_cell((v.conj() @ S @ v).real) for S in (sigma_x, sigma_y, sigma_z)]
        if not bloch_only:
            row += [_row_cell(_row_angle(b)) for b in running[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _tabulated_d3(steps):
    # a triangular spin-1 z drive: U(T) = I, with the kink at pi on a node
    Jz = np.diag([1.0, 0.0, -1.0])
    X0 = [[1.0, 0.5, 0.2], [0.5, 2.0, 0.3j], [0.2, -0.3j, 3.5]]
    return scenario(
        system="custom-tabulated",
        params={"steps": steps},
        schedule={
            "times": [0.0, np.pi, 2 * np.pi],
            "matrices": [_pairs(0 * Jz), _pairs(2 * Jz), _pairs(0 * Jz)],
        },
        observable=_pairs(X0),
        outputs=["curve_csv"],
    )


@pytest.mark.parametrize(
    "raw",
    [
        # d = 2, both files; one running phase prints as 2pi and is written 0
        scenario(
            system="rotating-field",
            params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 1024},
            outputs=["curve_csv", "bloch_csv"],
        ),
        # d = 3 has no Bloch columns; 14 running phases print as 2pi
        _tabulated_d3(1024),
        # pieces of 1024, 1024 and 452 steps: the last block is short
        scenario(
            system="rotating-field",
            params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 2500},
            outputs=["curve_csv", "bloch_csv"],
        ),
        # the last piece is 2 steps
        _tabulated_d3(2050),
    ],
    ids=["rotating-d2", "tabulated-d3", "rotating-d2-3-pieces", "tabulated-d3-2-step-piece"],
)
def test_curve_csv_bytes_match_the_per_row_reference(raw, tmp_path):
    from obsphase.cli import _build_problem

    sc = validate_scenario(raw)
    run_scenario(sc, out_dir=str(tmp_path))
    h, T, X0, n = _build_problem(sc, None)
    p = solve(h, T, steps=n)
    assert (tmp_path / "t-curve.csv").read_text() == per_row_curve_csv(p, X0)
    if "bloch_csv" in sc["outputs"]:
        assert (tmp_path / "t-bloch.csv").read_text() == per_row_curve_csv(p, X0, bloch_only=True)


def test_a_run_lifts_the_curve_once_for_both_csv_files(tmp_path, monkeypatch):
    import obsphase.cli as cli
    import obsphase.phases as phases

    calls = []

    def counted(original):
        def horizontal_lift(lift):
            calls.append(1)
            return original(lift)

        return horizontal_lift

    for module in (cli, phases):
        monkeypatch.setattr(module, "horizontal_lift", counted(module.horizontal_lift))
    sc = validate_scenario(scenario(outputs=["report", "curve_csv", "bloch_csv"]))
    run_scenario(sc, out_dir=str(tmp_path))
    # the holonomy cross-check's lift also feeds both CSV files
    assert len(calls) == 1


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_demo_outputs_are_byte_identical_across_runs(path, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(["run", str(path), "--out", str(out)]) == 0
    names = sorted(f.name for f in first.iterdir())
    assert names == sorted(f.name for f in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_cross_check_failure_names_the_step_count_that_passes(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        scenario(system="rotating-field", params={"w0": 1.0, "w1": 3.0, "w": -2.0, "steps": 1024}),
    )
    assert main(["run", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "CrossCheckError" in err
    assert "max gap 1.241e-05 > 1e-05 at 1024 steps" in err
    assert "predicts that 2048 steps pass" in err
    assert main(["run", path, "--out", str(tmp_path), "--steps", "2048"]) == 0


# ------------------------------------------------ one Hermiticity rule


def _triangle():
    return json.loads((DEMO_SCENARIOS[0].parent / "tabulated-triangle.json").read_text())


@pytest.mark.parametrize(
    "sample, eps, code",
    [(1, 1e-13, 0), (1, 5e-11, 0), (1, 1e-8, 2), (0, 1e-13, 2), (0, 5e-11, 2), (0, 1e-8, 2)],
)
def test_a_tabulated_sample_validation_accepts_also_runs(sample, eps, code, tmp_path, capsys):
    # validation and make_tabulated used to test Hermiticity at an absolute
    # 1e-10 and 1e-12: a 7.1e-11 asymmetry validated, then exited 2 with no
    # pointer. Sample 1 is -sigma_z, whose largest entry is 1; sample 0 is
    # the zero matrix, so any asymmetry is all of it
    raw = _triangle()
    raw["schedule"]["matrices"][sample][0][1][1] += eps
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert code == 0 or err.startswith(f"error: /schedule/matrices/{sample}:"), err


def test_a_tabulated_zero_crossing_stays_hermitian(tmp_path, capsys):
    # samples sigma_z + E, -sigma_z + E, sigma_z + E with E at 0.9 of the
    # tolerance: each passes, but a blend near s = 1/2 is about E alone,
    # so the interpolation must not carry the samples' asymmetry along
    raw = _triangle()
    E = np.zeros((2, 2), dtype=complex)
    E[0, 1] = 0.9e-10j
    raw["schedule"]["matrices"] = [_pairs(np.diag([c, -c]) + E) for c in (1.0, -1.0, 1.0)]
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 0, (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("k", [-12, -6, 6, 12])
def test_a_scaled_observable_validates(k):
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    raw = _tabulated_d3(1024)
    raw["observable"] = _pairs(10.0**k * Q @ np.diag([-1.0, 0.2, 1.0]) @ Q.conj().T)
    validate_scenario(raw)


def test_a_non_hermitian_observable_is_pointed_at():
    raw = _tabulated_d3(1024)
    raw["observable"][0][1][1] += 1e-6
    with pytest.raises(ScenarioError, match="not Hermitian") as err:
        validate_scenario(raw)
    assert err.value.pointer == "/observable"


def test_a_tiny_field_reparameterizes_without_overflow(tmp_path, capsys):
    # T = 2 pi 1e300: the quadratic warp squared u before dividing by T
    raw = scenario(params={"mu_B": 1e-300, "phi": np.pi / 3, "steps": 4096}, checks=["reparameterization"])
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 0, (
        capsys.readouterr().err
    )
    assert read_report(tmp_path, "t")["residuals"]["reparameterization"] < 1e-6


# ----------------------------------------- running products only for curves


def _count_prefix_products(monkeypatch):
    import obsphase.propagation as propagation

    calls = []
    original = propagation._prefix_products
    monkeypatch.setattr(
        propagation, "_prefix_products", lambda *a: calls.append(1) or original(*a)
    )
    return calls


def test_phases_sweeps_checks_and_reports_form_no_running_products(tmp_path, monkeypatch, capsys):
    from obsphase.gates import rotating_problem

    calls = _count_prefix_products(monkeypatch)
    h, T, X0, n = rotating_problem(1.0, 3.0, 2.0, 1024)
    geometric_phases(solve(h, T, steps=n), h, X0)
    assert calls == []

    path = write_scenario(tmp_path, scenario())
    assert main(["sweep", path, "--param", "phi", "--range", "0.5:2.5:3", "--out", str(tmp_path)]) == 0
    assert calls == []

    checked = scenario(
        system="rotating-field",
        params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": 1024},
        checks=["reparameterization", "gauge-start", "reference-frame"],
    )
    assert main(["run", write_scenario(tmp_path, checked), "--out", str(tmp_path)]) == 0
    assert calls == []

    curves = dict(checked, outputs=["report", "curve_csv", "bloch_csv"])
    assert main(["run", write_scenario(tmp_path, curves), "--out", str(tmp_path)]) == 0
    assert calls == [1]


def test_a_curve_run_holds_one_stack_of_steps(tmp_path):
    # the curve is formed and written a piece at a time, so a run that
    # writes both CSV files stays within the bound of a phase report
    import tracemalloc

    steps = 65536
    sc = validate_scenario(
        scenario(
            system="rotating-field",
            params={"w0": 1.0, "w1": 3.0, "w": 2.0, "steps": steps},
            outputs=["report", "curve_csv", "bloch_csv"],
        )
    )
    tracemalloc.start()
    try:
        run_scenario(sc, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * steps * 2**2


def test_a_match_that_is_no_permutation_is_not_called_one(tmp_path, capsys):
    # w = 1e-300 makes T = 6.3e300 and U(T, 0) zero: every column's
    # best-aligned row is row 0
    raw = scenario(system="rotating-field", params={"w0": 1.0, "w1": 3.0, "w": 1e-300})
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "NotCyclicError" in err
    assert "permutation" not in err
    assert "no one-to-one match of the final eigenframe onto the initial one" in err
    assert "(worst alignment 0.000000)" in err


# --------------------------------- durations set by a param, and the sweep


@pytest.mark.parametrize(
    "system, params, pointer",
    [
        ("constant-field", {"mu_B": 1e-308, "phi": 1.0}, "/params/mu_B"),
        ("constant-field", {"mu_B": 5e-324, "phi": 1.0}, "/params/mu_B"),
        ("rotating-field", {"w0": 1.0, "w1": 3.0, "w": 5e-324}, "/params/w"),
        ("two-loop", {"w0": 1.0, "w1": 3.0, "w": 5e-324}, "/params/w"),
        # one loop of 2 pi / |w| fits in a float, the double loop does not
        ("two-loop", {"w0": 1.0, "w1": 3.0, "w": 5e-308}, "/params/w"),
    ],
)
def test_a_duration_that_overflows_is_pointed_at(system, params, pointer, tmp_path, capsys):
    raw = scenario(system=system, params=params)
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert f"error: {pointer}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "system, params",
    [
        ("rotating-field", {"w0": 1.0, "w1": 1e308, "w": 1e308, "steps": 8192}),
        ("constant-field", {"mu_B": 1.7e308, "phi": 1.0, "steps": 4096}),
    ],
)
def test_a_schedule_whose_integral_overflows_exits_2(system, params, tmp_path, capsys):
    raw = scenario(system=system, params=params, checks=[])
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: ScheduleDomainError: the integral of the schedule overflows by t=" in err
    assert not (tmp_path / "t-report.json").exists()


def test_a_tiny_field_with_a_given_duration_stays_valid():
    validate_scenario(scenario(params={"mu_B": 5e-324, "phi": 1.0, "T": 1.0}))


def test_sweep_rows_get_the_duration_rule(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario())
    argv = ["sweep", path, "--param", "mu_B", "--range", "1e-308:1:2", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: /params/mu_B: " in capsys.readouterr().err


def test_a_sweep_checks_cyclicity_once_per_row(tmp_path, monkeypatch):
    import obsphase.cli as cli
    import obsphase.phases as phases

    calls = []
    original = phases.detect_cyclic

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (cli, phases):
        monkeypatch.setattr(module, "detect_cyclic", counted)
    # T from 3 to 4 pi at mu_B = 1: only the last row, two whole turns, is cyclic
    path = write_scenario(tmp_path, scenario(params={"mu_B": 1.0, "phi": 1.0, "steps": 4096}))
    argv = ["sweep", path, "--param", "T", "--range", f"3:{4 * np.pi!r}:9", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = (tmp_path / "t-sweep-T.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["not-cyclic"] * 8 + ["ok"]
    assert len(calls) == len(rows)


def test_a_tabulated_drive_with_close_kinks_passes_the_cross_check(tmp_path, capsys):
    # a piecewise-linear z drive with closely spaced samples, rescaled to
    # exactly two turns; with gamma read off the midpoints the solve
    # integrated, the two routes to beta stay within the cross tolerance
    # at the default 4096 steps; Simpson's rule on fresh nodes misses it
    # by 1.35e-5
    times = np.array([0.0, 4.4839, 4.9637, 5.0202, 5.0375, 6.1029, 6.9643, 6.9804, 8.8799])
    f = np.array([2.0368, 0.7421, 2.137, 0.7437, 1.4795, 0.7817, 2.0684, 1.0836, 2.1673])
    f *= 4 * np.pi / np.sum((f[1:] + f[:-1]) / 2 * np.diff(times))
    sz, sx, sy = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]])
    polar, azimuth = 0.5, 0.7
    n = (np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar))
    raw = scenario(
        system="custom-tabulated",
        params={"steps": 4096},
        schedule={"times": times.tolist(), "matrices": [_pairs(-(fk / 2) * sz) for fk in f]},
        observable=_pairs(-(n[0] * sx + n[1] * sy + n[2] * sz)),
    )
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "t")["residuals"]["cross_check"] < 1e-5


@pytest.mark.parametrize(
    "system, params, message",
    [
        # 64 finite samples with a finite sum, but dt = 15625 times it is not
        (
            "constant-field",
            {"mu_B": 1e305, "phi": 1.0, "T": 1e6, "steps": 64},
            "the integral of the schedule overflows by t=1e+06",
        ),
        # one turn in 16 steps of 64: the sum cancels, dt h overflows
        (
            "rotating-field",
            {"w0": 1e307, "w1": 0.0, "w": 2 * np.pi / 1024, "steps": 16},
            "the step exponential of the schedule overflows at t=32",
        ),
    ],
    ids=["constant", "rotating"],
)
def test_a_schedule_whose_steps_overflow_exits_2(system, params, message, tmp_path, capsys):
    raw = scenario(system=system, params=params, checks=[])
    assert main(["run", write_scenario(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert f"error: ScheduleDomainError: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "t-report.json").exists()


@pytest.mark.parametrize(
    "deck",
    [
        "two-loop.json",
        "tabulated-triangle.json",
        {"checks": ["reparameterization"]},
        {"checks": ["gauge-start"]},
        # lists all three invariance checks
        "constant-field.json",
    ],
    ids=["two-loop", "tabulated-triangle", "reparameterization", "gauge-start", "constant-field"],
)
def test_no_run_loads_numpy_random(deck, tmp_path):
    root = Path(__file__).resolve().parents[1]
    if isinstance(deck, str):
        path = str(root / "demos" / "scenarios" / deck)
    else:
        path = write_scenario(tmp_path, scenario(**deck))
    code = (
        "import sys\n"
        "from obsphase.cli import main\n"
        f"assert main(['run', {path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines()[-1] == "False"
