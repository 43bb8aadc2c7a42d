"""Spans and counts at obsphase's module boundaries, for traced runs.

The wrappers replace the names one module uses to call into another
(for example ``obsphase.cli.solve`` or ``obsphase.phases.dynamical_phase``),
so every span starts where control crosses a layer. Spans and counts
stay in memory and are written out once, when the run ends.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time
import types
from collections import Counter

# per-layer figures read from spans: metric -> (how, span names)
SPAN_FIGURES = {
    "cli.validate_s": ("total", ("cli.validate_scenario",)),
    "cli.run_self_s": ("self", ("cli.run_scenario",)),
    "cli.sweep_self_s": ("self", ("cli.sweep_scenario",)),
    "linalg.expm_skew_many_s": ("total", ("linalg.expm_skew_many",)),
    "propagation.solve_self_s": ("self", ("propagation.solve",)),
    "phases.detect_cyclic_s": ("total", ("phases.detect_cyclic",)),
    "phases.dynamical_phase_s": ("total", ("phases.dynamical_phase",)),
    "bundle.lift_s": ("total", ("bundle.lift_from_propagator", "bundle.horizontal_lift")),
    "bundle.holonomy_s": ("total", ("bundle.holonomy",)),
    "obspace.distance_DW_s": ("total", ("obspace.distance_DW",)),
    "gates.two_loop_protocol_s": ("total", ("gates.two_loop_protocol",)),
}
# per-layer counts: metric -> span name whose calls are counted, or None
# when a wrapper adds to the counter itself
COUNT_FIGURES = {
    "cli.bytes_written": None,
    "hamiltonians.eval_calls": None,
    "linalg.step_exponentials": None,
    "propagation.solve_calls": "propagation.solve",
    "propagation.steps": None,
    "phases.dynamical_phase_calls": "phases.dynamical_phase",
    "bundle.lift_calls": "bundle.lift_from_propagator",
    "obspace.minimize_calls": "obspace.minimize",
    "obspace.objective_evals": None,
}


class Tracer:
    """Nested spans (name, start, end, parent, operation) and counters.

    One process, one thread: spans nest strictly, so a span's children
    never overlap and its self time is its length minus theirs. Calls
    too frequent for a span each (``HamiltonianSchedule.eval``) are
    leaves: they add to a counter and to the enclosing span's child time.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, leaf_s]
        self.open = []
        self.counts = Counter()
        self.op = 0

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.open)

    def span(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.open[-1] if self.open else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0])
            self.open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.open.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    def leaf(self, name, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.counts[name + "_calls"] += 1
                self.counts[name + "_s"] += dt
                if self.open:
                    self.spans[self.open[-1]][5] += dt

        return traced

    def mark(self):
        return len(self.spans), Counter(self.counts)

    def round_figures(self, begin, end):
        """Per-layer figures of the spans and counts between two marks.
        Every figure is given; a layer the round does not enter reads 0."""
        (i0, c0), (i1, c1) = begin, end
        spans = self.spans[i0:i1]
        child = Counter()
        for name, start, stop, parent, _, _ in spans:
            child[parent] += stop - start
        total, own, calls = Counter(), Counter(), Counter()
        for k, (name, start, stop, _, _, leaf_s) in enumerate(spans, start=i0):
            total[name] += stop - start
            own[name] += stop - start - child[k] - leaf_s
            calls[name] += 1
        counts = c1 - c0
        out = {}
        for metric, (how, names) in SPAN_FIGURES.items():
            src = own if how == "self" else total
            out[metric] = float(sum(src[n] for n in names))
        out["hamiltonians.eval_s"] = float(counts["hamiltonians.eval_s"])
        for metric, name in COUNT_FIGURES.items():
            out[metric] = calls[name] if name else counts[metric]
        out["propagation.solves_per_report"] = (
            counts["cli.report_solves"] / counts["cli.evolving_runs"]
            if counts["cli.evolving_runs"] else 0.0
        )
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "leaf_s"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                f,
            )


def _count_run(tracer, paths, sc, *args, **kwargs):
    tracer.counts["cli.bytes_written"] += sum(os.path.getsize(p) for p in paths)
    if sc["system"] != "two-qubit-cnot":
        tracer.counts["cli.evolving_runs"] += 1


def _count_solve(tracer, p, h, *args, **kwargs):
    tracer.counts["propagation.steps"] += p.steps
    # a solve of the report's own problem inside a run; the quadratic
    # warp of the reparameterization check is a different problem
    if tracer.inside("cli.run_scenario") and h.kind != "Warped":
        tracer.counts["cli.report_solves"] += 1


def _count_exponentials(tracer, result, *args, **kwargs):
    tracer.counts["linalg.step_exponentials"] += len(result)


def _count_minimize(tracer, result, *args, **kwargs):
    tracer.counts["obspace.objective_evals"] += int(result.nfev)


def install(tracer):
    """Wrap every cross-module call site the workloads reach."""
    import obsphase.cli as cli
    import obsphase.gates as gates
    import obsphase.obspace as obspace
    import obsphase.phases as phases
    import obsphase.propagation as propagation
    from obsphase.hamiltonians import HamiltonianSchedule

    def wrap(module, attr, name, count=None):
        setattr(module, attr, tracer.span(name, getattr(module, attr), count))

    wrap(cli, "validate_scenario", "cli.validate_scenario")
    wrap(cli, "run_scenario", "cli.run_scenario", _count_run)
    wrap(cli, "sweep_scenario", "cli.sweep_scenario")
    wrap(cli, "two_loop_protocol", "gates.two_loop_protocol")
    for module in (cli, gates, propagation):
        wrap(module, "solve", "propagation.solve", _count_solve)
    for module in (cli, gates, phases):
        wrap(module, "geometric_phases", "phases.geometric_phases")
    for module in (cli, phases):
        wrap(module, "detect_cyclic", "phases.detect_cyclic")
        wrap(module, "lift_from_propagator", "bundle.lift_from_propagator")
        wrap(module, "horizontal_lift", "bundle.horizontal_lift")
        wrap(module, "holonomy", "bundle.holonomy")
    wrap(phases, "dynamical_phase", "phases.dynamical_phase")
    wrap(propagation, "expm_skew_many", "linalg.expm_skew_many", _count_exponentials)
    wrap(obspace, "distance_DW", "obspace.distance_DW")
    # scipy.optimize.minimize as obspace reaches it, without touching scipy
    minimize = tracer.span("obspace.minimize", obspace.scipy.optimize.minimize, _count_minimize)
    obspace.scipy = types.SimpleNamespace(optimize=types.SimpleNamespace(minimize=minimize))
    HamiltonianSchedule.eval = tracer.leaf("hamiltonians.eval", HamiltonianSchedule.eval)


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(env, runs=3):
    """Cumulative import time of obsphase and of scipy.optimize, in s,
    from ``-X importtime`` in fresh interpreters; medians over runs."""
    seen = {"obsphase": [], "scipy.optimize": []}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import obsphase"],
            env=env, capture_output=True, text=True, check=True,
        )
        found = dict.fromkeys(seen, 0.0)
        for cumulative, module in _IMPORT_LINE.findall(proc.stderr):
            if module in found:
                found[module] = int(cumulative) * 1e-6
        for module, value in found.items():
            seen[module].append(value)
    return {
        "import.obsphase_s": statistics.median(seen["obsphase"]),
        "import.scipy_optimize_s": statistics.median(seen["scipy.optimize"]),
    }
