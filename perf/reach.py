"""Which statements of src/obsphase the pipeline's entries reach: a
report, not a gate.

    python perf/reach.py

Runs, under the stdlib line tracer, `obsphase run` on the 5 demo decks
(demos/scenarios/), a 3-point `obsphase sweep` of the constant-field
deck over phi, and the 3 demo scripts (demos/*.py). obsphase is first
imported inside the traced call, so its import-time statements count as
reached. Prints every statement of src/obsphase that none of them
reached, leaving out `raise` statements and docstrings, then every name
that obsphase exports and no module of src/obsphase, demos/ or
benchmark/ names, and last the line count of src/obsphase, the number of
defaulted parameters of its functions and the number of names it
exports (AST counts). The outputs go to a temporary directory.
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "obsphase"
DECKS = sorted((ROOT / "demos" / "scenarios").glob("*.json"))
SCRIPTS = sorted((ROOT / "demos").glob("*.py"))
SWEEP = ["--param", "phi", "--range", "0.5:2.5:3"]


def entries(out):
    """Every entry point the report traces, run once each."""
    import obsphase.cli as cli

    for deck in DECKS:
        if cli.main(["run", str(deck), "--out", out]) != 0:
            raise SystemExit(f"obsphase run {deck.name} failed")
    sweep_deck = str(ROOT / "demos" / "scenarios" / "constant-field.json")
    if cli.main(["sweep", sweep_deck, *SWEEP, "--out", out]) != 0:
        raise SystemExit("obsphase sweep failed")
    for script in SCRIPTS:
        runpy.run_path(str(script), run_name="__main__")


def statements(tree):
    """(first line, lines) of each statement that is neither a raise nor a
    docstring; a compound statement owns its header lines only."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Raise, ast.Try)):
            continue
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if docstring and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield first, range(first, max(first, last) + 1)


def defaulted_parameters(tree):
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def names_used(path):
    """Every name a module loads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


def exports():
    """(every name obsphase/__init__.py imports, those of them that no
    other module of src/obsphase, demos/ or benchmark/ names)."""
    init = PACKAGE / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    callers = [p for p in PACKAGE.glob("*.py") if p != init]
    callers += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]
    return exported, exported - set().union(*map(names_used, callers))


def main():
    sys.path[:0] = [str(ROOT / "src")]
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        tracer.runfunc(entries, out)
    hit = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    lines = defaults = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines += len(source.splitlines())
        defaults += defaulted_parameters(tree)
        text = source.splitlines()
        for first, own in sorted(statements(tree)):
            if not any((path, line) in hit for line in own):
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    exported, uncalled = exports()
    for name in sorted(uncalled):
        print(f"exported, with no caller: {name}")
    print(
        f"src/obsphase: {lines} lines, {defaults} defaulted parameters, "
        f"{len(exported)} exported names"
    )


if __name__ == "__main__":
    main()
