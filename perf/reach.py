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
benchmark/ names, then every defaulted parameter of a function or method
of src/obsphase that no call in src/obsphase, demos/ or benchmark/ sets
(by position, by keyword or through functools.partial; calls are matched
by the name called), and last the line count of src/obsphase, the number
of defaulted parameters of its functions and methods and the number of
names it exports (AST counts). The outputs go to a temporary directory.
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


def defaulted(tree, stem):
    """(label, called name, position, keyword) of each defaulted parameter
    of a function or method in tree. A method's positions skip self, and
    an __init__ is called by its class's name; a keyword-only parameter
    has no position."""
    owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        called = cls.name if cls and node.name == "__init__" else node.name
        label = f"{stem}.{cls.name}.{node.name}" if cls else f"{stem}.{node.name}"
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield label, called, i - bool(cls), arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield label, called, None, arg.arg


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def set_by_calls(paths):
    """{(called name, position or keyword)} of every argument some call
    passes: f(a, k=b), obj.f(a, k=b) or functools.partial(f, a, k=b); a
    *args stands for every position ("*") and a **kwargs for every
    keyword ("**")."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _called_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = _called_name(func)
            for i, arg in enumerate(args):
                found.add((name, "*" if isinstance(arg, ast.Starred) else i))
            found.update((name, kw.arg or "**") for kw in node.keywords)
    return found


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
    lines = 0
    options = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines += len(source.splitlines())
        options += defaulted(tree, path.stem)
        text = source.splitlines()
        for first, own in sorted(statements(tree)):
            if not any((path, line) in hit for line in own):
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    exported, uncalled = exports()
    for name in sorted(uncalled):
        print(f"exported, with no caller: {name}")
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]
    passed = set_by_calls(callers)
    for label, called, position, keyword in options:
        ways = {keyword, "**"} | ({position, "*"} if position is not None else set())
        if not any((called, way) in passed for way in ways):
            print(f"defaulted, set by no call: {label}({keyword})")
    print(
        f"src/obsphase: {lines} lines, {len(options)} defaulted parameters, "
        f"{len(exported)} exported names"
    )


if __name__ == "__main__":
    main()
