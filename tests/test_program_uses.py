"""Every module-level function, class and constant in src/psm/ is used by the program.

A use is a name, an attribute or an imported name in src/psm/ or in
psmbench's non-test modules, outside the defining statement itself; a
string that spells the name does not count. A definition that only tests
call is a second copy of behaviour the program does not run, so it should
go, and its tests should move onto the code that does run. Dunder names
such as ``__all__`` are read by Python itself and are exempt.

Likewise every defaulted parameter of a function or method in src/psm/ is
passed by some program call, by position, by keyword or by unpacking: a
default no caller overrides is a constant, and belongs in the body.

And a command's text files come from one place: cli's CSV and JSON
writers, the dataset CSV's saver and the two binary formats' savers are the
only functions in src/psm/ that open a file for writing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _program_sources() -> list[tuple[str, str]]:
    bench = [p for p in (ROOT / "psmbench").glob("*.py") if not p.name.startswith("test_")]
    paths = sorted((ROOT / "src" / "psm").glob("*.py")) + sorted(bench)
    return [(str(p.relative_to(ROOT)), p.read_text(encoding="utf-8")) for p in paths]


def _used_names(node: ast.AST, out: set[str]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def, a class or assigned constants."""
    if isinstance(stmt, _DEFS):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _definitions_and_uses(sources=None):
    """Module-level definitions of src/ as {(file, name): statement key}, and
    the names used inside each top-level statement, keyed the same way."""
    defs: dict[tuple[str, str], tuple[str, str]] = {}
    inside: dict[tuple[str, str], set[str]] = {}
    for rel, text in sources if sources is not None else _program_sources():
        for stmt in ast.parse(text).body:
            names: set[str] = set()
            _used_names(stmt, names)
            defined = _defined_names(stmt)
            key = (rel, defined[0] if defined else f"<line {stmt.lineno}>")
            inside.setdefault(key, set()).update(names)
            if rel.startswith("src/"):
                defs.update(((rel, name), key) for name in defined)
    return defs, inside


def _unused(sources=None) -> list[str]:
    defs, inside = _definitions_and_uses(sources)
    return [
        f"{rel}:{name}"
        for (rel, name), own in defs.items()
        if not any(name in names for key, names in inside.items() if key != own)
    ]


def test_every_program_definition_has_a_program_use():
    unused = _unused()
    assert unused == [], f"defined in src/psm/ but used only by tests: {unused}"


def test_the_check_sees_a_use_through_an_attribute():
    # cli.py reaches network.save_checkpoint through the module object
    defs, inside = _definitions_and_uses()
    assert ("src/psm/network.py", "save_checkpoint") in defs
    assert "save_checkpoint" in inside[("src/psm/cli.py", "cmd_pretrain")]


def test_the_check_covers_module_constants():
    defs, _ = _definitions_and_uses()
    assert ("src/psm/network.py", "LAYER_FIELDS") in defs
    assert ("src/psm/__init__.py", "__all__") not in defs
    module = (
        "A = 1\n"
        "B: int = 2\n"
        "C, D = 3, A\n"
        "__all__ = ['f']\n"
        "def f():\n"
        "    return B + C\n"
    )
    assert _unused([("src/m.py", module)]) == ["src/m.py:D", "src/m.py:f"]


# cli.main is the console script's entry point, where argv defaults to
# sys.argv; psmbench and the tests pass argv through a function reference,
# which no call site shows.
_ENTRY_POINTS = {("src/psm/cli.py", "main")}


def _defaulted_parameters(node: ast.AST, cls: ast.ClassDef | None = None):
    """(function, callee name, parameter, positional index or None) for every
    defaulted parameter under ``node``. A method's index skips ``self``, and
    ``__init__`` is called through its class name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, child)
            continue
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _defaulted_parameters(child, cls)
            continue
        args = child.args
        positional = args.posonlyargs + args.args
        bound = cls is not None
        name = cls.name if bound and child.name == "__init__" else child.name
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield child, name, positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield child, name, arg.arg, None
        yield from _defaulted_parameters(child)


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may set ``param``: by keyword, by position or by unpacking."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and index < len(call.args)


def _unpassed(sources=None) -> list[str]:
    trees = [(rel, ast.parse(text)) for rel, text in sources or _program_sources()]
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    return [
        f"{rel}:{name}({param})"
        for rel, tree in trees if rel.startswith("src/")
        for fn, name, param, index in _defaulted_parameters(tree)
        if (rel, fn.name) not in _ENTRY_POINTS
        and not any(_passes(call, param, index) for call in calls.get(name, []))
    ]


def test_every_defaulted_parameter_is_passed_by_the_program():
    unpassed = _unpassed()
    assert unpassed == [], f"defaults no program call overrides (make them constants): {unpassed}"


def test_the_parameter_check_sees_every_way_to_pass():
    module = (
        "def f(x, y=1, *, z=2):\n"
        "    return x\n"
        "class C:\n"
        "    def __init__(self, a, b=0):\n"
        "        pass\n"
        "    def m(self, c=0, d=0):\n"
        "        def inner(e=0):\n"
        "            return e\n"
        "        return inner()\n"
        "f(1, 2)\n"
        "C(1)\n"
        "C(1).m(d=3)\n"
        "g(*[])\n"
    )
    assert _unpassed([("src/m.py", module)]) == [
        "src/m.py:f(z)", "src/m.py:C(b)", "src/m.py:m(c)", "src/m.py:inner(e)",
    ]
    assert _unpassed([("src/m.py", module + "f(0, z=1, **{})\nC(0, *[])\nm(**{})\n")]) == [
        "src/m.py:inner(e)",
    ]


def _opens_for_writing(call: ast.Call) -> bool:
    """An ``open`` whose mode may write (a mode that is not a literal counts),
    or a Path's ``write_text`` or ``write_bytes``."""
    if _callee(call) in ("write_text", "write_bytes"):
        return True
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def _file_writers(sources=None) -> list[str]:
    return sorted(
        f"{rel}:{fn.name}"
        for rel, text in sources or _program_sources() if rel.startswith("src/")
        for fn in ast.walk(ast.parse(text))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, ast.Call) and _opens_for_writing(n) for n in ast.walk(fn))
    )


def test_only_the_writers_open_files_for_writing():
    assert _file_writers() == [
        "src/psm/cli.py:_write_csv",
        "src/psm/cli.py:_write_json",
        "src/psm/data.py:save_csv",
        "src/psm/memory_bank.py:save_bank",
        "src/psm/network.py:save_checkpoint",
    ]


def test_the_writer_check_sees_every_way_to_write():
    module = (
        "def a(p):\n    open(p, 'w')\n"
        "def b(p):\n    open(p, mode='ab')\n"
        "def c(p, m):\n    open(p, m)\n"
        "def d(p):\n    p.write_text('')\n"
        "def e(p):\n    p.write_bytes(b'')\n"
        "def f(p):\n    open(p, 'r+')\n"
        "def g(p):\n    return open(p).read() + open(p, 'rb').read()\n"
        "def h(p):\n    return p.read_text()\n"
    )
    assert _file_writers([("src/m.py", module)]) == [
        "src/m.py:a", "src/m.py:b", "src/m.py:c", "src/m.py:d", "src/m.py:e", "src/m.py:f",
    ]
