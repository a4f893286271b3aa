"""Every module-level function, class and constant in src/psm/ is used by the program.

A use is a name, an attribute or an imported name in src/psm/ or in
psmbench's non-test modules, outside the defining statement itself; a
string that spells the name does not count. A definition that only tests
call is a second copy of behaviour the program does not run, so it should
go, and its tests should move onto the code that does run. Dunder names
such as ``__all__`` are read by Python itself and are exempt.
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
