"""Every module-level function and class in src/psm/ is used by the program.

A use is a name, an attribute or an imported name in src/psm/ or in
psmbench's non-test modules, outside the definition itself; a string that
spells the name does not count. A definition that only tests call is a
second copy of behaviour the program does not run, so it should go, and
its tests should move onto the code that does run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _program_files() -> list[Path]:
    bench = [p for p in (ROOT / "psmbench").glob("*.py") if not p.name.startswith("test_")]
    return sorted((ROOT / "src" / "psm").glob("*.py")) + sorted(bench)


def _used_names(node: ast.AST, out: set[str]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])


def _definitions_and_uses() -> tuple[list[tuple[str, str]], dict[tuple[str, str], set[str]]]:
    """Module-level definitions as (file, name), and the names used outside each."""
    defs: list[tuple[str, str]] = []
    # names used inside each top-level statement, keyed by (file, defined name)
    inside: dict[tuple[str, str], set[str]] = {}
    for path in _program_files():
        rel = str(path.relative_to(ROOT))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names: set[str] = set()
            _used_names(stmt, names)
            key = (rel, stmt.name if isinstance(stmt, _DEFS) else f"<line {stmt.lineno}>")
            inside.setdefault(key, set()).update(names)
            if isinstance(stmt, _DEFS) and rel.startswith("src/"):
                defs.append(key)
    return defs, inside


def test_every_program_definition_has_a_program_use():
    defs, inside = _definitions_and_uses()
    unused = [
        f"{rel}:{name}"
        for rel, name in defs
        if not any(name in names for key, names in inside.items() if key != (rel, name))
    ]
    assert unused == [], f"defined in src/psm/ but used only by tests: {unused}"


def test_the_check_sees_a_use_through_an_attribute():
    # cli.py reaches network.save_checkpoint through the module object
    defs, inside = _definitions_and_uses()
    assert ("src/psm/network.py", "save_checkpoint") in defs
    assert "save_checkpoint" in inside[("src/psm/cli.py", "cmd_pretrain")]
