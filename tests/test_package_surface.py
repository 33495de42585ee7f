"""Guards on the package's public surface.

Every public module-level function and class in ``src/mcvd`` is used by the
program, not only by the tests.

A name counts as used when it is referenced in a package module other than
``__init__.py`` (outside an ``__all__`` list and outside its own
definition), or anywhere in the benchmark under ``perfbench/``, which also
patches package names given as strings. Checks that only the tests call
belong in a helper under ``tests/`` (see ``tests/checks.py``).

Every name ``mcvd/__init__.py`` re-exports is in its module's ``__all__``,
and every ``__all__`` entry names something the module defines.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcvd"
BENCHMARK = ROOT / "perfbench"


def public_definitions() -> dict[str, str]:
    """Public module-level function and class names -> defining module."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs[node.name] = path.stem
    return defs


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Names and attributes read under ``node``; with ``strings``, also the
    names it imports and its string constants."""
    out: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        elif isinstance(child, ast.alias) and strings:
            out.add(child.name.rsplit(".", 1)[-1])
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            out.add(child.value)
    return out


def program_references() -> set[str]:
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if _is_all(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            # a class or function naming itself inside its body is no use of it
            used |= _names(node) - {getattr(node, "name", None)}
    for path in sorted(BENCHMARK.glob("*.py")):
        used |= _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    return used


def test_no_public_name_is_used_only_by_tests():
    used = program_references()
    unused = sorted(f"{module}.{name}" for name, module in public_definitions().items()
                    if name not in used)
    assert unused == [], (
        f"not used by the program, only (if at all) by the tests: {unused}; "
        "move such checks to a helper under tests/")


def module_all(module: str) -> list[str]:
    for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        if _is_all(node):
            return ast.literal_eval(node.value)
    raise AssertionError(f"mcvd.{module} has no __all__")


def test_reexported_names_are_in_their_modules_all():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    missing = sorted(f"{node.module}.{alias.name}" for node in init.body
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for alias in node.names if alias.name not in module_all(node.module))
    assert missing == [], f"re-exported by mcvd but not in their module's __all__: {missing}"


def test_every_all_entry_exists():
    absent = sorted(f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                    if path.name != "__init__.py"
                    for name in module_all(path.stem)
                    if not hasattr(importlib.import_module(f"mcvd.{path.stem}"), name))
    assert absent == [], f"listed in __all__ but not defined: {absent}"
