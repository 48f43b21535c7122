"""Static hygiene of the library sources, checked with the standard library's ast.

No linter is a dependency of this project, so the checks that matter after
helpers are deleted or moved live here: no module imports a name it does
not use, no private module-level function or class is left without a
caller, and every public one, and every public method, is either called
from the library or listed as an entry point in the README.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "leaftype"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> set:
    """Every identifier read as a name or an attribute anywhere in tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module):
    """(bound name, line) for each name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    used = _used_names(tree) | _exported(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def _referenced(trees) -> set:
    """Every name the trees read or import."""
    referenced = set()
    for tree in trees:
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def test_every_private_def_has_a_caller():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = _referenced(trees.values())
    orphans = [
        "%s.%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, "private definitions nothing in src/ refers to: %s" % ", ".join(orphans)


def _entry_point_names() -> set:
    """Every identifier in the README section "Library entry points"."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"[A-Za-z_]\w*", section))


def test_every_public_def_has_a_caller_or_is_documented():
    """A public function, class or method is called from src/ (the package
    __init__ only re-exports) or listed in README "Library entry points"."""
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = _entry_point_names() | _referenced(
        tree for name, tree in trees.items() if name != "__init__.py"
    )
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreached = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if node.name not in referenced:
                unreached.append("%s.%s" % (name, node.name))
            if isinstance(node, ast.ClassDef):
                unreached += [
                    "%s.%s.%s" % (name, node.name, m.name)
                    for m in node.body
                    if isinstance(m, defs) and not m.name.startswith("_") and m.name not in referenced
                ]
    assert not unreached, (
        "public definitions that no src/ code calls and README does not list: %s"
        % ", ".join(unreached)
    )
