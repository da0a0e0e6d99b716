"""Source hygiene of ``src/latsamp``, read with ``ast`` alone (no linter needed):
no import is left unused and no private module-level name is left unreferenced."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "latsamp"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _annotation_names(node):
    """Names inside a string annotation such as ``Optional["PointwiseFunction"]``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from (n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass


def _read_names(tree):
    """Every name the module reads: loaded names and the names in string
    annotations (an attribute ``x.name`` does not read ``name``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                names.update(_annotation_names(ann))
    return names


def _exported(tree):
    """The strings of a module-level ``__all__`` list, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _top_level_imports(tree):
    """``(bound name, line)`` of each module-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _private_definitions(tree):
    """``(name, line)`` of each module-level def, class or assigned name ``_x``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stored = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node.lineno) for target in stored for t in ast.walk(target)
                       if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, line


def _src_references():
    """Every name read anywhere in ``src/``, as a name or an attribute, with
    the names other modules import."""
    names = set()
    for tree in TREES.values():
        names |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _read_names(tree) | _exported(tree)
    unused = [f"{module}:{line} {name}" for name, line in _top_level_imports(tree)
              if name not in used]
    assert not unused, unused


def test_every_private_name_is_referenced():
    referenced = _src_references()
    dead = [f"{module}:{line} {name}" for module, tree in sorted(TREES.items())
            for name, line in _private_definitions(tree) if name not in referenced]
    assert not dead, dead


def test_the_checks_see_what_they_check():
    """A left-behind import and a left-behind private helper are both caught,
    and an attribute of the same name does not hide the import."""
    tree = ast.parse("import os\nfrom math import pi\n\ndef _helper():\n    return np.pi\n")
    used = _read_names(tree) | _exported(tree)
    assert [name for name, _ in _top_level_imports(tree) if name not in used] == ["os", "pi"]
    assert [name for name, _ in _private_definitions(tree)
            if name not in _read_names(tree)] == ["_helper"]
