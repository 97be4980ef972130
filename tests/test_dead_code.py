"""No dead imports and no orphaned private helpers in the package sources."""

import ast
from pathlib import Path

import pytest

import sparse_noma

SOURCES = sorted(
    p for p in Path(sparse_noma.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}


def _referenced(tree):
    """Every identifier a module reads: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    # an attribute chain such as np.linalg reads its root as a name
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    read |= _exported(tree)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    unused = [b for b in bound if b not in read]
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_definition_is_named_elsewhere():
    referenced = set().union(*(_referenced(tree) for tree in TREES.values()))
    orphans = [
        f"{name}:{definition}"
        for name, tree in TREES.items()
        for definition in _private_definitions(tree)
        if definition.startswith("_") and not definition.startswith("__")
        and definition not in referenced
    ]
    assert not orphans, f"private definitions nothing names: {orphans}"
