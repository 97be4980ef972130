"""No dead imports, no orphaned private helpers and no unread result fields in the package sources."""

import ast
import dataclasses
from pathlib import Path

import pytest

import sparse_noma
from sparse_noma.baselines import SweepTable
from sparse_noma.capacity import CapacityResult, MmseError
from sparse_noma.montecarlo import EmpiricalSpectrum, McEstimate
from sparse_noma.spectral import StieltjesValue

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


@pytest.mark.parametrize("record,names", [
    (CapacityResult, ("spectral_efficiency",)),
    (MmseError, ("m1", "sinr")),
    (StieltjesValue, ("m_inner", "m_outer")),
    (McEstimate, ("estimate", "stderr", "trials", "samples")),
    (EmpiricalSpectrum, ("eigenvalues", "driver")),
    (SweepTable, ("points", "d")),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_result_records_hold_what_the_call_computed(record, names):
    # a record's arguments stay with the caller; each field here has a reader
    assert tuple(f.name for f in dataclasses.fields(record)) == names


def _scipy_import_sites(nodes, scope=()):
    """The dotted scope of every scipy import among nodes: enclosing classes, functions and `if TYPE_CHECKING:` blocks."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(m.split(".")[0] == "scipy" for m in modules):
                yield ".".join(scope)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_import_sites(ast.iter_child_nodes(node), scope + (node.name,))
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _scipy_import_sites(node.body, scope + ("TYPE_CHECKING",))
            yield from _scipy_import_sites(node.orelse, scope)
        else:
            yield from _scipy_import_sites(ast.iter_child_nodes(node), scope)


def test_scipy_is_imported_only_for_to_sparse():
    # numpy is the one runtime dependency of every route; scipy.sparse builds the public CSC view
    sites = {f"{name}:{site}" for name, tree in TREES.items() for site in _scipy_import_sites(tree.body)}
    assert sites == {"montecarlo.py:TYPE_CHECKING", "montecarlo.py:SignatureMatrix.to_sparse"}
