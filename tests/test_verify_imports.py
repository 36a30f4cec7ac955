"""``chaincert/verify.py``, everything ``check`` proves, imports no
construction: read statically, its imports are the standard library and
``matrix`` or ``rings``, never ``resolution``, ``stabilize``, ``io``,
``cli``, ``chain`` or ``_kernels``, and no solver, normal form, rank or
row reduction by name. ``tests/test_check_isolation.py`` checks the same
at run time.

Nor does the reader ``check`` runs: ``io.load`` and the ``io`` functions it
reaches by name call no construction entry point, as a function or as a
method.
"""

import ast
import sys
from pathlib import Path

from chaincert import io, verify

from test_check_isolation import CONSTRUCTION

SOLVERS = {name for _, name in CONSTRUCTION}


def _imports():
    tree = ast.parse(Path(verify.__file__).read_text())
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_verify_imports_only_the_standard_library_matrix_and_rings():
    own = []
    for node in _imports():
        if isinstance(node, ast.ImportFrom) and node.level:
            own.append(node)
            continue
        modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        assert all(m.split(".")[0] in sys.stdlib_module_names for m in modules), modules
    assert own, "verify imports matrix arithmetic"
    for node in own:
        assert node.level == 1 and node.module in ("matrix", "rings"), node.module
        names = {alias.name for alias in node.names}
        assert not names & SOLVERS, names & SOLVERS


def test_verify_imports_exactly_three_names_from_matrix():
    """Matrices, the identity test and 1 + X: nothing that knows how a ring
    stores its entries, such as ``_buffer``'s byte lanes."""
    names = [
        alias.name
        for node in _imports()
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "matrix"
        for alias in node.names
    ]
    assert sorted(names) == ["Matrix", "_is_identity", "_one_plus"]


def test_verify_names_no_construction_module():
    forbidden = {"resolution", "stabilize", "io", "cli", "chain", "_kernels"}
    for node in _imports():
        modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        assert not {m.rsplit(".", 1)[-1] for m in modules if m} & forbidden


READER = [
    "load",
    "_lift_digit_matrices",
    "_parse_json",
    "_from_document",
    "certificate_from_json",
    "matrix_from_json",
    "_digit_matrix",
]


def _called(node) -> set[str]:
    """The names ``node`` calls: a bare name, or a method's attribute."""
    calls = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)]
    names = {f.id for f in calls if isinstance(f, ast.Name)}
    return names | {f.attr for f in calls if isinstance(f, ast.Attribute)}


def test_the_reader_check_runs_calls_no_construction():
    tree = ast.parse(Path(io.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(READER) <= set(functions)
    seen, todo = set(), list(READER)
    while todo:  # the reader functions and every io function they call by name
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        called = _called(functions[name])
        assert not called & SOLVERS, (name, called & SOLVERS)
        todo += called & set(functions)
    assert {"resolution_from_json", "ring_from_json", "_complex_from_json"} <= seen
