"""``chaincert/verify.py``, everything ``check`` proves, imports no
construction: read statically, its imports are the standard library and
``matrix`` or ``rings``, never ``resolution``, ``stabilize``, ``io``,
``cli``, ``chain`` or ``_kernels``, and no solver, normal form, rank or
row reduction by name. ``tests/test_check_isolation.py`` checks the same
at run time.
"""

import ast
import sys
from pathlib import Path

from chaincert import verify

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


def test_verify_names_no_construction_module():
    forbidden = {"resolution", "stabilize", "io", "cli", "chain", "_kernels"}
    for node in _imports():
        modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        assert not {m.rsplit(".", 1)[-1] for m in modules if m} & forbidden
