"""``check``'s trusted base, counted: the distinct lines of ``src/chaincert``
that ``chaincert check`` executes on README's three certificates, the
quickstart's Z/2 one, an F_5 one and Z[C_6]'s canonical n = 3 resolution
against ``pad_top(., 1)``.

Each count runs ``cli.main(["check", path])`` under ``sys.settrace`` and
records every line event in a ``chaincert`` source file, with the argument
parser built inside the trace as in a fresh process. The ceilings are the
counts after ``ChainComplex`` became a dataclass (its generated
``__init__`` has no source line; its checks are in ``__post_init__``) and
the tower-rank gate began to count every stored list: lower is better, so
a change that shrinks the base lowers them. ``chain.py`` lends ``check`` only ``ChainComplex``, and
``stabilize.py`` nothing.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import chaincert
from chaincert import cli, io
from chaincert.resolution import canonical_resolution, pad_top
from chaincert.stabilize import total_equivalence

SOURCE = Path(chaincert.__file__).parent

CEILINGS = {"Z/2": 327, "F5": 363, "ZC6": 386}
UNION_CEILING = 503


GENERATED = {  # generate's options and the two seeds, as in README
    "Z/2": (("--ring", "Z", "--module", "Z/2", "--n", "2", "--max-rank", "4"), (7, 8)),
    "F5": (("--ring", "Fp:5", "--module", "dim:2", "--n", "4", "--max-rank", "8"), (1, 2)),
}


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """README's three certificates, written as ``stabilize`` writes them."""
    out = tmp_path_factory.mktemp("trusted")
    paths = {}
    for name, (options, seeds) in GENERATED.items():
        stem = out / name.replace("/", "")
        inputs = [f"{stem}-{seed}.json" for seed in seeds]
        for seed, path in zip(seeds, inputs):
            assert cli.main(["generate", *options, "--seed", str(seed), "--out", path]) == 0
        paths[name] = f"{stem}-cert.json"
        assert cli.main(["stabilize", *inputs, "--out", paths[name]]) == 0
    _, res = canonical_resolution("Z_over_Z[C_6]", 3)
    paths["ZC6"] = str(out / "zc6-cert.json")
    io.save(paths["ZC6"], io.certificate_document(total_equivalence(res, pad_top(res, 1))))
    return paths


def _executed(path: str) -> set[tuple[str, int]]:
    """The (file name, line) pairs of ``src/chaincert`` that ``check`` runs."""
    lines = set()
    root = str(SOURCE)

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        if event == "line":
            lines.add((Path(frame.f_code.co_filename).name, frame.f_lineno))
        return trace

    cli.build_parser.cache_clear()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        code = cli.main(["check", path])
    finally:
        sys.settrace(previous)
    assert code == 0
    return lines


def _functions(module: str, lines) -> set[str]:
    """The qualified names of the innermost functions of ``module`` that
    hold ``lines``."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    spans.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")

    visit(ast.parse((SOURCE / module).read_text()), "")
    return {
        max((s for s in spans if s[0] <= line <= s[1]), default=(0, 0, "<module>"))[2]
        for line in lines
    }


def _by_module(lines) -> dict[str, int]:
    return dict(sorted(Counter(module for module, _ in lines).items()))


@pytest.fixture(scope="module")
def executed(certificates):
    return {name: _executed(path) for name, path in certificates.items()}


@pytest.mark.parametrize("name", list(CEILINGS))
def test_check_executes_at_most_its_ceiling(executed, name):
    lines = executed[name]
    assert len(lines) <= CEILINGS[name], _by_module(lines)


def test_the_union_stays_under_its_ceiling(executed):
    union = set().union(*executed.values())
    assert len(union) <= UNION_CEILING, _by_module(union)


def test_check_builds_no_chain_object(executed):
    union = set().union(*executed.values())
    in_module = {m: {line for name, line in union if name == m} for m in ("chain.py", "stabilize.py")}
    assert _functions("chain.py", in_module["chain.py"]) <= {
        "ChainComplex.__post_init__",
        "ChainComplex.d",
        "ChainComplex.length",
    }
    assert in_module["stabilize.py"] == set()
