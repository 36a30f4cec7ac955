"""Small-scope refusal: every ordered pair of small resolutions that differ
in exactly one of length, ring, presented module or orientation is refused
as an input mismatch, never answered with a certificate or another error.

The pairs come from ``tests/test_small_scope.py``'s enumeration (every F_p
resolution of F_p^dim with ranks at most 2):

* length: F_2 at n = 1 (15 resolutions) against F_2 at n = 2 (58), both
  ways, 1,740 pairs;
* ring: F_2 at n = 1 against F_3 at n = 1 (86), both ways, 2,580 pairs;
* presentation: F_2 at n = 1 against the resolutions of 0 (13) and of
  F_2^2 (18) at n = 1, both ways, 930 pairs;
* orientation: F_2 at n = 2 against the ``dualize``d F_2 at n = 2 (same
  presentation and length, cochain-oriented), both ways, 6,728 pairs.

A fixed sample of each kind also goes through ``main(["stabilize", ...])``
from files: exit 1 and one ``error:`` line, no traceback.
"""

import itertools

import pytest

from chaincert import io
from chaincert.cli import main
from chaincert.resolution import dualize
from chaincert.stabilize import InputMismatchError, total_equivalence

from test_small_scope import _resolutions

SAMPLE_STRIDE = 401  # every 401st pair of each kind goes through the command line


def _both_ways(first, second):
    return [*itertools.product(first, second), *itertools.product(second, first)]


@pytest.fixture(scope="module")
def mismatched():
    """{kind: ordered pairs that differ in exactly that}."""
    f2_1, f2_2 = list(_resolutions(2, 1)), list(_resolutions(2, 2))
    others = [*_resolutions(2, 1, dim=0), *_resolutions(2, 1, dim=2)]
    pairs = {
        "length": _both_ways(f2_1, f2_2),
        "ring": _both_ways(f2_1, list(_resolutions(3, 1))),
        "presentation": _both_ways(f2_1, others),
        "orientation": _both_ways(f2_2, [dualize(res) for res in f2_2]),
    }
    assert {kind: len(p) for kind, p in pairs.items()} == {
        "length": 1740, "ring": 2580, "presentation": 930, "orientation": 6728,
    }
    return pairs


@pytest.mark.parametrize("kind", ["length", "ring", "presentation", "orientation"])
def test_every_mismatched_small_pair_is_refused(mismatched, kind):
    for res_p, res_q in mismatched[kind]:
        with pytest.raises(InputMismatchError):
            total_equivalence(res_p, res_q)


@pytest.mark.parametrize("kind", ["length", "ring", "presentation", "orientation"])
def test_a_mismatched_sample_exits_1_with_one_error_line(mismatched, kind, tmp_path, capsys):
    sample = mismatched[kind][::SAMPLE_STRIDE]
    assert len(sample) >= 3
    for k, pair in enumerate(sample):
        paths = [str(tmp_path / f"{k}-{side}.json") for side in "pq"]
        for path, res in zip(paths, pair):
            io.save(path, io.resolution_document(res))
        capsys.readouterr()
        assert main(["stabilize", *paths]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
