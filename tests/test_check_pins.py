"""The v1 check lists, pinned: names, verdicts, count and order.

``verify_certificate`` on one certificate each over Z, F_5, F_2[C_4] and
Z[S_3] (the pairs of ``tests/test_check_isolation.py``), valid and with
one block entry bumped, and ``validate_resolution`` on one input of each.
Any change to how the checks are built must leave these lists as they are.
"""

import pytest

from chaincert.resolution import validate_resolution
from chaincert.stabilize import total_equivalence, verify_certificate

from test_check_isolation import PAIRS, _bumped

LENGTH_3 = [
    "first complex: d1.d2 = 0",
    "first complex: d2.d3 = 0",
    "second complex: d1.d2 = 0",
    "second complex: d2.d3 = 0",
    "forward map: square at degree 1",
    "forward map: square at degree 2",
    "forward map: square at degree 3",
    "backward map: square at degree 1",
    "backward map: square at degree 2",
    "backward map: square at degree 3",
    "source homotopy: homotopy identity at degree 0",
    "source homotopy: homotopy identity at degree 1",
    "source homotopy: homotopy identity at degree 2",
    "source homotopy: homotopy identity at degree 3",
    "target homotopy: homotopy identity at degree 0",
    "target homotopy: homotopy identity at degree 1",
    "target homotopy: homotopy identity at degree 2",
    "target homotopy: homotopy identity at degree 3",
    "tower rank recursion",
    "block pair mutually inverse at degree 0",
    "block pair mutually inverse at degree 1",
    "block pair mutually inverse at degree 2",
    "block pair mutually inverse at degree 3",
]

LENGTH_2 = [
    "first complex: d1.d2 = 0",
    "second complex: d1.d2 = 0",
    "forward map: square at degree 1",
    "forward map: square at degree 2",
    "backward map: square at degree 1",
    "backward map: square at degree 2",
    "source homotopy: homotopy identity at degree 0",
    "source homotopy: homotopy identity at degree 1",
    "source homotopy: homotopy identity at degree 2",
    "target homotopy: homotopy identity at degree 0",
    "target homotopy: homotopy identity at degree 1",
    "target homotopy: homotopy identity at degree 2",
    "tower rank recursion",
    "block pair mutually inverse at degree 0",
    "block pair mutually inverse at degree 1",
    "block pair mutually inverse at degree 2",
]

CERTIFICATE_CHECKS = {"Z": LENGTH_3, "F5": LENGTH_3, "F2C4": LENGTH_3, "ZS3": LENGTH_2}

RESOLUTION_CHECKS = {
    3: [
        "d1.d2 = 0",
        "d2.d3 = 0",
        "augmentation kills the first boundary",
        "augmentation surjective onto the module",
        "exact at degree 1",
        "exact at degree 2",
        "exact at degree 0",
    ],
    2: [
        "d1.d2 = 0",
        "augmentation kills the first boundary",
        "augmentation surjective onto the module",
        "exact at degree 1",
        "exact at degree 0",
    ],
}


@pytest.mark.parametrize("bump", [False, True], ids=["valid", "bumped"])
@pytest.mark.parametrize("ring", list(PAIRS))
def test_certificate_check_list_is_pinned(ring, bump):
    cert = total_equivalence(*PAIRS[ring]())
    failing = set()
    if bump:
        cert = _bumped(cert)
        failing = {"block pair mutually inverse at degree 0"}
    checks = [(c.name, c.ok) for c in verify_certificate(cert).checks]
    assert checks == [(name, name not in failing) for name in CERTIFICATE_CHECKS[ring]]


@pytest.mark.parametrize("ring", list(PAIRS))
def test_resolution_check_list_is_pinned(ring):
    res = PAIRS[ring]()[0]
    assert [c.name for c in validate_resolution(res).checks] == RESOLUTION_CHECKS[res.length]
