"""Small-scope completeness at a scope too large for the tier-1 suite.

Every F_2 resolution of F_2 (one generator, no relations) of length 3 with
ranks at most 2, as ``test_small_scope`` enumerates them: 220 resolutions.
Each of the 48,400 ordered pairs must get a certificate from
``total_equivalence`` that ``verify_certificate`` accepts. Run it from the
repository root:

    PYTHONPATH=src python tests/large_scope.py

It prints the counts and exits 1 when the number of resolutions is not 220
or when any pair fails to build or is refused. The name does not start
with ``test_``, so pytest does not collect it.
"""

import itertools
import sys
import time

from test_small_scope import _resolutions

from chaincert.stabilize import StabilizeError, total_equivalence, verify_certificate

P, N, COUNT = 2, 3, 220


def main() -> int:
    start = time.perf_counter()
    resolutions = list(_resolutions(P, N))
    failed = []
    for (i, a), (j, b) in itertools.product(enumerate(resolutions), repeat=2):
        try:
            ok = verify_certificate(total_equivalence(a, b)).ok
        except StabilizeError as exc:
            ok = False
            print(f"pair ({i}, {j}): {exc}")
        if not ok:
            failed.append((i, j))
    pairs = len(resolutions) ** 2
    print(
        f"F_{P}, n = {N}, ranks <= 2: {len(resolutions)} resolutions (want {COUNT}), "
        f"{pairs} ordered pairs, {len(failed)} refused, {time.perf_counter() - start:.1f} s"
    )
    if failed:
        print("refused pairs:", failed[:20])
    return 0 if len(resolutions) == COUNT and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
