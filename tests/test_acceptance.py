"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is budgeted to finish in well under a minute.
"""

import itertools
import json
import math
import random
import time

import pytest

from conftest import invariant_factors_by_minors, s3_resolution
from chaincert import io
from chaincert.chain import (
    dualize_complex,
    dualize_equivalence,
    homology_invariants,
)
from chaincert.cli import main
from chaincert.matrix import Matrix, hnf, snf, solve
from chaincert.resolution import (
    ModulePresentation,
    TruncatedResolution,
    canonical_resolution,
    dualize,
    generate_resolution,
    pad_top,
    presentation_invariants,
    validate_resolution,
)
from chaincert.rings import ZZ, PrimeField
from chaincert.stabilize import (
    LiftError,
    build_ladder_maps,
    inverse_pair,
    ladder_ranks,
    schanuel_check,
    total_equivalence,
    verify_certificate,
)
from chaincert.chain import ChainComplex

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def _recheck_via_file_format(cert):
    """The checker's code path: serialize, reparse, re-verify raw matrices."""
    doc = json.loads(io.dump_canonical(io.certificate_to_json(cert)))
    return verify_certificate(io.certificate_from_json(doc))


def test_criterion_1_pipeline_end_to_end(acceptance_certificates, tmp_path):
    """200 randomized pairs over F2, F5, Z with n in 1..4 and ranks <= 5:
    the pipeline succeeds and the file checker re-verifies everything."""
    start = time.time()
    assert len(acceptance_certificates) == 200
    for idx, (ring_label, _pair, cert) in enumerate(acceptance_certificates):
        report = _recheck_via_file_format(cert)
        assert report.ok, f"case {idx} over {ring_label}: {report.first_failure}"
    # a sample goes through the actual command-line checker
    for idx in (0, 57, 121, 199):
        path = tmp_path / f"cert{idx}.json"
        path.write_text(io.dump_canonical(io.certificate_to_json(acceptance_certificates[idx][2])))
        assert main(["check", str(path)]) == 0
    elapsed = time.time() - start
    print(f"\nPASS: criterion 1 (200 certificates re-checked, {elapsed:.1f}s re-check time)")


def test_criterion_2_block_identity_in_isolation():
    """1000 random compatible pairs over Z and F3 (dims <= 6):
    h k = k h = 1 exactly."""
    rng = random.Random(2)
    for case in range(1000):
        ring = ZZ if case % 2 == 0 else F3
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        if ring is ZZ:
            f = Matrix(ring, b, a, [rng.randint(-9, 9) for _ in range(a * b)])
            g = Matrix(ring, a, b, [rng.randint(-9, 9) for _ in range(a * b)])
        else:
            f = Matrix(ring, b, a, [rng.randrange(3) for _ in range(a * b)])
            g = Matrix(ring, a, b, [rng.randrange(3) for _ in range(a * b)])
        h, k = inverse_pair(f, g)
        ident = Matrix.identity(ring, a + b)
        assert h * k == ident and k * h == ident
    print("\nPASS: criterion 2 (1000 block pairs mutually inverse)")


def test_criterion_3_rank_recursion_and_euler():
    """Random rank vectors (n <= 6) satisfy the recursion and the Euler
    characteristics of the two stabilized complexes agree; spot value
    p=(1,1,1), q=(2,1,1) gives T=(1,3,3), S=(2,2,4), chi=5."""
    t, s = ladder_ranks([1, 1, 1], [2, 1, 1])
    assert (t, s) == ([1, 3, 3], [2, 2, 4])
    assert 1 - 1 + (1 + s[2]) == 5
    assert 2 - 1 + (1 + t[2]) == 5

    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(0, 6)
        p = [rng.randint(0, 5) for _ in range(n + 1)]
        q = [rng.randint(0, 5) for _ in range(n + 1)]
        t, s = ladder_ranks(p, q)
        for i in range(1, n + 1):
            assert t[i] == s[i - 1] + p[i]
            assert s[i] == t[i - 1] + q[i]
        chi_p = sum((-1) ** i * r for i, r in enumerate(p)) + (-1) ** n * s[n]
        chi_q = sum((-1) ** i * r for i, r in enumerate(q)) + (-1) ** n * t[n]
        assert chi_p == chi_q
    print("\nPASS: criterion 3 (rank recursion and Euler characteristic)")


def test_criterion_4_generalized_schanuel(acceptance_certificates):
    """Every criterion-1 certificate: homology invariants agree in every
    degree, and degree 0 equals the presented module's invariants."""
    for idx, (ring_label, _pair, cert) in enumerate(acceptance_certificates):
        n = cert.source.length
        module_inv = presentation_invariants(cert.presentation)
        for i in range(n + 1):
            inv_src = homology_invariants(cert.source, i)
            inv_tgt = homology_invariants(cert.target, i)
            assert inv_src == inv_tgt, f"case {idx} degree {i} over {ring_label}"
            if i == 0:
                assert inv_src == module_inv, f"case {idx} H0 vs module"
        assert schanuel_check(cert).ok
    print("\nPASS: criterion 4 (homology comparison on all 200 certificates)")


def test_criterion_5_group_rings(tmp_path):
    """Canonical cyclic resolutions vs padded variants over Z[C_2] and
    Z[C_3] at n = 2, 3, plus a validated resolution over the nonabelian
    Z[S_3]: certificates pass the file checker and restricted homology
    agrees degreewise."""
    cases = []
    for name in ("Z_over_Z[C_2]", "Z_over_Z[C_3]"):
        for n in (2, 3):
            _, res = canonical_resolution(name, n)
            cases.append((f"{name} n={n}", res, pad_top(res, 1)))

    s3 = s3_resolution()
    assert validate_resolution(s3).ok, "user-supplied nonabelian input validates first"
    cases.append(("Z[S3] n=2", s3, pad_top(s3, 1)))

    for label, res_p, res_q in cases:
        cert = total_equivalence(res_p, res_q)
        report = _recheck_via_file_format(cert)
        assert report.ok, f"{label}: {report.first_failure}"
        path = tmp_path / f"{abs(hash(label))}.json"
        path.write_text(io.dump_canonical(io.certificate_to_json(cert)))
        assert main(["check", str(path)]) == 0, label
        comparison = schanuel_check(cert)
        assert comparison.ok, f"{label}: {comparison.first_failure}"
    print(f"\nPASS: criterion 5 ({len(cases)} group-ring certificates incl. S3)")


def test_criterion_6_duality_field_case():
    """50 random truncated injective resolutions (dualized projective ones)
    over prime fields: the dualize -> stabilize -> dualize pipeline gives
    verified equivalences of the cochain complexes with their final modules
    stabilized, and dualizing twice is the identity bit for bit."""
    rng = random.Random(6)
    fields = [F2, F3, F5]
    for case in range(50):
        field = fields[case % 3]
        n = rng.randint(1, 3)
        dim = rng.randint(0, 2)
        pres = ModulePresentation(field, dim, Matrix(field, dim, 0, ()))
        res_p = generate_resolution(pres, n=n, max_rank=4, seed=rng.randrange(2**30))
        res_q = generate_resolution(pres, n=n, max_rank=4, seed=rng.randrange(2**30))

        cochain_i = dualize(res_p)
        cochain_j = dualize(res_q)
        assert validate_resolution(cochain_i).ok
        # bit-for-bit involution at the file level
        doc = io.dump_canonical(io.resolution_to_json(res_p))
        double = io.dump_canonical(io.resolution_to_json(dualize(dualize(res_p))))
        assert doc == double

        # the pipeline on the chain side, transported to the cochain side
        cert = total_equivalence(dualize(cochain_i), dualize(cochain_j))
        dual_eq = dualize_equivalence(cert)
        assert dual_eq.validate().ok
        assert dual_eq.source == dualize_complex(cert.source)

        # the dual complexes are the cochain inputs with their final
        # modules stabilized: identical above degree 0, grown at degree 0
        stab = dual_eq.source
        plain = cochain_i.complex
        added = cert.s_ranks[-1]
        assert stab.ranks[0] == plain.ranks[0] + added
        assert stab.ranks[1:] == plain.ranks[1:]
        for j in range(2, n + 1):
            assert stab.d(j) == plain.d(j)
    print("\nPASS: criterion 6 (50 dual pipelines, involution bit-exact)")


def _matrix_sites(doc):
    """All (kind, degree, matrix, rows, cols) JSON nodes of a certificate
    document that carry verification-relevant entries."""
    pay = doc["payload"]
    sites = []
    for side in ("source", "target"):
        ranks = [int(r) for r in pay[side]["ranks"]]
        n = len(ranks) - 1
        for pos, mat in enumerate(pay[side]["boundaries"]):
            i = n - pos  # stored top first
            sites.append((f"{side}.boundary", i, mat, ranks[i - 1], ranks[i]))
    src_ranks = [int(r) for r in pay["source"]["ranks"]]
    tgt_ranks = [int(r) for r in pay["target"]["ranks"]]
    n = len(src_ranks) - 1
    for i, mat in enumerate(pay["forward"]):
        sites.append(("forward", i, mat, tgt_ranks[i], src_ranks[i]))
    for i, mat in enumerate(pay["backward"]):
        sites.append(("backward", i, mat, src_ranks[i], tgt_ranks[i]))
    for i, mat in enumerate(pay["source_homotopy"]):
        sites.append(("source_homotopy", i, mat, src_ranks[i + 1], src_ranks[i]))
    for i, mat in enumerate(pay["target_homotopy"]):
        sites.append(("target_homotopy", i, mat, tgt_ranks[i + 1], tgt_ranks[i]))
    t_ranks = [int(r) for r in pay["tower_ranks"]["t"]]
    s_ranks = [int(r) for r in pay["tower_ranks"]["s"]]
    for i, mat in enumerate(pay["block_isomorphisms"]["forward"]):
        sites.append(("iso", i, mat, s_ranks[i] + t_ranks[i], t_ranks[i] + s_ranks[i]))
    for i, mat in enumerate(pay["block_isomorphisms"]["backward"]):
        sites.append(("iso", i, mat, t_ranks[i] + s_ranks[i], s_ranks[i] + t_ranks[i]))
    return [(k, d, m, r, c) for (k, d, m, r, c) in sites if r > 0 and c > 0]


def _bump_entry(doc, mat, i, j):
    ring_name = doc["ring"]
    cell = mat[i][j]
    if ring_name == "Z":
        mat[i][j] = str(int(cell) + 1)
    elif ring_name.startswith("Fp:"):
        p = int(ring_name[3:])
        mat[i][j] = str((int(cell) + 1) % p)
    else:
        raise AssertionError("mutation helper covers Z and prime fields")


def _homotopy_slack(doc, kind, degree, u, v):
    """A homotopy component from degree i to i+1 enters exactly two
    identities, both through the boundary between those degrees; bumping
    entry (u, v) preserves both identities iff column u and row v of that
    boundary vanish. Such a bump yields a different but equally valid
    witness, which a validity-based checker must accept."""
    side = "source" if kind == "source_homotopy" else "target"
    ranks = [int(r) for r in doc["payload"][side]["ranks"]]
    n = len(ranks) - 1
    boundary = doc["payload"][side]["boundaries"][n - (degree + 1)]
    col_zero = all(row[u] == "0" for row in boundary)
    row_zero = all(x == "0" for x in boundary[v])
    return col_zero and row_zero


def test_criterion_7_negative_controls(acceptance_certificates):
    """100 random identity-breaking single-entry mutations of valid
    certificates are all rejected; mutations inside a homotopy witness's
    provable slack directions are accepted precisely because the mutated
    file is still a valid certificate (the checker's contract is validity,
    as the accepted reversed certificate shows); a non-exact input fails
    with a lift diagnostic naming a degree."""
    rng = random.Random(7)
    rejected = 0
    slack_accepted = 0
    trials = 0
    while rejected < 100:
        trials += 1
        assert trials < 1000, "mutation draw budget exhausted"
        _, _, cert = acceptance_certificates[rng.randrange(len(acceptance_certificates))]
        doc = json.loads(io.dump_canonical(io.certificate_to_json(cert)))
        sites = _matrix_sites(doc)
        kind, degree, mat, rows, cols = sites[rng.randrange(len(sites))]
        u, v = rng.randrange(rows), rng.randrange(cols)
        slack = kind.endswith("_homotopy") and _homotopy_slack(doc, kind, degree, u, v)
        _bump_entry(doc, mat, u, v)
        try:
            mutated = io.certificate_from_json(doc)
        except io.MalformedFileError:
            assert not slack
            rejected += 1
            continue
        ok = verify_certificate(mutated).ok
        if slack:
            assert ok, "a slack-direction bump must still verify"
            slack_accepted += 1
        else:
            assert not ok, f"undetected mutation of {kind} at degree {degree} ({u},{v})"
            rejected += 1
    assert rejected == 100

    pres = ModulePresentation(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    bad = TruncatedResolution(
        pres,
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[4]])]),
        Matrix.identity(ZZ, 1),
    )
    good = TruncatedResolution(
        pres,
        ChainComplex(ZZ, [1, 1], [Matrix.from_rows(ZZ, [[2]])]),
        Matrix.identity(ZZ, 1),
    )
    with pytest.raises(LiftError) as err:
        build_ladder_maps(bad, good)
    assert err.value.degree == 1
    assert "degree 1" in str(err.value)
    print(
        f"\nPASS: criterion 7 (100/100 identity-breaking mutations rejected, "
        f"{slack_accepted} slack bumps correctly re-verified; lift failure names its degree)"
    )


def test_criterion_8_exact_linalg_oracles(f2c2):
    """Smith diagonals against the Hermite form (rank, and |det| when
    square of full rank) and, when small, against the minor oracle; the
    Hermite transform identity; on 500 random integer matrices. Then
    exhaustive solve-vs-brute-force agreement over F2[C2]."""
    rng = random.Random(8)
    for _ in range(500):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        a = Matrix(
            ZZ, rows, cols,
            [rng.randint(-100, 100) for _ in range(rows * cols)],
        )
        diag = snf(a)
        nonzero = [x for x in diag if x]
        assert len(diag) == min(rows, cols)
        assert all(x >= 0 for x in diag)
        assert diag[: len(nonzero)] == nonzero
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        if min(rows, cols) <= 3:
            assert nonzero == invariant_factors_by_minors(a)
        h = hnf(a)
        assert h.u * a == h.h
        assert solve(h.u, Matrix.identity(ZZ, rows)) is not None
        # u is unimodular, so a and h share their rank and, when square of
        # full rank, |det|: the product of the pivots, and of the factors
        pivots = [next(x for x in row if x) for row in h.h.to_rows() if any(row)]
        assert len(pivots) == len(nonzero)
        if rows == cols == len(nonzero):
            assert math.prod(pivots) == math.prod(nonzero)

    elements = list(itertools.product(range(2), repeat=2))
    # 1x1 systems: 16 of them
    for a_el in elements:
        for b_el in elements:
            a = Matrix(f2c2, 1, 1, [a_el])
            b = Matrix(f2c2, 1, 1, [b_el])
            brute = [x for x in elements if f2c2.mul(a_el, x) == b_el]
            got = solve(a, b)
            if brute:
                assert got is not None and a * got == b
            else:
                assert got is None
    # 2x1 systems: 256 of them
    for a1 in elements:
        for a2 in elements:
            a = Matrix(f2c2, 2, 1, [a1, a2])
            for b1 in elements:
                for b2 in elements:
                    b = Matrix(f2c2, 2, 1, [b1, b2])
                    brute = [
                        x
                        for x in elements
                        if f2c2.mul(a1, x) == b1 and f2c2.mul(a2, x) == b2
                    ]
                    got = solve(a, b)
                    if brute:
                        assert got is not None and a * got == b
                    else:
                        assert got is None
    print("\nPASS: criterion 8 (500 normal forms; exhaustive group-ring solves)")
