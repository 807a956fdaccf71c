"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee.  Tolerances and time budgets are asserted exactly as
promised; golden values are frozen here rather than recomputed.
"""

import math
import random
import time

import numpy as np
import pytest

from troplectra.matrix import (
    SMatrix,
    adjugate,
    determinant,
    identity,
    kleene_star,
    parse_matrix,
    parse_vector,
    permanent,
    scale_vec,
    trace_k,
)
from troplectra.polynomial import RootKind, parse_poly, verify_smax_root
from troplectra.semiring import (
    SScalar,
    parse_scalar,
    preceq_circ,
    s_mul,
)
from troplectra.spectral import (
    NotSimple,
    PDVerdict,
    VectorClass,
    charpoly,
    classify_eigenvector,
    classify_pd,
    eigvec_adjugate,
    eigvec_construct,
    eigvec_kleene,
    smax_eigenvalues,
)
from troplectra.valuation import (
    MonomialMatrix,
    compare_eigenvalues,
    compare_eigenvectors,
    gershgorin_pd_bound,
    gram_experiment,
    jacobi_eigen,
    random_gram_pd,
    random_tpd,
)

# --- golden inputs ---------------------------------------------------------

# 3x3 cubic showcase: positive entries, distinct diagonal
POSITIVE = "3 3\np3 p2 p1\np2 p2 p1\np1 p1 p1"
# same diagonal with mixed signs off the diagonal
MIXED = "3 3\np3 n2 p1\nn2 p2 p1\np1 p1 p1"
# variant whose leading adjugate vector has a balanced coordinate
BALCOORD = "3 3\np3 n2 p0\nn2 p2 p1\np0 p1 p1"

FAMILY_TEXT = """
5
+5 +4 +3 +2 +1
+4 +4 +3 +2 +1
+3 +3 +3 +2 +1
+2 +2 +2 +2 +1
+1 +1 +1 +1 +1
"""

# Printed signed valuations of the family's classical eigenvalues.
EIGENVALUE_SV = {
    10.0: [5.0048, 3.9543, 2.9542, 1.9542, 0.9494],
    100.0: [5.0000, 3.9978, 2.9978, 1.9978, 0.9978],
}
RESIDUAL_BOUND = {10.0: 0.06, 100.0: 0.005}

# Printed adjugate predictions and observed eigenvector valuations for the
# same family; None marks balanced-prediction coordinates, which are checked
# against the modulus bound instead of a pinned value.
VECTOR_PREDICTIONS = [
    ["p0", "p-1", "p-2", "p-3", "p-4"],
    ["n-1", "p0", "p-1", "p-2", "p-3"],
    ["b-2", "n-1", "p0", "p-1", "p-2"],
    ["b-3", "b-2", "n-1", "p0", "p-1"],
    ["b-4", "b-3", "b-2", "n-1", "p0"],
]
VECTOR_SV = {
    10.0: [
        [0.0, -0.9591, -1.9552, -2.9548, -3.9547],
        [-0.9542, 0.0, -0.9538, -1.9493, -2.9489],
        [None, -0.9493, 0.0, -0.9538, -1.9494],
        [None, None, -0.9494, 0.0, -0.9542],
        [None, None, None, -0.9547, 0.0],
    ],
    100.0: [
        [0.0, -0.9978, -1.9978, -2.9978, -3.9978],
        [-0.9978, 0.0, -0.9978, -1.9978, -2.9978],
        [None, -0.9978, 0.0, -0.9978, -1.9978],
        [None, None, -0.9978, 0.0, -0.9978],
        [None, None, None, -0.9978, 0.0],
    ],
}


@pytest.fixture(scope="module")
def tpd_corpus():
    """1,000 seeded definite matrices with sizes cycling through 2..6."""
    return [random_tpd(2 + seed % 5, seed) for seed in range(1000)]


def best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --- the guarantees, in order ----------------------------------------------


def test_01_characteristic_polynomial_golden_cubic():
    a = parse_matrix(POSITIVE)
    assert charpoly(a) == parse_poly("n6 p5 n3 p0")
    assert best_time(lambda: charpoly(a)) < 1e-3


def test_02_adjugate_eigenvectors_golden_triples():
    mixed = parse_matrix(MIXED)
    expected = {
        1: ("p6 n5 p4", VectorClass.STRONG),
        2: ("n4 n5 n4", VectorClass.EIGEN),
        3: ("n3 n4 p5", VectorClass.EIGEN),
    }
    gammas = smax_eigenvalues(mixed).expand()
    for k, (tokens, cls) in expected.items():
        v = eigvec_adjugate(mixed, k)
        assert v == parse_vector(tokens)
        assert classify_eigenvector(mixed, gammas[k - 1], v) is cls

    positive = parse_matrix(POSITIVE)
    v3 = eigvec_adjugate(positive, 3)
    assert v3 == parse_vector("b3 n4 p5")
    assert (
        classify_eigenvector(positive, parse_scalar("p1"), v3)
        is VectorClass.WEAK
    )

    balcoord = parse_matrix(BALCOORD)
    v1 = eigvec_adjugate(balcoord, 1)
    assert v1 == parse_vector("p6 n5 b3")
    built = eigvec_construct(balcoord, 1)
    assert built is not None
    assert built[0] == v1[0] and built[1] == v1[1]
    assert all(x.is_signed for x in built)
    assert classify_eigenvector(balcoord, parse_scalar("p3"), built) in (
        VectorClass.STRONG,
        VectorClass.EIGEN,
    )


def test_03_kleene_star_golden_and_adjugate_agreement(tpd_corpus):
    balcoord = parse_matrix(BALCOORD)
    contracted = parse_scalar("p-3") * balcoord
    star = kleene_star(contracted)
    assert star == parse_matrix("3 3\np0 n-1 b-3\nn-1 p0 p-2\nb-3 p-2 p0")
    lead = scale_vec(parse_scalar("p6"), star.col(0))
    assert lead == eigvec_adjugate(balcoord, 1)
    assert eigvec_kleene(balcoord, 1) == eigvec_adjugate(balcoord, 1)

    start = time.perf_counter()
    for a in tpd_corpus:
        for k in range(1, a.rows + 1):
            try:
                via_star = eigvec_kleene(a, k)
            except NotSimple:
                continue
            assert via_star == eigvec_adjugate(a, k)
    assert time.perf_counter() - start < 30.0


def test_04_eigenvalues_are_sorted_diagonal_with_trace_products(tpd_corpus):
    for a in tpd_corpus:
        diag = sorted(
            (a[i, i] for i in range(a.rows)),
            key=lambda s: s.mag,
            reverse=True,
        )
        roots = smax_eigenvalues(a)
        assert list(roots.expand()) == diag
        for value, mult in roots:
            assert mult == sum(1 for d in diag if d == value)

        p = charpoly(a)
        for value, _ in roots:
            assert verify_smax_root(p, value) is not RootKind.NOT_ROOT

        for k in range(1, a.rows + 1):
            product = diag[0]
            for d in diag[1:k]:
                product = s_mul(product, d)
            assert trace_k(a, k) == product


def test_05_two_by_two_definiteness_matches_quadratic_forms():
    # Brute force: sign of x' A x over all fully signed vectors with integer
    # exponents in -6..6.  Entry magnitudes stay in -3..3 and diagonals are
    # never the zero element, so this grid is wide enough to be decisive.
    rng = random.Random(42)

    def entry(allow_zero):
        if allow_zero and rng.random() < 0.2:
            return SScalar.zero()
        mag = rng.randint(-3, 3)
        return SScalar.pos(mag) if rng.random() < 0.5 else SScalar.neg(mag)

    grid = [
        ctor(e) for e in range(-6, 7) for ctor in (SScalar.pos, SScalar.neg)
    ]
    seen_definite = 0
    for _ in range(500):
        d0, d1 = entry(False), entry(False)
        off = entry(True)
        a = SMatrix.from_rows([[d0, off], [off, d1]])
        brute = True
        for x1 in grid:
            head = s_mul(s_mul(x1, x1), d0)
            cross = s_mul(x1, off)
            for x2 in grid:
                q = head + s_mul(s_mul(x2, x2), d1) + s_mul(cross, x2)
                if not q.is_pos:
                    brute = False
                    break
            if not brute:
                break
        verdict = classify_pd(a).verdict is PDVerdict.TPD
        assert verdict == brute
        seen_definite += verdict
    assert 0 < seen_definite < 500


def test_06_determinant_modulus_and_adjugate_balance_identities():
    rng = random.Random(7)

    def entry():
        if rng.random() < 0.2:
            return SScalar.zero()
        mag = rng.randint(-3, 3)
        return SScalar.pos(mag) if rng.random() < 0.5 else SScalar.neg(mag)

    for trial in range(1000):
        n = 1 + trial % 5
        a = SMatrix.from_rows(
            [[entry() for _ in range(n)] for _ in range(n)]
        )
        det = determinant(a)
        per = permanent(a.modulus())
        if det.mag is None:
            assert per.value is None
        else:
            assert det.mag == per.value
        product = a @ adjugate(a)
        scaled = det * identity(n)
        for i in range(n):
            for j in range(n):
                assert preceq_circ(scaled[i, j], product[i, j])


def test_07_eigenvalue_valuations_track_diagonal():
    fam = MonomialMatrix.parse(FAMILY_TEXT)
    start = time.perf_counter()
    report = compare_eigenvalues(fam, (10.0, 100.0))
    elapsed = time.perf_counter() - start
    for t, printed in EIGENVALUE_SV.items():
        for k, expected in enumerate(printed, start=1):
            row = report.row(k, t)
            assert row.sv_value.is_pos
            assert abs(float(row.sv_value.mag) - expected) < 1e-3
            assert row.residual <= RESIDUAL_BOUND[t]
    assert elapsed < 1.0


def test_08_eigenvector_valuations_track_adjugate_predictions():
    fam = MonomialMatrix.parse(FAMILY_TEXT)
    start = time.perf_counter()
    report = compare_eigenvectors(fam, (10.0, 100.0))
    elapsed = time.perf_counter() - start
    for t in (10.0, 100.0):
        for row in report.rows_at(t):
            assert not row.degenerate
            printed = VECTOR_SV[t][row.k - 1]
            for coord in row.coordinates:
                token = VECTOR_PREDICTIONS[row.k - 1][coord.index]
                assert coord.prediction == parse_scalar(token)
                if coord.kind == "signed":
                    expected = printed[coord.index]
                    assert expected is not None
                    assert coord.sign_match
                    observed = float(coord.observed.mag)
                    assert abs(observed - expected) < 1e-3
                else:
                    assert coord.kind == "balanced"
                    assert printed[coord.index] is None
                    assert coord.within_slack
    assert elapsed < 1.0


def test_09_gershgorin_balls_contain_classical_spectra():
    fam = MonomialMatrix.parse(FAMILY_TEXT)
    start = time.perf_counter()
    for t in (10.0, 100.0):
        assert gershgorin_pd_bound(fam.evaluate(t)).contained
    for seed in range(100):
        assert gershgorin_pd_bound(random_gram_pd(20, seed)).contained
    assert time.perf_counter() - start < 5.0


def test_10_jacobi_reconstruction_and_orthogonality():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((20, 20))
        b = 0.5 * (c + c.T)
        w, v = jacobi_eigen(b)
        reconstruction = np.linalg.norm(
            (v * w) @ v.T - b
        ) / np.linalg.norm(b)
        assert reconstruction <= 1e-9
        defect = np.linalg.norm(v.T @ v - np.eye(20))
        assert defect <= 1e-10


def test_11_gram_matrix_pipeline_reports_full_residual_table():
    outcome = gram_experiment(100, seed=0, t=10.0)
    assert isinstance(outcome.verdict, PDVerdict)
    assert outcome.report.max_residual() > 0.0
    lines = outcome.to_csv().strip().splitlines()
    assert len(lines) == 101
    assert lines[0].startswith("k,t,gamma,sv,residual")
    # measured residuals are reported, not thresholded
