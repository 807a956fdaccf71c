"""Tests for the valuation lab: signed valuations, monomial families, the
Jacobi eigensolver, prediction-vs-classical comparison reports, the
Gershgorin-style bound, and the random generators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from troplectra.matrix import ShapeMismatch, parse_matrix, scale_vec
from troplectra.semiring import SScalar, parse_scalar
from troplectra.spectral import (
    NotTPD,
    PDVerdict,
    _sorted_diag,
    classify_pd,
    eigvec_adjugate,
    genericity_check,
)
from troplectra.valuation import (
    BadBase,
    BadParams,
    DEFAULT_BALANCE_SLACK,
    GershgorinBound,
    MonomialMatrix,
    NoConvergence,
    NonpositiveDiagonal,
    NotGenericDiagonal,
    ValuationReport,
    compare_eigenvalues,
    compare_eigenvectors,
    gershgorin_pd_bound,
    gram_experiment,
    jacobi_eigen,
    lift_tpd,
    random_gram_pd,
    random_tpd,
    sv_t,
    sv_vector,
    tropicalize_real,
)

# The running 5x5 example family: all entries positive, exponent of entry
# (i, j) is n - max(i, j) in 0-based indexing, so the diagonal reads 5..1.
FAMILY_TEXT = """
5
+5 +4 +3 +2 +1
+4 +4 +3 +2 +1
+3 +3 +3 +2 +1
+2 +2 +2 +2 +1
+1 +1 +1 +1 +1
"""

# Frozen reference data for that family: signed valuations of the classical
# eigenvalues and of the normalized eigenvectors at bases 10 and 100.
EIGENVALUE_SV = {
    10.0: [5.0048, 3.9543, 2.9542, 1.9542, 0.9494],
    100.0: [5.0000, 3.9978, 2.9978, 1.9978, 0.9978],
}

VECTOR_PREDICTIONS = [
    ["p0", "p-1", "p-2", "p-3", "p-4"],
    ["n-1", "p0", "p-1", "p-2", "p-3"],
    ["b-2", "n-1", "p0", "p-1", "p-2"],
    ["b-3", "b-2", "n-1", "p0", "p-1"],
    ["b-4", "b-3", "b-2", "n-1", "p0"],
]

# Observed signed-valuation vectors; None marks coordinates whose prediction
# is balanced (checked against the modulus bound, not pinned here).
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


def family():
    return MonomialMatrix.parse(FAMILY_TEXT)


# --- sv_t -----------------------------------------------------------------


class TestSvT:
    def test_power_of_ten(self):
        a = sv_t(100000.0, 10.0)
        assert a.is_pos
        assert float(a.mag) == pytest.approx(5.0, abs=1e-12)

    def test_negative_small(self):
        a = sv_t(-0.1, 10.0)
        assert a.is_neg
        assert float(a.mag) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_maps_to_zero(self):
        assert sv_t(0.0, 10.0).is_zero
        assert sv_t(0, 2.0).is_zero

    @pytest.mark.parametrize("t", [1.0, 0.5, -2.0, 0.0, math.inf, math.nan])
    def test_bad_base(self, t):
        with pytest.raises(BadBase):
            sv_t(3.0, t)

    def test_nonfinite_argument(self):
        with pytest.raises(BadParams):
            sv_t(math.inf, 10.0)
        with pytest.raises(BadParams):
            sv_t(math.nan, 10.0)

    @given(
        st.floats(min_value=1e-8, max_value=1e8),
        st.floats(min_value=1e-8, max_value=1e8),
        st.booleans(),
        st.booleans(),
        st.sampled_from([2.5, 10.0, 100.0]),
    )
    def test_multiplicative(self, a, b, na, nb, t):
        x = -a if na else a
        y = -b if nb else b
        prod = sv_t(x * y, t)
        parts = sv_t(x, t) * sv_t(y, t)
        assert prod.sign == parts.sign
        assert float(prod.mag) == pytest.approx(float(parts.mag), abs=1e-9)

    def test_sum_converges_to_tropical_sum(self):
        # t^3 - t^2 has valuation 3; the finite-base estimate improves with t.
        residuals = []
        for t in (10.0, 100.0, 1000.0):
            a = sv_t(t**3 - t**2, t)
            assert a.is_pos
            residuals.append(abs(float(a.mag) - 3.0))
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 0.001

    def test_vector(self):
        vec = sv_vector([100.0, -1.0, 0.0], 10.0)
        assert vec[0].is_pos and float(vec[0].mag) == pytest.approx(2.0)
        assert vec[1].is_neg and vec[1].mag == 0.0
        assert vec[2].is_zero


# --- tropicalize_real --------------------------------------------------------


class TestTropicalizeReal:
    def test_identity(self):
        a = tropicalize_real(np.eye(3), 10.0)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert a[i, j].is_pos and a[i, j].mag == 0.0
                else:
                    assert a[i, j].is_zero

    def test_matches_entrywise_sv(self):
        b = np.array([[4.0, -2.0], [-2.0, 9.0]])
        a = tropicalize_real(b, 10.0)
        for i in range(2):
            for j in range(2):
                assert a[i, j] == sv_t(b[i, j], 10.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeMismatch):
            tropicalize_real([[1.0, 2.0], [3.0, 1.0]], 10.0)

    def test_bad_base(self):
        with pytest.raises(BadBase):
            tropicalize_real(np.eye(2), 1.0)


# --- MonomialMatrix ----------------------------------------------------------


class TestMonomialMatrix:
    def test_parse_format_roundtrip(self):
        m = family()
        assert MonomialMatrix.parse(m.format()) == m
        assert m.n == 5
        assert m.sign(0, 0) == 1
        assert m.exponent(0, 0) == 5

    def test_evaluate_entries(self):
        b = family().evaluate(10.0)
        assert b[0, 0] == 1e5
        assert b[4, 4] == 10.0
        assert b[0, 4] == 10.0

    def test_fractional_exponent_and_negative_sign(self):
        m = MonomialMatrix.parse("2\n+5/2 -1\n-1 +1")
        b = m.evaluate(10.0)
        assert b[0, 0] == pytest.approx(10.0**2.5)
        assert b[0, 1] == pytest.approx(-10.0)
        assert m.exponent(0, 0) == Fraction(5, 2)

    def test_zero_entries(self):
        m = MonomialMatrix.parse("2\n+2 0\n0 +1")
        b = m.evaluate(10.0)
        assert b[0, 1] == 0.0 and b[1, 0] == 0.0
        a = m.signed_valuation()
        assert a[0, 1].is_zero
        assert a[0, 0] == SScalar.pos(2)

    def test_signed_valuation_of_family(self):
        expected = parse_matrix(
            "5 5\n"
            "p5 p4 p3 p2 p1\n"
            "p4 p4 p3 p2 p1\n"
            "p3 p3 p3 p2 p1\n"
            "p2 p2 p2 p2 p1\n"
            "p1 p1 p1 p1 p1"
        )
        assert family().signed_valuation() == expected

    def test_evaluate_bad_base(self):
        with pytest.raises(BadBase):
            family().evaluate(0.99)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeMismatch):
            MonomialMatrix([[1, 1], [-1, 1]], [[1, 2], [2, 1]])

    def test_rejects_bad_sign(self):
        with pytest.raises(BadParams):
            MonomialMatrix([[2]], [[1]])

    def test_zero_entry_carries_no_exponent(self):
        with pytest.raises(BadParams):
            MonomialMatrix([[0]], [[3]])
        with pytest.raises(BadParams):
            MonomialMatrix([[1]], [[None]])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x",
            "2\n+1 +1",
            "1\n+1 +1",
            "1\nq3",
            "1\n+a",
            "2\n+1 0\n0 0 0",
        ],
    )
    def test_parse_errors(self, text):
        from troplectra.semiring import ParseError

        with pytest.raises(ParseError):
            MonomialMatrix.parse(text)


# --- lift_tpd -----------------------------------------------------------------


class TestLiftTpd:
    def test_roundtrip_on_random_instances(self):
        for seed in range(30):
            a = random_tpd(2 + seed % 4, seed)
            assert lift_tpd(a).signed_valuation() == a

    def test_rejects_non_tpd(self):
        a = parse_matrix("2 2\np1 p5\np5 p1")
        with pytest.raises(NotTPD):
            lift_tpd(a)

    def test_lift_is_classically_pd_at_large_base(self):
        for seed in range(5):
            m = lift_tpd(random_tpd(4, seed))
            lam, _ = jacobi_eigen(m.evaluate(100.0))
            assert (lam > 0).all()


# --- jacobi_eigen ----------------------------------------------------------------


class TestJacobiEigen:
    def test_already_diagonal(self):
        w, v = jacobi_eigen(np.diag([5.0, 2.0, 9.0]))
        assert np.array_equal(w, [9.0, 5.0, 2.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [2, 0, 1]])

    def test_two_by_two(self):
        w, v = jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert w == pytest.approx([3.0, 1.0], abs=1e-12)
        unit = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(v), [[unit, unit], [unit, unit]], atol=1e-12)

    def test_single_entry(self):
        w, v = jacobi_eigen([[-4.0]])
        assert w[0] == -4.0 and v[0, 0] == 1.0

    def test_zero_matrix(self):
        w, v = jacobi_eigen(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))
        assert np.array_equal(v, np.eye(3))

    def test_random_instances_against_dense_solver(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = 2 + trial % 11
            m = rng.normal(size=(n, n))
            m = 0.5 * (m + m.T)
            w, v = jacobi_eigen(m)
            assert all(w[i] >= w[i + 1] for i in range(n - 1))
            rec = np.linalg.norm(v @ np.diag(w) @ v.T - m) / np.linalg.norm(m)
            assert rec <= 1e-9
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.abs(w - ref).max() <= 1e-9 * np.linalg.norm(m)

    def test_accepts_tiny_asymmetry(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        w, _ = jacobi_eigen(m)
        assert w == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeMismatch):
            jacobi_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            jacobi_eigen(np.ones((2, 3)))

    def test_rejects_bad_tolerance_and_budget(self):
        with pytest.raises(BadParams):
            jacobi_eigen(np.eye(2), tol=0.0)
        with pytest.raises(BadParams):
            jacobi_eigen(np.eye(2), max_sweeps=0)

    def test_no_convergence_with_tiny_budget(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(12, 12))
        m = 0.5 * (m + m.T)
        with pytest.raises(NoConvergence):
            jacobi_eigen(m, max_sweeps=1)

    def test_rejects_nonfinite(self):
        with pytest.raises(BadParams):
            jacobi_eigen([[math.inf, 0.0], [0.0, 1.0]])


def test_graded_two_by_two_small_eigenvalue_is_relatively_accurate():
    # a rule on the off-diagonal norm accepts the diagonal here, so 1.0
    w, _ = jacobi_eigen([[1e24, 1e11], [1e11, 1.0]])
    assert w[1] == pytest.approx(0.99, rel=1e-14)


def test_lifted_families_match_a_high_precision_oracle():
    """Relative eigenvalue error against mpmath at 100 digits, on graded
    lifted TPD families whose eigenvalues span up to 48 decades."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for seed in range(30):
        fam = lift_tpd(random_tpd(8, seed, exponent_range=(0, 12)))
        for t in (1e2, 1e4):
            b = fam.evaluate(t)
            w, _ = jacobi_eigen(b)
            with mpmath.workdps(100):
                ref = mpmath.eigsy(mpmath.matrix(b.tolist()), eigvals_only=True)
                ref = sorted((ref[i] for i in range(8)), reverse=True)
                for x, r in zip(w.tolist(), ref):
                    worst = max(worst, float(abs((mpmath.mpf(x) - r) / r)))
    assert worst <= 1e-12


_SMALL_INTS = st.integers(min_value=-4, max_value=4)


@st.composite
def edge_symmetric(draw, n=None):
    """Indefinite and singular symmetric matrices with exact entries:
    rank one, low rank with mixed-sign weights (exact zero eigenvalues), or
    a mixed-sign diagonal with zeros and a few couplings."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=7))
    kind = draw(st.sampled_from(["rank1", "low_rank", "mixed_diagonal"]))
    if kind == "rank1":
        x = np.array(draw(st.lists(_SMALL_INTS, min_size=n, max_size=n)), float)
        return np.outer(x, x)
    if kind == "low_rank":
        r = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
        c = draw(st.lists(_SMALL_INTS, min_size=n * r, max_size=n * r))
        c = np.array(c, float).reshape(n, r)
        weights = st.sampled_from([-2.0, -1.0, 1.0, 3.0])
        d = np.array(draw(st.lists(weights, min_size=r, max_size=r)))
        return (c * d) @ c.T
    entries = st.sampled_from([-5.0, -1.0, 0.0, 0.0, 2.0, 7.0])
    m = np.diag(draw(st.lists(entries, min_size=n, max_size=n)))
    index = st.integers(min_value=0, max_value=n - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=n)):
        if i != j:
            m[i, j] = m[j, i] = draw(_SMALL_INTS)
    return m


@given(edge_symmetric())
def test_edge_cases_converge_with_test_10_bounds(m):
    n = m.shape[0]
    w, v = jacobi_eigen(m)
    assert all(w[i] >= w[i + 1] for i in range(n - 1))
    scale = max(np.linalg.norm(m), 1e-300)
    assert np.linalg.norm((v * w) @ v.T - m) / scale <= 1e-9
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10


@st.composite
def edge_stacks(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    count = draw(st.integers(min_value=1, max_value=4))
    return np.stack([draw(edge_symmetric(n)) for _ in range(count)])


@given(edge_stacks())
def test_stacked_call_matches_separate_calls(stack):
    w, v = jacobi_eigen(stack)
    assert w.shape == stack.shape[:2] and v.shape == stack.shape
    for i, m in enumerate(stack):
        wi, vi = jacobi_eigen(m)
        assert np.array_equal(wi, w[i]) and np.array_equal(vi, v[i])


def test_stacked_lifted_families_match_separate_calls():
    for seed in range(6):
        fam = lift_tpd(random_tpd(5 + seed % 3, seed, exponent_range=(0, 12)))
        stack = np.stack([fam.evaluate(t) for t in (10.0, 1e2, 1e4)])
        w, v = jacobi_eigen(stack)
        for i in range(3):
            wi, vi = jacobi_eigen(stack[i])
            assert np.array_equal(wi, w[i]) and np.array_equal(vi, v[i])


def test_stack_shapes_and_rejections():
    w, v = jacobi_eigen(np.zeros((0, 3, 3)))
    assert w.shape == (0, 3) and v.shape == (0, 3, 3)
    with pytest.raises(ShapeMismatch):
        jacobi_eigen(np.ones((2, 2, 3)))
    with pytest.raises(ShapeMismatch):
        jacobi_eigen(np.ones((1, 2, 2, 2)))
    with pytest.raises(ShapeMismatch):
        jacobi_eigen(np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]]))
    with pytest.raises(ShapeMismatch):
        tropicalize_real(np.stack([np.eye(2)] * 2), 10.0)


# --- compare_eigenvalues -----------------------------------------------------------


class TestCompareEigenvalues:
    def test_family_matches_reference_rows(self):
        rep = compare_eigenvalues(family())
        for t, expected in EIGENVALUE_SV.items():
            rows = rep.rows_at(t)
            assert [r.k for r in rows] == [1, 2, 3, 4, 5]
            for row, ref in zip(rows, expected):
                assert row.sv_value.is_pos
                assert float(row.sv_value.mag) == pytest.approx(ref, abs=1e-3)
                assert row.sign_match
        assert rep.max_residual(10.0) <= 0.06
        assert rep.max_residual(100.0) <= 0.005

    def test_gammas_are_sorted_diagonal(self):
        rep = compare_eigenvalues(family(), [10.0])
        assert [r.gamma for r in rep.rows] == [
            SScalar.pos(v) for v in (5, 4, 3, 2, 1)
        ]

    def test_sv_rows_descend(self):
        rep = compare_eigenvalues(family())
        for t in rep.t_values:
            mags = [float(r.sv_value.mag) for r in rep.rows_at(t)]
            assert all(x >= y for x, y in zip(mags, mags[1:]))

    def test_one_by_one_is_near_exact(self):
        m = MonomialMatrix.parse("1\n+3")
        for t in (10.0, 7.0):
            rep = compare_eigenvalues(m, [t])
            assert rep.rows[0].residual < 1e-12

    def test_rejects_non_tpd_family(self):
        m = MonomialMatrix.parse("2\n+1 +5\n+5 +1")
        with pytest.raises(NotTPD):
            compare_eigenvalues(m)

    def test_rejects_bad_base(self):
        with pytest.raises(BadBase):
            compare_eigenvalues(family(), [1.0])

    def test_residual_shrinks_with_base(self):
        for seed in range(6):
            rep = compare_eigenvalues(
                lift_tpd(random_tpd(4, seed)), [10.0, 100.0, 1000.0]
            )
            res = [rep.max_residual(t) for t in (10.0, 100.0, 1000.0)]
            assert res[0] >= res[1] >= res[2]

    def test_report_accessors(self):
        rep = compare_eigenvalues(family())
        row = rep.row(2, 100.0)
        assert row.k == 2 and row.t == 100.0
        with pytest.raises(KeyError):
            rep.row(9, 10.0)
        assert len(rep.rows_at(10.0)) == 5
        assert rep.max_residual() >= rep.max_residual(100.0)

    def test_csv_shape(self):
        rep = compare_eigenvalues(family())
        lines = rep.to_csv().strip().splitlines()
        assert lines[0].startswith("k,t,gamma,sv,residual,rel_residual,sign_match")
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "p5"
        # vector columns stay empty in an eigenvalue-only report
        assert first[7] == "" and first[8] == ""

    def test_json_structure(self):
        data = compare_eigenvalues(family(), [10.0]).to_json_dict()
        assert data["n"] == 5
        assert data["t_values"] == [10.0]
        assert len(data["rows"]) == 5
        row = data["rows"][0]
        assert row["gamma"] == "p5"
        assert row["coordinates"] is None

    def test_pretty_mentions_base_and_verdict(self):
        text = compare_eigenvalues(family(), [10.0]).pretty()
        assert "t = 10" in text
        assert "ok" in text


# --- compare_eigenvectors ------------------------------------------------------------


class TestCompareEigenvectors:
    def test_family_predictions(self):
        rep = compare_eigenvectors(family(), [10.0])
        for row, tokens in zip(rep.rows, VECTOR_PREDICTIONS):
            preds = [c.prediction for c in row.coordinates]
            assert preds == [parse_scalar(tok) for tok in tokens]

    @pytest.mark.parametrize("t", [10.0, 100.0])
    def test_family_signed_coordinates(self, t):
        rep = compare_eigenvectors(family(), [t])
        for row, refs in zip(rep.rows, VECTOR_SV[t]):
            assert not row.degenerate
            for coord, ref in zip(row.coordinates, refs):
                if ref is None:
                    assert coord.kind == "balanced"
                    assert coord.within_slack
                else:
                    assert coord.kind == "signed"
                    assert coord.sign_match
                    assert float(coord.observed.mag) == pytest.approx(
                        ref, abs=1e-3
                    )

    def test_family_flags(self):
        rep = compare_eigenvectors(family())
        for row in rep.rows:
            assert row.coord_signs_ok
            assert row.balanced_ok
        assert rep.max_residual(100.0) <= 0.005

    def test_pivot_coordinate_is_exactly_one(self):
        rep = compare_eigenvectors(family(), [10.0])
        for k, row in enumerate(rep.rows, start=1):
            pivot = row.coordinates[k - 1]
            assert pivot.observed.is_pos
            assert float(pivot.observed.mag) == 0.0
            assert pivot.residual == 0.0

    def test_balanced_coordinates_sit_below_modulus(self):
        rep = compare_eigenvectors(family(), [10.0])
        for row in rep.rows:
            for coord in row.coordinates:
                if coord.kind == "balanced":
                    assert coord.gap is not None and coord.gap > 0.0

    def test_diagonal_family_zero_predictions(self):
        m = MonomialMatrix.parse("2\n+2 0\n0 +1")
        rep = compare_eigenvectors(m, [10.0])
        top = rep.rows[0]
        assert top.coordinates[0].kind == "signed"
        assert top.coordinates[1].kind == "zero"
        assert top.coordinates[1].observed.is_zero

    def test_rejects_repeated_diagonal(self):
        m = MonomialMatrix.parse("2\n+2 +0\n+0 +2")
        with pytest.raises(NotGenericDiagonal):
            compare_eigenvectors(m)

    def test_rejects_non_tpd(self):
        m = MonomialMatrix.parse("2\n+1 +5\n+5 +1")
        with pytest.raises(NotTPD):
            compare_eigenvectors(m)

    def test_sign_patterns_match_on_resolvable_generic_instances(self):
        # Signed coordinates of the prediction must reappear with the same
        # sign classically at base 100, provided the coordinate is large
        # enough to be resolvable in double precision (exponent >= -4
        # relative to the pivot).
        checked = 0
        for seed in range(80):
            for n in (3, 4):
                a = random_tpd(n, seed * 31 + n, exponent_range=(0, 3))
                diag = _sorted_diag(a)
                if len({d.mag for d, _ in diag}) != n or not genericity_check(a):
                    continue
                resolvable = True
                for k in range(1, n + 1):
                    vec = eigvec_adjugate(a, k)
                    pred = scale_vec(vec[diag[k - 1][1]].inv(), vec)
                    if any(
                        (c.is_pos or c.is_neg) and float(c.mag) < -4.0
                        for c in pred
                    ):
                        resolvable = False
                if not resolvable:
                    continue
                rep = compare_eigenvectors(lift_tpd(a), [100.0])
                assert all(r.coord_signs_ok for r in rep.rows)
                checked += 1
        assert checked >= 15

    def test_csv_includes_vector_columns(self):
        rep = compare_eigenvectors(family(), [10.0])
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[8] == "true" and first[9] == "true"

    def test_json_coordinates(self):
        data = compare_eigenvectors(family(), [10.0]).to_json_dict()
        coords = data["rows"][2]["coordinates"]
        assert coords[0]["kind"] == "balanced"
        assert coords[0]["prediction"] == "b-2"
        assert data["slack"] == DEFAULT_BALANCE_SLACK

    def test_pretty_lists_coordinates(self):
        text = compare_eigenvectors(family(), [10.0]).pretty()
        assert "eigenvector k=1" in text
        assert "balanced" in text
        assert "gap" in text


# --- gershgorin_pd_bound ---------------------------------------------------------------


class TestGershgorin:
    def test_diagonal_matrix(self):
        gb = gershgorin_pd_bound(np.diag([1.0, 2.0, 3.0]))
        assert math.isinf(gb.gamma)
        assert all(r == 0.0 for _, r in gb.balls)
        assert gb.contained and not gb.weak

    def test_two_by_two_pin(self):
        gb = gershgorin_pd_bound([[4.0, 1.0], [1.0, 1.0]])
        assert gb.gamma == pytest.approx(2.0)
        assert gb.balls[0] == pytest.approx((4.0, 2.0))
        assert gb.balls[1] == pytest.approx((1.0, 0.5))
        lo = (5.0 - math.sqrt(13.0)) / 2.0
        hi = (5.0 + math.sqrt(13.0)) / 2.0
        assert gb.eigenvalues == pytest.approx((hi, lo), abs=1e-12)
        assert gb.contained

    @pytest.mark.parametrize("t", [10.0, 100.0])
    def test_family_contained(self, t):
        gb = gershgorin_pd_bound(family().evaluate(t))
        assert gb.contained and not gb.weak

    def test_weak_flag_on_dominated_diagonal(self):
        gb = gershgorin_pd_bound([[1.0, 100.0], [100.0, 1.0]])
        assert gb.gamma == pytest.approx(0.01)
        assert gb.weak and gb.contained

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NonpositiveDiagonal):
            gershgorin_pd_bound([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NonpositiveDiagonal):
            gershgorin_pd_bound([[-1.0, 0.0], [0.0, 2.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeMismatch):
            gershgorin_pd_bound([[1.0, 2.0], [0.0, 1.0]])

    def test_contained_on_random_gram_matrices(self):
        for seed in range(20):
            assert gershgorin_pd_bound(random_gram_pd(8, seed)).contained


# --- random generators --------------------------------------------------------------------


class TestRandomTpd:
    def test_always_tpd(self):
        for seed in range(200):
            a = random_tpd(2 + seed % 5, seed)
            assert classify_pd(a).verdict is PDVerdict.TPD

    def test_deterministic(self):
        assert random_tpd(5, 42) == random_tpd(5, 42)
        assert random_tpd(5, 42) != random_tpd(5, 43)

    def test_margin_honored_exactly(self):
        margin = Fraction(3, 2)
        for seed in range(40):
            a = random_tpd(4, seed, exponent_range=(0, 6), margin=margin)
            for i in range(4):
                for j in range(4):
                    if i != j and a[i, j].mag is not None:
                        assert 2 * a[i, j].mag <= a[i, i].mag + a[j, j].mag - margin

    def test_diagonal_within_range(self):
        a = random_tpd(6, 7, exponent_range=(2, 4))
        for i in range(6):
            assert a[i, i].is_pos
            assert 2 <= a[i, i].mag <= 4
        assert a.is_symmetric()

    def test_bad_params(self):
        with pytest.raises(BadParams):
            random_tpd(0, 1)
        with pytest.raises(BadParams):
            random_tpd(3, 1, exponent_range=(5, 0))
        with pytest.raises(BadParams):
            random_tpd(3, 1, margin=0)
        with pytest.raises(BadParams):
            random_tpd(3, 1, margin=-1)


class TestRandomGramPd:
    def test_symmetric_and_psd(self):
        b = random_gram_pd(12, 3)
        assert b.shape == (12, 12)
        assert np.abs(b - b.T).max() <= 1e-12
        assert np.linalg.eigvalsh(b).min() >= -1e-9

    def test_deterministic(self):
        assert np.array_equal(random_gram_pd(6, 9), random_gram_pd(6, 9))
        assert not np.array_equal(random_gram_pd(6, 9), random_gram_pd(6, 10))

    def test_bad_params(self):
        with pytest.raises(BadParams):
            random_gram_pd(0, 1)


# --- gram_experiment -------------------------------------------------------------------------


class TestGramExperiment:
    def test_small_pipeline(self):
        exp = gram_experiment(n=8, seed=3)
        assert exp.verdict is PDVerdict.TPD
        assert exp.t == 10.0
        assert len(exp.report.rows) == 8
        assert [r.k for r in exp.report.rows] == list(range(1, 9))
        for row in exp.report.rows:
            assert math.isfinite(row.residual)

    def test_csv_row_per_eigenpair(self):
        exp = gram_experiment(n=8, seed=3)
        lines = exp.to_csv().strip().splitlines()
        assert len(lines) == 9

    def test_bad_base(self):
        with pytest.raises(BadBase):
            gram_experiment(n=4, seed=0, t=1.0)

    def test_report_type(self):
        exp = gram_experiment(n=5, seed=1)
        assert isinstance(exp.report, ValuationReport)
        assert isinstance(gershgorin_pd_bound(random_gram_pd(5, 1)), GershgorinBound)


def test_lab_entry_points_classify_once(classify_calls):
    fam = family()
    compare_eigenvalues(fam, (10.0, 100.0, 1e4))
    assert len(classify_calls) == 1
    classify_calls.clear()
    compare_eigenvectors(fam, (10.0, 100.0))
    assert len(classify_calls) == 1
    classify_calls.clear()
    gram_experiment(n=8, seed=3)
    assert len(classify_calls) == 1
