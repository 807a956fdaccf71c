"""Definiteness classification, characteristic polynomials, eigenvalues
and eigenvectors of tropically positive definite matrices."""

import json
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from troplectra.matrix import (
    NotSquare,
    ShapeMismatch,
    SMatrix,
    StarDiverges,
    TMatrix,
    adjugate,
    kleene_star,
    mat_vec,
    scale_vec,
    trace_k,
)
from troplectra import spectral
from troplectra.cli import main
from troplectra.polynomial import NotSigned, SPoly, TPoly, pretty_poly
from troplectra.semiring import SScalar, TScalar, s_mul, s_neg
from troplectra.spectral import (
    InternalMismatch,
    NotSimple,
    NotTPD,
    PDClass,
    PDVerdict,
    VectorClass,
    charpoly,
    classify_eigenvector,
    classify_pd,
    eigvec_adjugate,
    eigvec_construct,
    eigvec_info,
    eigvec_kleene,
    genericity_check,
    quadratic_form,
    smax_eigenvalues,
    spectral_report,
    tmax_charpoly,
    tmax_eigenvalues,
    uniqueness_and_strength,
)

P = SScalar.pos
N = SScalar.neg
B = SScalar.bal
Z = SScalar.zero()
ONE = SScalar.one()

# Worked 3x3 matrices with diagonal 3, 2, 1 exercising the three
# eigenvector classifications.
MIXED = SMatrix([[P(3), N(2), P(1)], [N(2), P(2), P(1)], [P(1), P(1), P(1)]])
POSITIVE = SMatrix([[P(3), P(2), P(1)], [P(2), P(2), P(1)], [P(1), P(1), P(1)]])
BALCOORD = SMatrix([[P(3), N(2), P(0)], [N(2), P(2), P(1)], [P(0), P(1), P(1)]])


def sorted_diag(a):
    items = sorted(
        ((a[i, i], i) for i in range(a.rows)),
        key=lambda t: t[0].mag,
        reverse=True,
    )
    return items


# --- oracles ---------------------------------------------------------------------


def brute_tmax_charpoly(m: TMatrix) -> TPoly:
    """Principal permanents computed from raw permutation sums."""
    n = m.rows
    coeffs = [TScalar(None)] * (n + 1)
    coeffs[n] = TScalar(0)
    for k in range(1, n + 1):
        best = TScalar(None)
        for sub in combinations(range(n), k):
            for per in permutations(range(k)):
                term = TScalar(0)
                for i in range(k):
                    term = term * m[sub[i], sub[per[i]]]
                best = best + term
        coeffs[n - k] = best
    return TPoly(coeffs)


def subset_cycles(idx):
    """All cyclic orders of a set of at least two indices."""
    first, rest = idx[0], idx[1:]
    for per in permutations(rest):
        yield (first, *per)


# --- strategies ------------------------------------------------------------------


@st.composite
def tpd_matrices(draw, min_n=2, max_n=5, margin=1):
    """Symmetric signed matrices with each squared off-diagonal entry at
    least ``margin`` below the product of its diagonal neighbours."""
    n = draw(st.integers(min_n, max_n))
    diag = [draw(st.integers(0, 8)) for _ in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = P(diag[i])
    for i in range(n):
        for j in range(i + 1, n):
            bound = (diag[i] + diag[j] - margin) // 2
            kind = draw(st.integers(0, 3))
            if kind == 0:
                e = Z
            else:
                mag = draw(st.integers(-6, bound))
                e = P(mag) if kind == 1 else N(mag)
            rows[i][j] = rows[j][i] = e
    return SMatrix(rows)


signed_syms = tpd_matrices(margin=0)  # allows equality: TPSD but maybe not TPD


# --- quadratic form --------------------------------------------------------------


def test_quadratic_form_unit_vector():
    for i in range(3):
        x = [Z, Z, Z]
        x[i] = ONE
        assert quadratic_form(MIXED, tuple(x)) == MIXED[i, i]


def test_quadratic_form_pins():
    a = SMatrix([[P(0), N(-1)], [N(-1), P(0)]])
    assert quadratic_form(a, (ONE, ONE)) == P(0)
    flat = SMatrix([[P(0), P(0)], [P(0), P(0)]])
    assert quadratic_form(flat, (ONE, N(0))) == B(0)
    assert quadratic_form(flat, (Z, Z)) == Z


def test_quadratic_form_shape_errors():
    with pytest.raises(ShapeMismatch):
        quadratic_form(SMatrix([[P(1), P(0)], [N(0), P(1)]]), (ONE, ONE))
    with pytest.raises(ShapeMismatch):
        quadratic_form(MIXED, (ONE, ONE))
    with pytest.raises(NotSquare):
        quadratic_form(SMatrix([[P(1), P(0)]]), (ONE, ONE))


# --- definiteness classification -------------------------------------------------


def test_classify_pd_pins():
    assert classify_pd(MIXED) == PDClass(PDVerdict.TPD, None)
    assert classify_pd(POSITIVE).verdict is PDVerdict.TPD
    flat = SMatrix([[P(0), P(0)], [P(0), P(0)]])
    assert classify_pd(flat) == PDClass(PDVerdict.TPSD_ONLY, (0, 1))
    bad = SMatrix([[P(1), P(5)], [P(5), P(1)]])
    assert classify_pd(bad) == PDClass(PDVerdict.NOT_TPSD, (0, 1))
    neg_diag = SMatrix([[N(2)]])
    assert classify_pd(neg_diag) == PDClass(PDVerdict.NOT_TPSD, (0, 0))
    zero_diag = SMatrix([[Z]])
    assert classify_pd(zero_diag) == PDClass(PDVerdict.TPSD_ONLY, (0, 0))


def test_classify_pd_errors():
    with pytest.raises(NotSigned):
        classify_pd(SMatrix([[B(1), P(0)], [P(0), P(1)]]))
    with pytest.raises(ShapeMismatch):
        classify_pd(SMatrix([[P(1), P(0)], [N(0), P(1)]]))
    with pytest.raises(NotSquare):
        classify_pd(SMatrix([[P(1), P(0)]]))


def test_classify_pd_tpd_and_tpsd_only_witness():
    assert classify_pd(MIXED).verdict is PDVerdict.TPD
    assert classify_pd(MIXED).witness is None
    flat = SMatrix([[P(0), P(0)], [P(0), P(0)]])
    assert classify_pd(flat).verdict is PDVerdict.TPSD_ONLY
    assert classify_pd(flat).witness is not None


@given(
    a=st.integers(-3, 3),
    c=st.integers(-3, 3),
    b=st.tuples(st.integers(0, 2), st.integers(-4, 3)),
)
def test_tpd_2x2_matches_quadratic_form_grid(a, c, b):
    kind, mag = b
    off = Z if kind == 0 else (P(mag) if kind == 1 else N(mag))
    m = SMatrix([[P(a), off], [off, P(c)]])
    verdict = classify_pd(m).verdict is PDVerdict.TPD
    spread = 2 * (max(a, c, mag) - min(a, c, mag) + 1)
    mags = range(-spread, spread + 1)
    vectors = [(s1(e1), s2(e2)) for e1 in mags for e2 in mags
               for s1 in (P, N) for s2 in (P, N)]
    vectors += [(s(e), Z) for e in mags for s in (P, N)]
    vectors += [(Z, s(e)) for e in mags for s in (P, N)]
    brute = all(quadratic_form(m, x).is_pos for x in vectors)
    assert verdict == brute


# --- trace and cycle structure ---------------------------------------------------


@given(tpd_matrices())
def test_trace_equals_diagonal_product(a):
    diag = [d for d, _ in sorted_diag(a)]
    for k in range(1, a.rows + 1):
        prod = ONE
        for d in diag[:k]:
            prod = s_mul(prod, d)
        assert trace_k(a, k) == prod
        assert trace_k(a, k).is_pos


@given(signed_syms)
def test_trace_semidefinite_product_or_balanced(a):
    assume(classify_pd(a).verdict is not PDVerdict.NOT_TPSD)
    diag = [d for d, _ in sorted_diag(a)]
    for k in range(1, a.rows + 1):
        prod = ONE
        for d in diag[:k]:
            prod = s_mul(prod, d)
        t = trace_k(a, k)
        assert t == prod or t == B(prod.mag)


@given(tpd_matrices(max_n=4))
def test_cycle_weights_below_diagonal(a):
    n = a.rows
    for size in range(2, n + 1):
        for sub in combinations(range(n), size):
            bound = sum(a[i, i].mag for i in sub)
            for cyc in subset_cycles(sub):
                w = ONE
                for i in range(size):
                    w = s_mul(w, a[cyc[i], cyc[(i + 1) % size]])
                if not w.is_zero:
                    assert w.mag < bound


# --- characteristic polynomials --------------------------------------------------


def test_charpoly_pins():
    assert pretty_poly(charpoly(POSITIVE)) == "X^3 (-) 3 X^2 (+) 5 X (-) 6"
    assert pretty_poly(charpoly(MIXED)) == "X^3 (-) 3 X^2 (+) 5 X (-) 6"
    flat = SMatrix([[P(0), P(0)], [P(0), P(0)]])
    assert charpoly(flat) == SPoly([B(0), N(0), P(0)])
    with pytest.raises(NotSquare):
        charpoly(SMatrix([[P(1), P(0)]]))


def test_charpoly_of_diagonal_expands_roots():
    d = [P(5), P(3), P(0)]
    a = SMatrix.diag(d)
    assert charpoly(a) == SPoly.from_roots(d)


@given(tpd_matrices())
def test_charpoly_fast_path_matches_traces(a):
    n = a.rows
    coeffs = []
    for j in range(n + 1):
        t = trace_k(a, n - j)
        coeffs.append(s_neg(t) if (n - j) % 2 else t)
    assert charpoly(a) == SPoly(coeffs)


def test_tmax_charpoly_general():
    m = TMatrix.from_rows([[None, 5], [1, None]])
    assert tmax_charpoly(m) == brute_tmax_charpoly(m)
    assert tmax_eigenvalues(m) == [(TScalar(3), 2)]


@given(st.lists(st.lists(st.integers(-4, 4) | st.none(), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_tmax_charpoly_matches_brute(rows):
    m = TMatrix.from_rows(rows)
    assert tmax_charpoly(m) == brute_tmax_charpoly(m)


def test_tmax_eigenvalues_pins():
    assert tmax_eigenvalues(MIXED.modulus()) == [
        (TScalar(3), 1),
        (TScalar(2), 1),
        (TScalar(1), 1),
    ]
    assert tmax_eigenvalues(TMatrix.identity(4)) == [(TScalar(0), 4)]
    fam = TMatrix(
        [
            [TScalar(e) for e in row]
            for row in (
                (5, 4, 3, 2, 1),
                (4, 4, 3, 2, 1),
                (3, 3, 3, 2, 1),
                (2, 2, 2, 2, 1),
                (1, 1, 1, 1, 1),
            )
        ]
    )
    assert tmax_eigenvalues(fam) == [(TScalar(v), 1) for v in (5, 4, 3, 2, 1)]


@given(tpd_matrices())
def test_tmax_eigenvalues_modulus_diagonal(a):
    got = tmax_eigenvalues(a.modulus())
    want = sorted((a[i, i].mag for i in range(a.rows)), reverse=True)
    assert list(got.expand()) == [TScalar(v) for v in want]


def test_smax_eigenvalues_pins():
    eigs = smax_eigenvalues(MIXED)
    assert eigs == [(P(3), 1), (P(2), 1), (P(1), 1)]
    assert eigs.unique
    rep = smax_eigenvalues(SMatrix.diag([P(4), P(4), P(2)]))
    assert rep == [(P(4), 2), (P(2), 1)]
    assert smax_eigenvalues(SMatrix([[P(5)]])) == [(P(5), 1)]
    with pytest.raises(NotTPD):
        smax_eigenvalues(SMatrix([[P(0), P(0)], [P(0), P(0)]]))


@given(tpd_matrices())
def test_smax_eigenvalues_are_balance_roots(a):
    p = charpoly(a)
    for g, _ in smax_eigenvalues(a):
        assert p.eval(g).is_bal_or_zero


# --- adjugate eigenvectors -------------------------------------------------------

# Shifted matrices gamma_k I - A for MIXED and their adjugates.
B1 = SMatrix([[B(3), P(2), N(1)], [P(2), P(3), N(1)], [N(1), N(1), P(3)]])
B1_ADJ = SMatrix([[P(6), N(5), P(4)], [N(5), B(6), B(4)], [P(4), B(4), B(6)]])
B2 = SMatrix([[N(3), P(2), N(1)], [P(2), B(2), N(1)], [N(1), N(1), P(2)]])
B2_ADJ = SMatrix([[B(4), N(4), B(3)], [N(4), N(5), N(4)], [B(3), N(4), B(5)]])
B3 = SMatrix([[N(3), P(2), N(1)], [P(2), N(2), N(1)], [N(1), N(1), B(1)]])
B3_ADJ = SMatrix([[B(3), B(3), N(3)], [B(3), B(4), N(4)], [N(3), N(4), P(5)]])

V1 = (P(6), N(5), P(4))
V2 = (N(4), N(5), N(4))
V3 = (N(3), N(4), P(5))


def test_shifted_adjugates_pinned():
    for b, b_adj in ((B1, B1_ADJ), (B2, B2_ADJ), (B3, B3_ADJ)):
        assert adjugate(b) == b_adj
    for k, g in ((1, P(3)), (2, P(2)), (3, P(1))):
        shifted = (g * SMatrix.identity(3)) + (-MIXED)
        assert shifted == (B1, B2, B3)[k - 1]


def test_eigvec_adjugate_pins():
    assert eigvec_adjugate(MIXED, 1) == V1
    assert eigvec_adjugate(MIXED, 2) == V2
    assert eigvec_adjugate(MIXED, 3) == V3
    assert eigvec_adjugate(POSITIVE, 1) == (P(6), P(5), P(4))
    assert eigvec_adjugate(POSITIVE, 2) == (P(4), N(5), N(4))
    assert eigvec_adjugate(POSITIVE, 3) == (B(3), N(4), P(5))
    assert eigvec_adjugate(BALCOORD, 1) == (P(6), N(5), B(3))
    with pytest.raises(ShapeMismatch):
        eigvec_adjugate(MIXED, 0)
    with pytest.raises(ShapeMismatch):
        eigvec_adjugate(MIXED, 4)
    with pytest.raises(NotTPD):
        eigvec_adjugate(SMatrix([[N(1)]]), 1)


def test_eigvec_adjugate_unsorted_diagonal():
    # same matrix with rows/columns shuffled: vectors come back in the
    # shuffled coordinates, indexed by the k-th largest diagonal entry
    perm = [2, 0, 1]
    shuffled = SMatrix([[MIXED[i, j] for j in perm] for i in perm])
    for k, v in ((1, V1), (2, V2), (3, V3)):
        expect = tuple(v[i] for i in perm)
        assert eigvec_adjugate(shuffled, k) == expect
        assert eigvec_kleene(shuffled, k) == expect


@given(tpd_matrices())
def test_adjugate_diagonal_structure(a):
    n = a.rows
    diag = sorted_diag(a)
    simple = lambda k: (k == 1 or diag[k - 2][0].mag > diag[k - 1][0].mag) and (
        k == n or diag[k - 1][0].mag > diag[k][0].mag
    )
    for k in range(1, n + 1):
        g = diag[k - 1][0]
        b_adj = adjugate((g * SMatrix.identity(n)) + (-a))
        lam = ONE
        for d, _ in diag[: k - 1]:
            lam = s_mul(lam, d)
        for _ in range(n - k):
            lam = s_mul(lam, g)
        if (k - 1) % 2:
            lam = s_neg(lam)
        for i in range(n):
            pos_i = diag[i][1]
            entry = b_adj[pos_i, pos_i]
            assert not entry.is_zero
            if i != k - 1:
                assert entry.is_bal
            elif simple(k):
                assert entry == lam
            else:
                assert entry.is_bal


@given(tpd_matrices(max_n=4))
def test_adjugate_columns_are_weak_eigenvectors(a):
    n = a.rows
    for k in range(1, n + 1):
        g = sorted_diag(a)[k - 1][0]
        b_adj = adjugate((g * SMatrix.identity(n)) + (-a))
        for j in range(n):
            col = b_adj.col(j)
            if any(e.is_pos or e.is_neg for e in col):
                cls = classify_eigenvector(a, g, col)
                assert cls is not VectorClass.NONE


# --- Kleene star eigenvectors ----------------------------------------------------


def test_eigvec_kleene_pins():
    assert eigvec_kleene(MIXED, 1) == V1
    assert eigvec_kleene(MIXED, 2) == V2
    assert eigvec_kleene(MIXED, 3) == V3
    assert eigvec_kleene(BALCOORD, 1) == (P(6), N(5), B(3))
    assert eigvec_kleene(SMatrix([[P(5)]]), 1) == (ONE,)


def test_eigvec_kleene_not_simple():
    a = SMatrix.diag([P(4), P(4), P(2)])
    with pytest.raises(NotSimple):
        eigvec_kleene(a, 1)
    with pytest.raises(NotSimple):
        eigvec_kleene(a, 2)
    assert eigvec_kleene(a, 3) == (Z, Z, P(8))


@given(tpd_matrices())
def test_eigvec_kleene_matches_adjugate(a):
    n = a.rows
    diag = sorted_diag(a)
    for k in range(1, n + 1):
        left = k == 1 or diag[k - 2][0].mag > diag[k - 1][0].mag
        right = k == n or diag[k - 1][0].mag > diag[k][0].mag
        if left and right:
            assert eigvec_kleene(a, k) == eigvec_adjugate(a, k)


# --- classification --------------------------------------------------------------


def test_classify_pins():
    assert classify_eigenvector(MIXED, P(3), V1) is VectorClass.STRONG
    assert mat_vec(MIXED, V1) == scale_vec(P(3), V1) == (P(9), N(8), P(7))
    assert classify_eigenvector(MIXED, P(2), V2) is VectorClass.EIGEN
    assert mat_vec(MIXED, V2) == (B(7), N(7), N(6))
    assert classify_eigenvector(MIXED, P(1), V3) is VectorClass.EIGEN
    assert mat_vec(MIXED, V3) == (B(6), B(6), P(6))
    assert classify_eigenvector(POSITIVE, P(2), (P(4), N(5), N(4))) is VectorClass.EIGEN
    assert classify_eigenvector(POSITIVE, P(1), (B(3), N(4), P(5))) is VectorClass.WEAK
    v1 = eigvec_adjugate(BALCOORD, 1)
    assert mat_vec(BALCOORD, v1) == scale_vec(P(3), v1)
    assert classify_eigenvector(BALCOORD, P(3), v1) is VectorClass.WEAK


def test_classify_edge_cases():
    assert classify_eigenvector(MIXED, P(3), (Z, Z, Z)) is VectorClass.NONE
    assert classify_eigenvector(MIXED, P(3), (B(6), B(5), B(4))) is VectorClass.NONE
    assert classify_eigenvector(MIXED, P(3), (P(0), P(0), P(0))) is VectorClass.NONE
    scaled = scale_vec(N(2), V1)
    assert classify_eigenvector(MIXED, P(3), scaled) is VectorClass.STRONG


def test_positive_matrix_leading_vector_is_strong():
    # positive definite with nonnegative entries: the leading vector has
    # no negative coordinates and satisfies the equation exactly
    v1 = eigvec_adjugate(POSITIVE, 1)
    assert all(e.is_pos for e in v1)
    assert classify_eigenvector(POSITIVE, P(3), v1) is VectorClass.STRONG


@given(tpd_matrices(max_n=4))
def test_leading_vector_equation_exact(a):
    g = sorted_diag(a)[0][0]
    assume(a.rows == 1 or g.mag > sorted_diag(a)[1][0].mag)
    v1 = eigvec_adjugate(a, 1)
    assert mat_vec(a, v1) == scale_vec(g, v1)


# --- construction, uniqueness, genericity ----------------------------------------


def test_eigvec_construct_pins():
    assert eigvec_construct(BALCOORD, 1) == (P(6), N(5), P(3))
    for flip in (P(3), N(3)):
        v = (P(6), N(5), flip)
        assert classify_eigenvector(BALCOORD, P(3), v) in (
            VectorClass.EIGEN,
            VectorClass.STRONG,
        )
    assert eigvec_construct(MIXED, 1) == V1
    assert eigvec_construct(POSITIVE, 3) == (P(3), N(4), P(5))
    with pytest.raises(NotSimple):
        eigvec_construct(SMatrix.diag([P(4), P(4), P(2)]), 1)


@given(tpd_matrices(max_n=4))
def test_eigvec_construct_properties(a):
    n = a.rows
    diag = sorted_diag(a)
    for k in range(1, n + 1):
        left = k == 1 or diag[k - 2][0].mag > diag[k - 1][0].mag
        right = k == n or diag[k - 1][0].mag > diag[k][0].mag
        if not (left and right):
            continue
        vk = eigvec_adjugate(a, k)
        v = eigvec_construct(a, k)
        assert classify_eigenvector(a, diag[k - 1][0], v) in (
            VectorClass.EIGEN,
            VectorClass.STRONG,
        )
        for e, f in zip(v, vk):
            assert e.mag == f.mag
            if f.is_signed:
                assert e == f


def test_uniqueness_and_strength_pins():
    assert uniqueness_and_strength(MIXED, 1) == {
        "unique_up_to_scalar": True,
        "strong_exists": "yes",
    }
    assert uniqueness_and_strength(POSITIVE, 2) == {
        "unique_up_to_scalar": True,
        "strong_exists": "no",
    }
    assert uniqueness_and_strength(BALCOORD, 1) == {
        "unique_up_to_scalar": False,
        "strong_exists": "no",
    }
    # reducible matrix, second eigenvalue: existence stays undecided
    split = SMatrix([[P(3), Z], [Z, P(1)]])
    assert uniqueness_and_strength(split, 2) == {
        "unique_up_to_scalar": True,
        "strong_exists": "unknown",
    }
    with pytest.raises(NotSimple):
        uniqueness_and_strength(SMatrix.diag([P(4), P(4), P(2)]), 1)


def test_genericity_pins():
    assert genericity_check(MIXED) is True
    assert genericity_check(POSITIVE) is False
    assert genericity_check(BALCOORD) is False
    assert genericity_check(SMatrix.diag([P(4), P(4), P(2)])) is False
    with pytest.raises(NotTPD):
        genericity_check(SMatrix([[P(0), P(0)], [P(0), P(0)]]))


# --- report ----------------------------------------------------------------------


def test_spectral_report_worked_example():
    rep = spectral_report(MIXED)
    assert rep.eigenvalues == [(P(3), 1), (P(2), 1), (P(1), 1)]
    assert rep.generic is True
    classes = [i.classification for i in rep.vectors]
    assert classes == [VectorClass.STRONG, VectorClass.EIGEN, VectorClass.EIGEN]
    for info in rep.vectors:
        assert info.simple
        assert info.kleene == info.adjugate
        assert info.unique
    assert [i.strong_exists for i in rep.vectors] == ["yes", "no", "no"]
    assert json.loads(json.dumps(rep.to_json_dict())) == {
        "eigenvalues": [
            {"value": "p3", "mult": 1},
            {"value": "p2", "mult": 1},
            {"value": "p1", "mult": 1},
        ],
        "vectors": [
            {
                "k": 1,
                "adjugate": ["p6", "n5", "p4"],
                "kleene": ["p6", "n5", "p4"],
                "class": "strong",
                "simple": True,
                "unique": True,
                "strong_exists": "yes",
            },
            {
                "k": 2,
                "adjugate": ["n4", "n5", "n4"],
                "kleene": ["n4", "n5", "n4"],
                "class": "eigen",
                "simple": True,
                "unique": True,
                "strong_exists": "no",
            },
            {
                "k": 3,
                "adjugate": ["n3", "n4", "p5"],
                "kleene": ["n3", "n4", "p5"],
                "class": "eigen",
                "simple": True,
                "unique": True,
                "strong_exists": "no",
            },
        ],
        "generic": True,
    }


def test_spectral_report_repeated_eigenvalue():
    rep = spectral_report(SMatrix.diag([P(4), P(4), P(2)]))
    assert rep.eigenvalues == [(P(4), 2), (P(2), 1)]
    assert [i.simple for i in rep.vectors] == [False, False, True]
    assert rep.vectors[0].kleene is None
    assert rep.vectors[0].unique is False
    assert rep.vectors[0].strong_exists == "unknown"
    assert rep.vectors[2].kleene == rep.vectors[2].adjugate
    assert rep.generic is False
    d = rep.to_json_dict()
    assert d["vectors"][0]["kleene"] is None
    assert d["eigenvalues"][0] == {"value": "p4", "mult": 2}


@given(tpd_matrices(max_n=4))
def test_spectral_report_structure(a):
    rep = spectral_report(a)
    assert list(rep.eigenvalues.expand()) == [d for d, _ in sorted_diag(a)]
    for info in rep.vectors:
        if info.simple:
            assert info.kleene == info.adjugate
        else:
            assert info.kleene is None
        assert (
            classify_eigenvector(a, info.gamma, info.adjugate)
            is info.classification
        )


# --- one adjugate column per eigenvector -----------------------------------------

DATA = Path(__file__).parent / "data"

# Distinct diagonal 10 > 8 > 6 > 4 > 2, off-diagonal magnitudes one below
# the mean of their diagonal neighbours, signs alternating.
DISTINCT5 = SMatrix(
    [
        [
            P(d) if i == j else (P if (i + j) % 2 else N)((d + e) // 2 - 1)
            for j, e in enumerate((10, 8, 6, 4, 2))
        ]
        for i, d in enumerate((10, 8, 6, 4, 2))
    ]
)


@pytest.fixture
def adjugate_calls(monkeypatch):
    """Count the adjugate columns the spectral layer computes."""
    calls = []
    original = spectral.adjugate_column

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "adjugate_column", counting)
    return calls


def test_spectral_report_one_adjugate_column_per_index(adjugate_calls):
    assert classify_pd(DISTINCT5).verdict is PDVerdict.TPD
    rep = spectral_report(DISTINCT5)
    assert len(adjugate_calls) == 5
    assert all(info.simple for info in rep.vectors)
    assert all(info.kleene == info.adjugate for info in rep.vectors)


def test_star_success_path_runs_no_cycle_mean(cycle_mean_calls):
    info = eigvec_info(DISTINCT5, 1)
    assert info.kleene == info.adjugate
    kleene_star(SScalar.pos(-10) * DISTINCT5)
    assert cycle_mean_calls == []
    with pytest.raises(StarDiverges):
        kleene_star(DISTINCT5)
    assert len(cycle_mean_calls) == 1


def test_cli_eigvec_construct_one_adjugate_column(adjugate_calls, capsys):
    code = main(["eigvec", str(DATA / "pd3_balcoord.mat"), "-k", "1", "--construct"])
    assert code == 0
    assert capsys.readouterr().out.endswith("construct p6 n5 p3\n")
    assert len(adjugate_calls) == 1


def test_cli_eigvec_not_simple_at_most_one_adjugate_column(
    adjugate_calls, capsys, tmp_path
):
    path = tmp_path / "repeated.mat"
    path.write_text("3 3\np4 z z\nz p4 z\nz z p2\n")
    code = main(["eigvec", str(path), "-k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "NotSimple: eigenvalue 1 is not simple\n"
    assert len(adjugate_calls) <= 1


@given(tpd_matrices(max_n=4))
def test_eigvec_info_matches_public_routes(a):
    for k in range(1, a.rows + 1):
        info = eigvec_info(a, k)
        assert info.adjugate == eigvec_adjugate(a, k)
        if info.simple:
            assert info.kleene == eigvec_kleene(a, k)
            meta = uniqueness_and_strength(a, k)
            assert info.unique == meta["unique_up_to_scalar"]
            assert info.strong_exists == meta["strong_exists"]


def test_eigvec_index_checked_before_simplicity():
    for fn in (eigvec_info, eigvec_kleene, eigvec_construct, uniqueness_and_strength):
        for k in (0, 4):
            with pytest.raises(ShapeMismatch):
                fn(MIXED, k)


@pytest.fixture
def perturbed_star(monkeypatch):
    """Make the star route return a wrong star, one unit too heavy."""
    original = spectral.kleene_star
    monkeypatch.setattr(spectral, "kleene_star", lambda m: P(1) * original(m))


def test_star_cross_check_still_runs(perturbed_star, capsys):
    with pytest.raises(InternalMismatch):
        eigvec_kleene(MIXED, 1)
    with pytest.raises(InternalMismatch):
        spectral_report(MIXED)
    with pytest.raises(InternalMismatch):
        eigvec_info(MIXED, 1)
    code = main(["eigvec", str(DATA / "pd3_mixed.mat"), "-k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("InternalMismatch: ")


@pytest.mark.parametrize(
    "entry",
    [
        smax_eigenvalues,
        spectral_report,
        charpoly,
        genericity_check,
        lambda a: eigvec_adjugate(a, 2),
        lambda a: eigvec_kleene(a, 2),
        lambda a: eigvec_construct(a, 2),
        lambda a: eigvec_info(a, 2),
        lambda a: uniqueness_and_strength(a, 2),
    ],
    ids=[
        "smax_eigenvalues", "spectral_report", "charpoly", "genericity_check",
        "eigvec_adjugate", "eigvec_kleene", "eigvec_construct", "eigvec_info",
        "uniqueness_and_strength",
    ],
)
def test_each_entry_point_classifies_once(classify_calls, entry):
    entry(DISTINCT5)
    assert len(classify_calls) == 1


NOT_TPD = SMatrix([[P(1), P(5)], [P(5), P(1)]])


def test_definiteness_messages_come_first():
    eigvec_msg = "eigenvector formulas need a positive definite matrix"
    with pytest.raises(NotTPD, match="eigenvalues via the diagonal need"):
        smax_eigenvalues(NOT_TPD)
    for call in (
        spectral_report,
        genericity_check,
        lambda a: eigvec_adjugate(a, 9),
        lambda a: eigvec_info(a, 9),
        lambda a: eigvec_kleene(a, 9),
    ):
        with pytest.raises(NotTPD, match=eigvec_msg):
            call(NOT_TPD)
    with pytest.raises(ShapeMismatch, match=r"eigenvalue index 9 out of range 1\.\.5"):
        eigvec_info(DISTINCT5, 9)
