"""Polynomial roots and factorization against definitional oracles."""

from fractions import Fraction

import pytest
from conftest import small_mags, sscalars
from hypothesis import assume, given
from hypothesis import strategies as st

from troplectra.polynomial import (
    NotFactoredModulus,
    NotSigned,
    ParseError,
    RootKind,
    RootList,
    SPoly,
    TPoly,
    UnsupportedCase,
    ZeroPolynomial,
    factor_smax,
    format_poly,
    is_factored,
    multiplicity,
    parse_poly,
    pretty_poly,
    signed_part,
    smax_root_candidates,
    tmax_roots,
    verify_smax_root,
)
from troplectra.semiring import SScalar, TScalar, balances, s_mul, t_add, t_mul, t_pow

P = SScalar.pos
N = SScalar.neg
B = SScalar.bal
Z = SScalar.zero()

CUBIC = parse_poly("n6 p5 n3 p0")  # X^3 - 3X^2 + 5X - 6


# --- construction and normalization -------------------------------------------


def test_normalization():
    p = SPoly([P(1), P(2), Z, Z])
    assert p.degree == 1
    assert p.coeffs == (P(1), P(2))
    z = SPoly([Z, Z])
    assert z.is_zero and z.degree == 0
    assert z.uval is None
    assert SPoly([]).is_zero


def test_uval():
    assert SPoly([Z, Z, P(1)]).uval == 2
    assert CUBIC.uval == 0
    assert TPoly([TScalar(None), TScalar(2)]).uval == 1


def test_eval_pinned():
    assert CUBIC.eval(P(2)) == B(7)
    assert CUBIC.eval(P(3)) == B(9)
    assert CUBIC.eval(P(4)) == P(12)
    assert CUBIC.eval(Z) == N(6)
    assert CUBIC.eval(P(0)) == N(6)
    t = TPoly.from_values([4, 3, 0])
    assert t.eval(TScalar(5)) == TScalar(10)
    assert t.eval(TScalar.bottom()) == TScalar(4)


@given(sscalars(), sscalars(), sscalars())
def test_eval_is_multiplicative(a, b, x):
    p = SPoly([a, SScalar.one()])
    q = SPoly([b, SScalar.one()])
    assert (p * q).eval(x) == s_mul(p.eval(x), q.eval(x))


# --- max-plus roots ------------------------------------------------------------


def test_tmax_roots_pinned():
    assert tmax_roots(TPoly.from_values([4, 3, 0])) == [
        (TScalar(3), 1),
        (TScalar(1), 1),
    ]
    # middle coefficient below the hull: double root
    assert tmax_roots(TPoly.from_values([0, -5, 0])) == [(TScalar(0), 2)]
    # vanishing tail gives a bottom root
    assert tmax_roots(TPoly([TScalar(None), TScalar(0), TScalar(0)])) == [
        (TScalar(0), 1),
        (TScalar.bottom(), 1),
    ]
    assert tmax_roots(TPoly.from_values([2, 1, 0])) == [(TScalar(1), 2)]
    assert tmax_roots(TPoly.from_values([7])) == []
    assert tmax_roots(CUBIC) == [
        (TScalar(3), 1),
        (TScalar(2), 1),
        (TScalar(1), 1),
    ]


def test_tmax_roots_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        tmax_roots(TPoly([TScalar(None)]))
    with pytest.raises(ZeroPolynomial):
        smax_root_candidates(SPoly([Z]))


@st.composite
def tpolys(draw, max_deg=6):
    deg = draw(st.integers(0, max_deg))
    coeffs = [
        draw(st.one_of(st.just(TScalar(None)), st.builds(TScalar, small_mags)))
        for _ in range(deg)
    ]
    coeffs.append(TScalar(draw(small_mags)))
    return TPoly(coeffs)


@given(tpolys())
def test_root_multiplicities_fill_degree(p):
    roots = tmax_roots(p)
    assert roots.total_multiplicity == p.degree
    mods = [r.value for r, _ in roots]
    assert mods == sorted(mods, key=lambda v: (v is not None, v), reverse=True)


@given(tpolys())
def test_roots_are_corners(p):
    """At a finite root the maximum over monomials is attained twice."""
    for r, _ in tmax_roots(p):
        if r.value is None:
            assert p.coeffs[0].value is None
            continue
        terms = [
            t_mul(c, t_pow(r, k)).value
            for k, c in enumerate(p.coeffs)
            if c.value is not None
        ]
        top = max(terms)
        assert sum(1 for t in terms if t == top) >= 2


@given(st.lists(st.builds(TScalar, small_mags), min_size=1, max_size=5))
def test_tmax_factor_round_trip(roots):
    p = TPoly([TScalar(0)])
    for r in roots:
        p = p * TPoly([r, TScalar(0)])
    got = tmax_roots(p).expand()
    want = sorted(roots, reverse=True)
    assert got == want


def test_is_factored_pinned():
    assert is_factored(TPoly.from_values([4, 3, 0]))
    assert is_factored(TPoly.from_values([0, 5, 0]))
    assert not is_factored(TPoly.from_values([0, -5, 0]))
    assert not is_factored(TPoly([TScalar(0), TScalar(None), TScalar(0)]))
    assert is_factored(CUBIC)
    assert not is_factored(TPoly([TScalar(None)]))
    # vanishing tail is fine as long as the support run is concave
    assert is_factored(TPoly([TScalar(None), TScalar(1), TScalar(0)]))


@given(tpolys())
def test_is_factored_matches_hull(p):
    """Factored means every support point is on the hull and support is
    a full run, which is equivalent to a root expansion reproducing p."""
    if p.is_zero:
        return
    roots = tmax_roots(p)
    expansion = TPoly([p.coeffs[p.degree]])
    for r, m in roots:
        for _ in range(m):
            expansion = expansion * TPoly([r, TScalar(0)])
    assert is_factored(p) == (expansion == p)


# --- signed factorization ---------------------------------------------------------


def test_factor_pinned_cubic():
    roots = factor_smax(CUBIC)
    assert roots == [(P(3), 1), (P(2), 1), (P(1), 1)]
    assert roots.unique is True
    assert SPoly.from_roots([P(3), P(2), P(1)]) == CUBIC


def test_factor_signs_and_tail():
    p = SPoly.from_roots([N(2), N(0)])
    assert factor_smax(p) == [(N(2), 1), (N(0), 1)]
    q = SPoly([Z, N(4), P(1)])  # 1 X (X - 3), with a zero root
    roots = factor_smax(q)
    assert roots == [(P(3), 1), (Z, 1)]
    assert roots.total_multiplicity == 2


def test_factor_errors():
    with pytest.raises(NotSigned):
        factor_smax(SPoly([B(0), N(0), P(0)]))
    with pytest.raises(NotFactoredModulus):
        factor_smax(SPoly([N(0), Z, P(0)]))
    with pytest.raises(ZeroPolynomial):
        factor_smax(SPoly([Z]))
    with pytest.raises(TypeError):
        factor_smax(TPoly([TScalar(0)]))


def test_factor_non_unique_flag():
    p = SPoly([P(4), P(2), N(0)])
    roots = factor_smax(p)
    assert roots == [(P(2), 1), (N(2), 1)]
    assert roots.unique is False
    assert verify_smax_root(p, P(2)) is RootKind.SVEE_ROOT
    assert verify_smax_root(p, N(2)) is RootKind.SVEE_ROOT


@st.composite
def signed_root_lists(draw):
    roots = draw(
        st.lists(sscalars(zero=False, bal=False), min_size=1, max_size=5)
    )
    return sorted(roots, key=lambda r: r.mag, reverse=True)


@given(signed_root_lists())
def test_factor_recovers_roots(roots):
    p = SPoly.from_roots(roots)
    assume(p.all_signed())
    assume(is_factored(p.modulus()))
    got = factor_smax(p).expand()
    assert sorted(got, key=lambda r: (r.mag, r.sign)) == sorted(
        roots, key=lambda r: (r.mag, r.sign)
    )
    for r in roots:
        assert verify_smax_root(p, r) is not RootKind.NOT_ROOT


@given(signed_root_lists())
def test_factorization_balances_pointwise(roots):
    """The formal product of recovered factors balances the original at
    every signed point."""
    p = SPoly.from_roots(roots)
    assume(p.all_signed())
    assume(is_factored(p.modulus()))
    recovered = SPoly.from_roots(factor_smax(p).expand(), lead=p.coeffs[p.degree])
    for x in [Z] + [s(v) for v in (-2, 0, 3) for s in (P, N)]:
        assert balances(recovered.eval(x), p.eval(x))


# --- root classification -----------------------------------------------------------


def test_candidates_pinned():
    assert smax_root_candidates(CUBIC) == [P(3), N(3), P(2), N(2), P(1), N(1)]
    p = SPoly([Z, N(4), P(1)])
    cands = smax_root_candidates(p)
    assert Z in cands and P(3) in cands and N(3) in cands


def test_candidates_balanced_constant_includes_zero():
    p = SPoly([B(-1), P(0)])
    assert Z in smax_root_candidates(p)


def test_verify_pinned():
    assert verify_smax_root(CUBIC, P(3)) is RootKind.SVEE_ROOT
    assert verify_smax_root(CUBIC, N(3)) is RootKind.NOT_ROOT
    assert verify_smax_root(CUBIC, P(4)) is RootKind.NOT_ROOT
    with pytest.raises(NotSigned):
        verify_smax_root(CUBIC, B(3))


def test_verify_distinguishes_weak_roots():
    # balanced constant term balances everything up to its magnitude, but
    # the signed part never follows suit, so these are only weak roots
    p = SPoly([B(5), P(0)])
    assert signed_part(p) == SPoly([Z, P(0)])
    assert verify_smax_root(p, P(2)) is RootKind.S_ROOT
    assert verify_smax_root(p, P(5)) is RootKind.S_ROOT
    assert verify_smax_root(p, P(6)) is RootKind.NOT_ROOT
    # fully signed polynomial: balance roots are also signed-part roots
    q = SPoly([N(5), P(0)])
    assert verify_smax_root(q, P(5)) is RootKind.SVEE_ROOT


@given(tpolys(max_deg=4))
def test_candidates_for_positive_polynomials(tp):
    """With all-positive coefficients, positive points never balance, and
    a corner of odd width pairs monomials of opposite parity, so the
    negative candidate there is a root."""
    if tp.is_zero:
        return
    p = SPoly(
        [Z if c.value is None else P(c.value) for c in tp.coeffs]
    )
    corners = tmax_roots(p.modulus())
    cands = smax_root_candidates(p)
    for r, width in corners:
        if r.value is None:
            continue
        assert P(r.value) in cands and N(r.value) in cands
        assert verify_smax_root(p, P(r.value)) is RootKind.NOT_ROOT
        if width % 2 == 1:
            assert verify_smax_root(p, N(r.value)) is not RootKind.NOT_ROOT


def test_multiplicity():
    assert multiplicity(CUBIC, P(3)) == 1
    assert multiplicity(CUBIC, P(4)) == 0
    sq = SPoly.from_roots([P(2), P(2), N(1)])
    assert multiplicity(sq, P(2)) == 2
    assert multiplicity(sq, N(1)) == 1
    with pytest.raises(UnsupportedCase):
        multiplicity(SPoly([P(4), P(2), N(0)]), P(2))


# --- text forms ----------------------------------------------------------------------


def test_poly_text_round_trip():
    assert format_poly(CUBIC) == "n6 p5 n3 p0"
    assert parse_poly(format_poly(CUBIC)) == CUBIC
    with pytest.raises(ParseError):
        parse_poly("   ")


def test_pretty_pinned():
    assert pretty_poly(CUBIC) == "X^3 (-) 3 X^2 (+) 5 X (-) 6"
    assert pretty_poly(CUBIC, unicode=True) == "X^3 ⊖ 3 X^2 ⊕ 5 X ⊖ 6"
    assert pretty_poly(SPoly([B(0), N(0), P(0)])) == "X^2 (-) X (+) 0*"
    assert pretty_poly(SPoly([Z])) == "z"
    assert pretty_poly(SPoly([P(2), N(3)])) == "(-) 3 X (+) 2"
    assert pretty_poly(SPoly([Z, B(0), P(0)])) == "X^2 (+) 0* X"
    assert pretty_poly(SPoly([N(1)])) == "(-) 1"


@given(st.lists(sscalars(), min_size=1, max_size=6))
def test_poly_round_trip(coeffs):
    p = SPoly(coeffs)
    assert parse_poly(format_poly(p)) == p
