"""Scalar arithmetic, relations, and text forms."""

from fractions import Fraction

import pytest
from conftest import signed_scalars, small_mags, sscalars, tscalars
from hypothesis import given
from hypothesis import strategies as st

from troplectra.semiring import (
    FractionalPowerOfSigned,
    ParseError,
    SScalar,
    TScalar,
    balances,
    format_scalar,
    leq_signed,
    lt_signed,
    parse_scalar,
    preceq,
    preceq_circ,
    pretty_scalar,
    s_bal,
    s_modulus,
    s_pow,
    scalar_from_json,
    scalar_to_json,
    t_pow,
)

P = SScalar.pos
N = SScalar.neg
B = SScalar.bal
Z = SScalar.zero()
ONE = SScalar.one()


# --- pinned arithmetic -------------------------------------------------------


def test_add_examples():
    assert P(1) + N(2) == N(2)
    assert P(2) - P(2) == B(2)
    assert Z + N(5) == N(5)
    assert P(3) + P(3) == P(3)
    assert N(4) + B(4) == B(4)
    assert B(3) + P(5) == P(5)
    assert P(0) + N(0) == B(0)


def test_mul_examples():
    assert P(6) * P(2) == P(8)
    assert N(3) * N(4) == P(7)
    assert N(3) * P(4) == N(7)
    assert B(2) * N(5) == B(7)
    assert Z * B(9) == Z
    assert P(3) * ONE == P(3)
    assert P(Fraction(1, 2)) * P(Fraction(1, 2)) == P(1)


def test_neg_and_bal():
    assert -N(3) == P(3)
    assert -B(2) == B(2)
    assert -Z == Z
    assert s_bal(P(3)) == B(3)
    assert s_bal(N(3)) == B(3)
    assert s_bal(Z) == Z


def test_modulus():
    assert s_modulus(N(3)) == TScalar(3)
    assert s_modulus(B(Fraction(3, 2))) == TScalar(Fraction(3, 2))
    assert s_modulus(Z).is_bottom


def test_pow():
    assert P(2) ** 3 == P(6)
    assert s_pow(N(3), 2) == P(6)
    assert s_pow(N(3), 3) == N(9)
    assert s_pow(B(2), 5) == B(10)
    assert s_pow(P(5), Fraction(1, 2)) == P(Fraction(5, 2))
    assert s_pow(P(3), -1) == P(-3)
    assert s_pow(N(3), -1) == N(-3)
    assert s_pow(P(3), 0) == ONE
    assert s_pow(Z, 0) == ONE
    assert s_pow(Z, 4) == Z


def test_pow_errors():
    with pytest.raises(FractionalPowerOfSigned):
        s_pow(N(4), Fraction(1, 2))
    with pytest.raises(FractionalPowerOfSigned):
        s_pow(B(4), Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        s_pow(Z, -1)
    with pytest.raises(ZeroDivisionError):
        s_pow(B(1), -2)
    with pytest.raises(ZeroDivisionError):
        B(1).inv()
    with pytest.raises(ZeroDivisionError):
        Z.inv()
    assert P(2).inv() == P(-2)
    assert N(2).inv() == N(-2)


def test_normalized_fractions_compare_and_hash():
    assert P(Fraction(6, 2)) == P(3)
    assert hash(P(Fraction(6, 2))) == hash(P(3))


# --- pinned relations --------------------------------------------------------


def test_balances_examples():
    assert balances(N(4), B(4))
    assert not balances(N(4), P(4))
    assert balances(B(4), B(3))
    assert balances(P(2), P(2))
    assert balances(Z, Z)
    assert not balances(P(2), Z)


def test_preceq_examples():
    assert preceq(P(2), N(3))
    assert not preceq(P(3), N(3))
    assert not preceq(N(3), P(3))
    assert preceq(P(1), B(2))
    assert preceq(B(2), P(3))
    assert preceq(Z, N(5))


def test_preceq_circ_examples():
    assert preceq_circ(P(1), B(2))
    assert preceq_circ(N(2), B(2))
    assert not preceq_circ(P(3), B(2))
    assert preceq_circ(P(3), P(3))
    assert not preceq_circ(P(2), P(3))
    assert preceq_circ(Z, B(5))
    assert preceq_circ(B(2), B(2))
    assert not preceq_circ(B(3), B(2))
    assert not preceq_circ(B(2), P(2))


def test_signed_order_chain():
    chain = [N(3), N(2), Z, P(2), P(3)]
    for i, a in enumerate(chain):
        for b in chain[i + 1 :]:
            assert lt_signed(a, b)
            assert not lt_signed(b, a)
            assert leq_signed(a, b)


def test_signed_order_balanced_both_ways():
    assert leq_signed(P(2), B(3))
    assert leq_signed(B(3), P(2))
    assert not lt_signed(P(2), P(2))
    assert leq_signed(P(2), P(2))


# --- algebraic laws ----------------------------------------------------------


@given(sscalars(), sscalars(), sscalars())
def test_semiring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + Z == a
    assert a + a == a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * ONE == a
    assert a * Z == Z
    assert a * (b + c) == a * b + a * c


@given(sscalars(), sscalars())
def test_negation_laws(a, b):
    assert -(-a) == a
    assert -(a + b) == (-a) + (-b)
    assert -(a * b) == (-a) * b
    assert s_bal(a) == a - a


@given(sscalars(), sscalars())
def test_modulus_is_morphism(a, b):
    assert s_modulus(a * b) == s_modulus(a) * s_modulus(b)
    assert s_modulus(a + b) == s_modulus(a) + s_modulus(b)


@given(sscalars(), sscalars())
def test_balance_relation(a, b):
    assert balances(a, a)
    assert balances(a, b) == balances(b, a)
    # mutual weak inequality is exactly the balance relation
    assert (leq_signed(a, b) and leq_signed(b, a)) == balances(a, b)


@given(signed_scalars(), signed_scalars())
def test_balance_on_signed_is_equality(a, b):
    if balances(a, b):
        assert a == b


@given(sscalars(), signed_scalars())
def test_balance_with_preceq_forces_equality(a, b):
    if balances(a, b) and preceq(a, b):
        assert a == b


@given(sscalars(), sscalars())
def test_modulus_sum_interplay(a, b):
    am, bm = s_modulus(a), s_modulus(b)
    if am < bm:
        assert a + b == b
    if preceq(a, b) and am == bm and b.is_signed and not b.is_zero:
        assert a == b
    if am <= bm and b.is_bal:
        assert preceq_circ(a, b)
    if a + b == b:
        assert am <= bm


@given(sscalars(), sscalars())
def test_preceq_circ_means_balanced_increment(a, b):
    # direct check against the defining search over balanced increments
    mags = {a.mag, b.mag} - {None}
    incs = [Z] + [B(m) for m in mags]
    expected = any(a + c == b for c in incs)
    assert preceq_circ(a, b) == expected


@given(signed_scalars(), signed_scalars())
def test_signed_order_is_total(a, b):
    assert leq_signed(a, b) or leq_signed(b, a)
    if leq_signed(a, b) and leq_signed(b, a):
        assert a == b


@given(signed_scalars(), signed_scalars(), signed_scalars())
def test_signed_order_transitive(a, b, c):
    if leq_signed(a, b) and leq_signed(b, c):
        assert leq_signed(a, c)


@given(signed_scalars(), signed_scalars(), signed_scalars())
def test_product_preserves_signed_order(a, b, c):
    if leq_signed(a, b) and leq_signed(Z, c):
        assert leq_signed(a * c, b * c)
    if lt_signed(a, b) and lt_signed(Z, c):
        assert lt_signed(a * c, b * c)


@given(signed_scalars(), signed_scalars())
def test_squares_order_matches_modulus_order(a, b):
    assert lt_signed(a * a, b * b) == (s_modulus(a) < s_modulus(b))
    assert leq_signed(a * a, b * b) == (s_modulus(a) <= s_modulus(b))


@given(sscalars(zero=False), st.integers(1, 4), st.integers(1, 4))
def test_power_laws(a, k, l):
    assert s_pow(a, k) * s_pow(a, l) == s_pow(a, k + l)
    assert s_pow(s_pow(a, k), l) == s_pow(a, k * l)


@given(sscalars(), sscalars(), st.integers(1, 4))
def test_power_of_product(a, b, k):
    assert s_pow(a * b, k) == s_pow(a, k) * s_pow(b, k)


# --- plain max-plus scalars --------------------------------------------------


def test_tscalar_basics():
    bot = TScalar.bottom()
    assert TScalar(3) + TScalar(5) == TScalar(5)
    assert TScalar(3) * TScalar(5) == TScalar(8)
    assert bot + TScalar(2) == TScalar(2)
    assert (bot * TScalar(2)).is_bottom
    assert TScalar(4).inv() == TScalar(-4)
    assert t_pow(TScalar(3), Fraction(1, 2)) == TScalar(Fraction(3, 2))
    assert t_pow(TScalar.bottom(), 2).is_bottom
    with pytest.raises(ZeroDivisionError):
        TScalar.bottom().inv()


@given(tscalars, tscalars, tscalars)
def test_tscalar_axioms(a, b, c):
    bot = TScalar.bottom()
    one = TScalar.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + bot == a
    assert a + a == a
    assert (a * b) * c == a * (b * c)
    assert a * one == a
    assert (a * bot).is_bottom
    assert a * (b + c) == a * b + a * c


@given(tscalars, tscalars)
def test_tscalar_total_order(a, b):
    assert a <= b or b <= a
    if a <= b and b <= a:
        assert a == b
    assert (a + b) == (b if a <= b else a)


# --- text and JSON forms -----------------------------------------------------


def test_format_examples():
    assert format_scalar(P(3)) == "p3"
    assert format_scalar(N(-1)) == "n-1"
    assert format_scalar(B(Fraction(3, 2))) == "b3/2"
    assert format_scalar(Z) == "z"


def test_parse_examples():
    assert parse_scalar("p3") == P(3)
    assert parse_scalar(" n-1 ") == N(-1)
    assert parse_scalar("b3/2") == B(Fraction(3, 2))
    assert parse_scalar("p2.5") == P(Fraction(5, 2))
    assert parse_scalar("z") == Z


@pytest.mark.parametrize("bad", ["", "q3", "p", "pabc", "p1/0", "zz", "3"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@given(sscalars())
def test_token_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@given(sscalars())
def test_json_round_trip(a):
    assert scalar_from_json(scalar_to_json(a)) == a


def test_json_rejects():
    with pytest.raises(ParseError):
        scalar_from_json({"s": "p"})
    with pytest.raises(ParseError):
        scalar_from_json({"s": "x", "m": "1"})
    with pytest.raises(ParseError):
        scalar_from_json([1, 2])


def test_pretty():
    assert pretty_scalar(P(6)) == "6"
    assert pretty_scalar(N(5)) == "(-)5"
    assert pretty_scalar(B(3)) == "3*"
    assert pretty_scalar(Z) == "z"
    assert pretty_scalar(N(5), unicode=True) == "⊖5"
    assert pretty_scalar(B(3), unicode=True) == "3°"
    assert pretty_scalar(P(Fraction(-3, 2))) == "-3/2"


# --- float lane --------------------------------------------------------------


def test_float_near_tie_balances():
    a = P(1.0)
    b = N(1.0 + 1e-12)
    assert (a + b).is_bal


def test_float_eps_respected_in_equality():
    assert P(2.0) == P(2.0 + 1e-10)
    assert P(2.0) != P(2.0 + 1e-6)
