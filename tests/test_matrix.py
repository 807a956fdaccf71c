"""Matrix kernels against brute-force oracles and pinned worked examples."""

from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from conftest import small_mags, sscalars
from hypothesis import example, given, settings
from hypothesis import strategies as st

from troplectra.matrix import (
    NotSquare,
    ParseError,
    SearchExhausted,
    ShapeMismatch,
    SingularOrBalanced,
    SizeLimitExceeded,
    SMatrix,
    StarDiverges,
    TMatrix,
    UnsignedRHS,
    ZeroDeterminant,
    adjugate,
    adjugate_column,
    balances_vec,
    compound,
    cramer_solve,
    determinant,
    format_matrix,
    format_vector,
    identity,
    is_irreducible,
    kleene_star,
    mat_pow,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
    max_cycle_mean,
    parse_matrix,
    parse_vector,
    permanent,
    pretty_matrix,
    signed_solution,
    trace_k,
)
from troplectra.semiring import (
    SScalar,
    TScalar,
    balances,
    preceq_circ,
    s_add,
    s_mul,
    s_neg,
)
from troplectra.valuation import random_tpd

P = SScalar.pos
N = SScalar.neg
B = SScalar.bal
Z = SScalar.zero()
ONE = SScalar.one()


def S(rows):
    return SMatrix.from_rows(
        [[e if isinstance(e, SScalar) else P(e) for e in r] for r in rows]
    )


# --- oracles: direct definitional expansions ---------------------------------


def brute_permanent(a) -> TScalar:
    n = a.rows
    mag = [[a[i, j].mag if isinstance(a, SMatrix) else a[i, j].value for j in range(n)] for i in range(n)]
    best = None
    for pi in permutations(range(n)):
        w = 0
        ok = True
        for i in range(n):
            e = mag[i][pi[i]]
            if e is None:
                ok = False
                break
            w += e
        if ok and (best is None or w > best):
            best = w
    return TScalar(best)


def perm_parity(pi) -> int:
    inv = sum(1 for i in range(len(pi)) for j in range(i + 1, len(pi)) if pi[i] > pi[j])
    return inv % 2


def brute_determinant(a: SMatrix) -> SScalar:
    n = a.rows
    acc = SScalar.zero()
    for pi in permutations(range(n)):
        term = SScalar.one() if perm_parity(pi) == 0 else SScalar.neg(0)
        for i in range(n):
            term = s_mul(term, a[i, pi[i]])
        acc = s_add(acc, term)
    return acc


def brute_adjugate(a: SMatrix) -> SMatrix:
    n = a.rows
    if n == 1:
        return SMatrix([[SScalar.one()]])
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            keep_r = [r for r in range(n) if r != j]
            keep_c = [c for c in range(n) if c != i]
            minor = SMatrix([[a[r, c] for c in keep_c] for r in keep_r])
            d = brute_determinant(minor)
            out[i][j] = s_neg(d) if (i + j) % 2 else d
    return SMatrix(out)


def brute_max_cycle_mean(a) -> TScalar:
    n = a.rows
    mag = [[a[i, j].mag if isinstance(a, SMatrix) else a[i, j].value for j in range(n)] for i in range(n)]
    best = None
    for k in range(1, n + 1):
        for nodes in combinations(range(n), k):
            first = nodes[0]
            for rest in permutations(nodes[1:]):
                cyc = (first,) + rest
                w = 0
                ok = True
                for t in range(k):
                    e = mag[cyc[t]][cyc[(t + 1) % k]]
                    if e is None:
                        ok = False
                        break
                    w += e
                if ok:
                    mean = Fraction(w) / k if not isinstance(w, float) else w / k
                    if best is None or mean > best:
                        best = mean
    return TScalar(best)


def squaring_star(a: SMatrix) -> SMatrix:
    """The star as the fixed point of squaring I + A, for convergent A."""
    s = SMatrix.identity(a.rows) + a
    while True:
        s2 = s @ s
        if s2 == s:
            return s
        s = s2


def signed_entries(m: SMatrix) -> list:
    """Every entry as its exact (sign, magnitude) pair."""
    return [[(e.sign, e.mag) for e in r] for r in m._rows]


def power_sum(a: SMatrix, m: int) -> SMatrix:
    """I + A + ... + A^m by direct accumulation."""
    total = SMatrix.identity(a.rows)
    p = SMatrix.identity(a.rows)
    for _ in range(m):
        p = p @ a
        total = total + p
    return total


# --- strategies ---------------------------------------------------------------


@st.composite
def smatrices(draw, min_n=1, max_n=4, entries=None):
    n = draw(st.integers(min_n, max_n))
    e = entries if entries is not None else sscalars()
    return SMatrix([[draw(e) for _ in range(n)] for _ in range(n)])


@st.composite
def smatrix_pairs(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    e = sscalars()

    def mk():
        return SMatrix([[draw(e) for _ in range(n)] for _ in range(n)])

    return mk(), mk()


@st.composite
def systems(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    a = SMatrix([[draw(sscalars()) for _ in range(n)] for _ in range(n)])
    b = tuple(draw(sscalars(bal=False)) for _ in range(n))
    return a, b


# --- containers ---------------------------------------------------------------


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        SMatrix([[P(1)], [P(1), P(2)]])
    with pytest.raises(ShapeMismatch):
        SMatrix([])
    with pytest.raises(TypeError):
        SMatrix([[1]])
    with pytest.raises(ShapeMismatch):
        S([[1, 2]]) + S([[1], [2]])
    with pytest.raises(ShapeMismatch):
        S([[1, 2]]) @ S([[1, 2]])
    with pytest.raises(NotSquare):
        determinant(S([[1, 2]]))
    with pytest.raises(NotSquare):
        mat_pow(S([[1, 2]]), 2)


def test_basic_product():
    a = S([[1, 2], [Z, 0]])
    assert a @ identity(2) == a
    b = a @ a
    assert b == S([[2, 3], [Z, 0]])
    v = mat_vec(a, (P(0), N(1)))
    assert v == (N(3), N(1))
    assert a @ (P(0), N(1)) == v


def test_rmul_and_pow():
    a = S([[1, 2], [3, Z]])
    assert P(2) * a == S([[3, 4], [5, Z]])
    assert a ** 0 == identity(2)
    assert a ** 3 == a @ a @ a


@given(smatrix_pairs())
def test_product_modulus_morphism(ab):
    a, b = ab
    assert (a @ b).modulus() == a.modulus() @ b.modulus()


@given(smatrix_pairs())
def test_matrix_distributivity(ab):
    a, b = ab
    assert a @ (a + b) == a @ a + a @ b
    assert (a + b).T == a.T + b.T


# --- permanent and determinant -----------------------------------------------

# Extra oracle inputs for the kernels' two lanes: float magnitudes (alone or
# mixed with Fractions) are searched unscaled under the float tolerance;
# exact magnitudes are scaled by the lcm of their denominators, here 105.
F = Fraction
FLOAT_TIE = SMatrix([[P(0.1), P(0.3)], [P(0.0), P(0.2)]])
FLOAT_3 = SMatrix(
    [[P(1.5), N(0.25), P(2.0)], [B(0.75), P(1.0), Z], [N(0.5), P(1.25), P(0.125)]]
)
MIXED_FLOAT_FRACTION = SMatrix(
    [
        [P(F(1, 3)), N(0.5), P(2)],
        [P(F(5, 4)), P(1.0), N(F(2, 3))],
        [Z, B(0.25), P(F(-1, 2))],
    ]
)
DENOM_105 = SMatrix(
    [
        [P(F(1, 3)), N(F(2, 5)), P(F(1, 7))],
        [P(F(3, 5)), P(F(1, 7)), N(F(2, 3))],
        [N(F(4, 7)), P(F(1, 3)), P(F(1, 5))],
    ]
)
DENOM_105_TIE = SMatrix([[P(F(1, 3)), P(F(1, 5))], [P(F(1, 7)), P(F(1, 105))]])
KERNEL_EXAMPLES = (FLOAT_TIE, FLOAT_3, MIXED_FLOAT_FRACTION, DENOM_105, DENOM_105_TIE)


def with_kernel_examples(test):
    for a in KERNEL_EXAMPLES:
        test = example(a)(test)
    return test


@given(smatrices())
@with_kernel_examples
def test_permanent_matches_oracle(a):
    assert permanent(a) == brute_permanent(a)
    assert permanent(a.modulus()) == brute_permanent(a)


@given(smatrices())
@with_kernel_examples
def test_determinant_matches_oracle(a):
    assert determinant(a) == brute_determinant(a)


def test_kernel_magnitude_types():
    # exact in, exact out: whole results collapse to int, others stay Fractions
    d = determinant(DENOM_105)
    assert d == N(F(172, 105)) and type(d.mag) is Fraction
    d = determinant(DENOM_105_TIE)
    assert d == B(F(12, 35)) and type(d.mag) is Fraction
    assert type(determinant(S([[F(1, 2), 1], [1, F(3, 2)]])).mag) is int
    assert permanent(DENOM_105.modulus()) == TScalar(F(172, 105))
    assert type(permanent(DENOM_105).value) is Fraction
    # any float magnitude keeps the result in floats
    assert type(determinant(MIXED_FLOAT_FRACTION).mag) is float
    assert determinant(FLOAT_TIE) == B(0.3)


@settings(max_examples=25)
@given(smatrices(min_n=5, max_n=5))
def test_determinant_matches_oracle_5x5(a):
    assert determinant(a) == brute_determinant(a)


@given(smatrices())
def test_determinant_modulus_is_permanent(a):
    assert s_modulus_eq(determinant(a), permanent(a))


def s_modulus_eq(s: SScalar, t: TScalar) -> bool:
    return TScalar(s.mag) == t


@given(smatrices())
def test_determinant_transpose_invariant(a):
    assert determinant(a.T) == determinant(a)


@given(smatrices(min_n=2, max_n=4))
def test_row_swap_negates_determinant(a):
    rows = list(a.row(i) for i in range(a.rows))
    rows[0], rows[1] = rows[1], rows[0]
    assert determinant(SMatrix(rows)) == -determinant(a)


@given(smatrices(min_n=2, max_n=4))
def test_duplicate_row_balances(a):
    rows = [list(a.row(i)) for i in range(a.rows)]
    rows[1] = rows[0]
    d = determinant(SMatrix(rows))
    assert d.is_zero or d.is_bal


def test_determinant_pinned():
    assert determinant(S([[3, 2], [2, 2]])) == P(5)
    assert determinant(S([[1, 1], [1, 1]])) == B(2)
    assert determinant(identity(3)) == ONE
    assert determinant(S([[1, 1], [Z, Z]])) == Z
    a = S([[3, 2, 1], [2, 2, 1], [1, 1, 1]])
    assert determinant(a) == P(6)
    assert permanent(a.modulus()) == TScalar(6)


def test_determinant_size_cap(monkeypatch):
    big = identity(11)
    with pytest.raises(SizeLimitExceeded):
        determinant(big)
    assert determinant(big, size_limit=11) == ONE
    monkeypatch.setenv("TROPLECTRA_SIZE_LIMIT", "12")
    assert determinant(big) == ONE
    monkeypatch.setenv("TROPLECTRA_SIZE_LIMIT", "four")
    with pytest.raises(ParseError):
        determinant(big)


# --- adjugate and compounds ---------------------------------------------------


@given(smatrices(max_n=4))
def test_adjugate_matches_oracle(a):
    adj = adjugate(a)
    assert adj == brute_adjugate(a)
    for j in range(a.rows):
        assert adjugate_column(a, j) == adj.col(j)


@given(smatrices(max_n=4))
def test_adjugate_product_dominates_determinant(a):
    n = a.rows
    d = determinant(a)
    prod = a @ adjugate(a)
    for i in range(n):
        for j in range(n):
            target = d if i == j else Z
            assert preceq_circ(target, prod[i, j])


@given(smatrices(max_n=4))
def test_compound_ends(a):
    n = a.rows
    c0 = compound(a, 0)
    assert c0 == SMatrix([[ONE]])
    assert compound(a, 1) == a
    cn = compound(a, n)
    assert cn == SMatrix([[determinant(a)]])


def test_compound_entries_are_minor_determinants():
    a = S([[3, 2, 1], [2, 2, 1], [1, 1, 1]])
    c = compound(a, 2)
    assert c.shape == (3, 3)
    subsets = [(0, 1), (0, 2), (1, 2)]
    for ri, rows in enumerate(subsets):
        for ci, cols in enumerate(subsets):
            minor = SMatrix([[a[r, c_] for c_ in cols] for r in rows])
            assert c[ri, ci] == brute_determinant(minor)


@given(smatrices(max_n=4))
def test_trace_k_matches_principal_minors(a):
    n = a.rows
    assert trace_k(a, 0) == ONE
    for k in range(1, n + 1):
        acc = Z
        for rows in combinations(range(n), k):
            minor = SMatrix([[a[r, c] for c in rows] for r in rows])
            acc = s_add(acc, brute_determinant(minor))
        assert trace_k(a, k) == acc


def test_compound_bad_order():
    with pytest.raises(ShapeMismatch):
        compound(identity(2), 3)
    with pytest.raises(ShapeMismatch):
        trace_k(identity(2), -1)


# --- cycle means and the star --------------------------------------------------


@given(smatrices(max_n=4))
def test_max_cycle_mean_matches_oracle(a):
    assert max_cycle_mean(a) == brute_max_cycle_mean(a)
    assert max_cycle_mean(a.modulus()) == brute_max_cycle_mean(a)


def test_max_cycle_mean_pinned():
    assert max_cycle_mean(S([[0]])) == TScalar(0)
    assert max_cycle_mean(SMatrix([[Z, P(2)], [Z, Z]])).is_bottom
    two_cycle = SMatrix([[Z, P(2)], [P(3), Z]])
    assert max_cycle_mean(two_cycle) == TScalar(Fraction(5, 2))


def test_star_pinned_worked_example():
    # normalized matrix whose star mixes signed and balanced entries
    c = SMatrix(
        [
            [P(0), N(-1), P(-3)],
            [N(-1), P(-1), P(-2)],
            [P(-3), P(-2), P(-2)],
        ]
    )
    star = kleene_star(c)
    expected = SMatrix(
        [
            [P(0), N(-1), B(-3)],
            [N(-1), P(0), P(-2)],
            [B(-3), P(-2), P(0)],
        ]
    )
    assert star == expected


def test_star_diverges():
    with pytest.raises(StarDiverges):
        kleene_star(S([[1]]))
    with pytest.raises(StarDiverges):
        kleene_star(SMatrix([[Z, P(2)], [N(-1), Z]]))


def normalized(a: SMatrix) -> SMatrix:
    """Scale so the largest cycle mean is the unit (star then exists)."""
    mcm = max_cycle_mean(a)
    if mcm.is_bottom or mcm == TScalar(0):
        return a
    return SScalar.pos(-mcm.value) * a


@given(smatrices(max_n=4))
def test_star_is_truncated_power_sum(a):
    a = normalized(a)
    star = kleene_star(a)
    n = a.rows
    # cycles never raise walk weight once means are at most the unit,
    # so the modulus of the star is a short truncated sum
    assert star.modulus() == power_sum(a, n).modulus()
    assert star == SMatrix.identity(n) + a @ star


@given(smatrices(max_n=4), st.integers(0, 4))
def test_unit_plus_power_expansion(a, m):
    lhs = mat_pow(SMatrix.identity(a.rows) + a, m)
    assert lhs == power_sum(a, m)


@given(smatrices(max_n=4))
def test_irreducible_star_has_no_zeros(a):
    a = normalized(a)
    if not is_irreducible(a):
        return
    star = kleene_star(a)
    assert all(
        not star[i, j].is_zero for i in range(a.rows) for j in range(a.rows)
    )


@given(smatrices(max_n=5))
def test_star_matches_squaring_oracle(a):
    a = normalized(a)
    assert signed_entries(kleene_star(a)) == signed_entries(squaring_star(a))


@pytest.mark.parametrize("seed", range(8))
def test_star_matches_squaring_oracle_contracted_tpd(seed):
    a = random_tpd(12, seed)
    top = max(a[i, i].mag for i in range(a.rows))
    c = SScalar.pos(-top) * a
    star = kleene_star(c)
    assert signed_entries(star) == signed_entries(squaring_star(c))
    # equal entries share one scalar object, which keeps stars small
    entries = [e for r in star._rows for e in r]
    assert len({id(e) for e in entries}) == len({(e.sign, e.mag) for e in entries})


@pytest.mark.parametrize("gap", [-3e-10, 3e-10])
def test_star_float_near_unit_cycle_balances(gap):
    # the 2-cycle has a negative sign and weight within 1e-9 of the unit,
    # so it balances the identity instead of diverging
    a = SMatrix([[Z, P(0.25)], [N(-0.25 + gap), Z]])
    star = kleene_star(a)
    assert star[0, 0] == B(0) and star[1, 1] == B(0)
    assert star == squaring_star(a)


def test_star_float_tie_keeps_larger_magnitude():
    # the path 1 -> 0 -> 2 ties with the edge 1 -> 2 within 1e-9; as in
    # s_add, the balanced entry keeps the larger of the two magnitudes
    a = SMatrix([[Z, Z, P(-0.5 + 3e-10)], [N(-0.5), Z, P(-1.0)], [Z, Z, Z]])
    path = -0.5 + (-0.5 + 3e-10)
    star = kleene_star(a)
    assert (star[1, 2].sign, star[1, 2].mag) == (0, path)
    assert (star[1, 0].sign, star[1, 0].mag) == (-1, -0.5)


@given(
    smatrices(max_n=5),
    st.sampled_from([None, Fraction(-1, 2), Fraction(0), Fraction(1, 2)]),
)
def test_star_diverges_iff_positive_cycle_mean(a, shift):
    if shift is not None:
        a = P(shift) * normalized(a)
    mcm = max_cycle_mean(a)
    if TScalar(0) < mcm:
        with pytest.raises(StarDiverges) as info:
            kleene_star(a)
        assert str(info.value) == f"largest cycle mean {mcm!r} exceeds the unit"
    else:
        kleene_star(a)


def test_is_irreducible_pinned():
    assert is_irreducible(S([[1]]))
    assert is_irreducible(S([[1, 2], [3, 4]]))
    assert not is_irreducible(SMatrix([[P(1), P(2)], [Z, P(1)]]))
    cycle = SMatrix([[Z, P(1), Z], [Z, Z, P(1)], [P(1), Z, Z]])
    assert is_irreducible(cycle)
    chain = SMatrix([[Z, P(1), Z], [Z, Z, P(1)], [Z, Z, Z]])
    assert not is_irreducible(chain)


# --- linear systems -----------------------------------------------------------


def test_cramer_pinned():
    a = S([[1, 0], [0, 1]])
    x = cramer_solve(a, (P(3), P(1)))
    assert x == (P(2), N(1))
    assert balances_vec(mat_vec(a, x), (P(3), P(1)))


def test_cramer_errors():
    with pytest.raises(SingularOrBalanced):
        cramer_solve(S([[1, 1], [1, 1]]), (P(0), P(0)))
    with pytest.raises(SingularOrBalanced):
        cramer_solve(SMatrix([[Z, Z], [Z, Z]]), (P(0), P(0)))
    with pytest.raises(UnsignedRHS):
        cramer_solve(identity(2), (B(3), P(1)))
    with pytest.raises(ShapeMismatch):
        cramer_solve(identity(2), (P(1),))


@given(systems())
def test_cramer_solution_balances_and_is_unique(ab):
    a, b = ab
    try:
        x = cramer_solve(a, b)
    except (SingularOrBalanced, UnsignedRHS):
        return
    assert balances_vec(mat_vec(a, x), b)
    assert all(e.is_signed for e in x)
    # uniqueness: no other sign pattern on the same moduli balances
    n = a.rows
    options = []
    for e in x:
        options.append((Z,) if e.is_zero else (P(e.mag), N(e.mag)))
    matches = [
        v for v in product(*options) if balances_vec(mat_vec(a, v), b)
    ]
    assert matches == [x]


@given(systems())
def test_signed_solution_properties(ab):
    a, b = ab
    d = determinant(a)
    if d.is_zero:
        with pytest.raises(ZeroDeterminant):
            signed_solution(a, b)
        return
    x = signed_solution(a, b)
    assert balances_vec(mat_vec(a, x), b)
    assert all(e.is_signed for e in x)
    y = mat_vec(adjugate(a), b)
    for xi, yi in zip(x, y):
        assert TScalar(xi.mag) == TScalar(yi.mag) * TScalar(d.mag).inv()


def test_signed_solution_balanced_determinant_pinned():
    a = S([[1, 1], [1, 1]])
    x = signed_solution(a, (P(0), Z))
    assert x == (P(-1), N(-1))
    assert balances_vec(mat_vec(a, x), (P(0), Z))


def test_signed_solution_prefers_positive():
    # both all-positive and all-negative patterns balance; positive wins
    x = signed_solution(S([[1, 1], [1, 1]]), (B(2), B(2)))
    assert x == (P(1), P(1))


def test_signed_solution_zero_rhs_gives_zero():
    x = signed_solution(S([[1, 1], [1, 1]]), (Z, Z))
    assert x == (Z, Z)


# --- text and JSON forms --------------------------------------------------------


def test_matrix_text_round_trip():
    a = SMatrix([[P(3), N(2), Z], [B(Fraction(1, 2)), P(0), N(-4)]])
    text = format_matrix(a)
    assert text.splitlines()[0] == "2 3"
    assert parse_matrix(text) == a


def test_matrix_text_pinned():
    text = "2 2\np3 n2\nz b1/2\n"
    a = parse_matrix(text)
    assert a[0, 0] == P(3)
    assert a[1, 1] == B(Fraction(1, 2))
    assert format_matrix(a) == text


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2\np1",
        "2 2\np1 p2\np3",
        "1 2\np1",
        "x y\np1 p2",
        "0 2\n",
        "1 1\nq3",
    ],
)
def test_matrix_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_matrix(bad)


@given(smatrices(max_n=3))
def test_matrix_json_round_trip(a):
    assert matrix_from_json(matrix_to_json(a)) == a


def test_vector_forms():
    v = (P(3), N(2), Z)
    assert parse_vector(format_vector(v)) == v
    assert format_vector(v) == "p3 n2 z"
    with pytest.raises(ParseError):
        parse_vector("  ")


def test_pretty_matrix():
    a = SMatrix([[P(3), N(2)], [Z, B(1)]])
    out = pretty_matrix(a)
    assert out.splitlines() == ["[ 3  (-)2 ]", "[ z    1* ]"]
    uni = pretty_matrix(a, unicode=True)
    assert "⊖" in uni and "°" in uni
