"""Matrices over the max-plus and signed max-plus scalars.

``TMatrix`` holds plain max-plus entries, ``SMatrix`` signed ones.  Both
are immutable tuple-of-tuple wrappers with the usual semiring matrix
operations.  Vectors are plain tuples of scalars.

The combinatorial kernels live here too: permanent (an optimal assignment
problem), determinant (signed permutation expansion with a branch and
bound search pruned by assignment bounds), adjugate, compounds, cycle
means, the Kleene star, and the two linear solvers built on Cramer
formulas.

Determinant expansion is exponential in the worst case, so square inputs
are capped (default 10, override with the TROPLECTRA_SIZE_LIMIT
environment variable or the ``size_limit`` argument).
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .semiring import (
    Mag,
    ParseError,
    SScalar,
    TScalar,
    TropError,
    _mag_cmp,
    balances,
    format_scalar,
    parse_scalar,
    pretty_scalar,
    s_add,
    s_mul,
    s_neg,
    scalar_from_json,
    scalar_to_json,
    t_add,
    t_mul,
)

__all__ = [
    "ShapeMismatch",
    "NotSquare",
    "SizeLimitExceeded",
    "StarDiverges",
    "SingularOrBalanced",
    "UnsignedRHS",
    "ZeroDeterminant",
    "SearchExhausted",
    "TMatrix",
    "SMatrix",
    "mat_pow",
    "identity",
    "mat_vec",
    "balances_vec",
    "permanent",
    "determinant",
    "adjugate",
    "adjugate_column",
    "compound",
    "trace_k",
    "max_cycle_mean",
    "kleene_star",
    "is_irreducible",
    "cramer_solve",
    "signed_solution",
    "parse_matrix",
    "format_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "pretty_matrix",
    "parse_vector",
    "format_vector",
    "pretty_vector",
]


class ShapeMismatch(TropError):
    """Operand dimensions do not line up."""


class NotSquare(TropError):
    """A square matrix was required."""


class SizeLimitExceeded(TropError):
    """Determinant-style expansion refused above the size cap."""


class StarDiverges(TropError):
    """Kleene star does not exist: some cycle mean exceeds the unit."""


class SingularOrBalanced(TropError):
    """Cramer solving needs an invertible (signed nonzero) determinant."""


class UnsignedRHS(TropError):
    """Cramer solving needs a signed adjugate-times-rhs vector."""


class ZeroDeterminant(TropError):
    """Signed solving needs a nonzero (possibly balanced) determinant."""


class SearchExhausted(TropError):
    """No sign assignment satisfied the balance system."""


_DEFAULT_SIZE_LIMIT = 10


def _det_size_limit(override: int | None) -> int:
    if override is not None:
        return override
    raw = os.environ.get("TROPLECTRA_SIZE_LIMIT")
    if raw is None:
        return _DEFAULT_SIZE_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"bad TROPLECTRA_SIZE_LIMIT value {raw!r}") from exc


# --- matrix containers -------------------------------------------------------


class _BaseMatrix:
    __slots__ = ("_rows",)

    _scalar = None  # subclass sets the entry type

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ShapeMismatch("matrices must have at least one row and column")
        m = len(rows[0])
        for r in rows:
            if len(r) != m:
                raise ShapeMismatch("ragged rows")
            for e in r:
                if not isinstance(e, self._scalar):
                    raise TypeError(
                        f"expected {self._scalar.__name__} entries, got {type(e).__name__}"
                    )
        self._rows = rows

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._rows[0])

    def row(self, i: int):
        return self._rows[i]

    def col(self, j: int):
        return tuple(r[j] for r in self._rows)

    @property
    def T(self):
        return type(self)(zip(*self._rows))

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self._rows, other._rows) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __repr__(self):
        n, m = self.shape
        return f"{type(self).__name__}({n}x{m})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _require_square(self) -> int:
        if not self.is_square():
            raise NotSquare(f"need a square matrix, got {self.rows}x{self.cols}")
        return self.rows


class TMatrix(_BaseMatrix):
    """Matrix over plain max-plus scalars."""

    __slots__ = ()
    _scalar = TScalar

    @classmethod
    def from_rows(cls, rows) -> "TMatrix":
        conv = [
            [e if isinstance(e, TScalar) else TScalar(e) for e in r] for r in rows
        ]
        return cls(conv)

    @classmethod
    def identity(cls, n: int) -> "TMatrix":
        one, bot = TScalar(0), TScalar(None)
        return cls(
            [[one if i == j else bot for j in range(n)] for i in range(n)]
        )

    def __add__(self, other: "TMatrix") -> "TMatrix":
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return TMatrix(
            [
                [t_add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __matmul__(self, other: "TMatrix") -> "TMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        bt = other.T._rows
        out = []
        for ra in self._rows:
            out.append(
                [
                    _t_dot(ra, cb)
                    for cb in bt
                ]
            )
        return TMatrix(out)

    def __pow__(self, k: int) -> "TMatrix":
        return mat_pow(self, k)


def _t_dot(u, v) -> TScalar:
    best = None
    for a, b in zip(u, v):
        if a.value is None or b.value is None:
            continue
        s = a.value + b.value
        if best is None or _mag_cmp(s, best) > 0:
            best = s
    return TScalar(best)


class SMatrix(_BaseMatrix):
    """Matrix over signed max-plus scalars."""

    __slots__ = ()
    _scalar = SScalar

    @classmethod
    def from_rows(cls, rows) -> "SMatrix":
        """Build from scalars, or from raw magnitudes taken as positive."""
        conv = [
            [e if isinstance(e, SScalar) else SScalar.pos(e) for e in r]
            for r in rows
        ]
        return cls(conv)

    @classmethod
    def identity(cls, n: int) -> "SMatrix":
        one, zero = SScalar.one(), SScalar.zero()
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, n: int, m: int | None = None) -> "SMatrix":
        z = SScalar.zero()
        m = n if m is None else m
        return cls([[z] * m for _ in range(n)])

    @classmethod
    def diag(cls, entries) -> "SMatrix":
        entries = list(entries)
        z = SScalar.zero()
        return cls(
            [
                [entries[i] if i == j else z for j in range(len(entries))]
                for i in range(len(entries))
            ]
        )

    def modulus(self) -> TMatrix:
        return TMatrix([[TScalar(e.mag) for e in r] for r in self._rows])

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        r = self._rows
        return all(
            r[i][j] == r[j][i] for i in range(self.rows) for j in range(i)
        )

    def __add__(self, other: "SMatrix") -> "SMatrix":
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return SMatrix(
            [
                [s_add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "SMatrix") -> "SMatrix":
        return self + (-other)

    def __neg__(self) -> "SMatrix":
        return SMatrix([[s_neg(e) for e in r] for r in self._rows])

    def __matmul__(self, other):
        if isinstance(other, SMatrix):
            if self.cols != other.rows:
                raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
            bt = other.T._rows
            return SMatrix(
                [[_s_dot(ra, cb) for cb in bt] for ra in self._rows]
            )
        if isinstance(other, (tuple, list)):
            return mat_vec(self, other)
        return NotImplemented

    def __rmul__(self, scalar: SScalar) -> "SMatrix":
        if not isinstance(scalar, SScalar):
            return NotImplemented
        return SMatrix([[s_mul(scalar, e) for e in r] for r in self._rows])

    def __pow__(self, k: int) -> "SMatrix":
        return mat_pow(self, k)


def _s_dot(u, v) -> SScalar:
    acc = SScalar.zero()
    for a, b in zip(u, v):
        if a.mag is None or b.mag is None:
            continue
        acc = s_add(acc, s_mul(a, b))
    return acc


def mat_pow(a, k: int):
    n = a._require_square()
    if not isinstance(k, int) or k < 0:
        raise ValueError("matrix powers take nonnegative integer exponents")
    result = type(a).identity(n)
    base = a
    while k:
        if k & 1:
            result = result @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return result


def identity(n: int) -> SMatrix:
    return SMatrix.identity(n)


def mat_vec(a: SMatrix, v) -> tuple:
    if a.cols != len(v):
        raise ShapeMismatch(f"cannot apply {a.shape} to a vector of length {len(v)}")
    return tuple(_s_dot(r, v) for r in a._rows)


def scale_vec(s: SScalar, v) -> tuple:
    return tuple(s_mul(s, e) for e in v)


def balances_vec(u, v) -> bool:
    """Entrywise balance of two vectors."""
    if len(u) != len(v):
        raise ShapeMismatch("vector lengths differ")
    return all(balances(a, b) for a, b in zip(u, v))


# --- permanent, determinant, adjugate ----------------------------------------


def _raw_mags(a) -> list[list[Mag | None]]:
    if isinstance(a, SMatrix):
        return [[e.mag for e in r] for r in a._rows]
    if isinstance(a, TMatrix):
        return [[e.value for e in r] for r in a._rows]
    raise TypeError(f"expected a matrix, got {type(a).__name__}")


def _assignment_table(mag: list[list[Mag | None]]) -> dict:
    """Best assignment weight of trailing rows into each column subset.

    ``table[(i, mask)]`` is the maximum over assignments of rows i..n-1
    into the columns of ``mask``, or None when no such assignment avoids
    a missing entry.
    """
    n = len(mag)
    table = {(n, 0): 0}
    for i in range(n - 1, -1, -1):
        row = mag[i]
        for cols in combinations(range(n), n - i):
            mask = 0
            for c in cols:
                mask |= 1 << c
            best = None
            for c in cols:
                e = row[c]
                if e is None:
                    continue
                sub = table[(i + 1, mask ^ (1 << c))]
                if sub is None:
                    continue
                v = e + sub
                if best is None or _mag_cmp(v, best) > 0:
                    best = v
            table[(i, mask)] = best
    return table


def _scaled_mags(a) -> tuple[list[list[Mag | None]], int]:
    """Magnitudes as Python ints over their common denominator ``den``.

    Exact entries are multiplied by the lcm of their denominators, so the
    kernels add and compare ints instead of Fractions; ``_unscale`` divides
    back exactly.  If any entry is a float nothing is scaled (``den`` is 1)
    and comparisons keep the float tolerance of ``_mag_cmp``.
    """
    mag = _raw_mags(a)
    den = 1
    for r in mag:
        for e in r:
            if isinstance(e, float):
                return mag, 1
            if isinstance(e, Fraction):
                den = lcm(den, e.denominator)
    return [
        [None if e is None else e.numerator * (den // e.denominator) for e in r]
        for r in mag
    ], den


def _unscale(x: Mag | None, den: int) -> Mag | None:
    if x is None or den == 1:
        return x
    return Fraction(x, den)


def permanent(a) -> TScalar:
    """Max-plus permanent: the optimal assignment weight.

    Exact magnitudes are scaled to ints by their common denominator for
    the assignment table and divided back exactly; float magnitudes are
    used unscaled.
    """
    n = a._require_square()
    mag, den = _scaled_mags(a)
    table = _assignment_table(mag)
    return TScalar(_unscale(table[(0, (1 << n) - 1)], den))


def determinant(a: SMatrix, *, size_limit: int | None = None) -> SScalar:
    """Signed permutation expansion of a square signed matrix.

    Terms are explored in decreasing order of an assignment upper bound,
    so branches that cannot reach the current leading magnitude are cut.
    Exact magnitudes are scaled to ints by their common denominator for
    the search and divided back exactly; float magnitudes are used
    unscaled, compared with the float tolerance.
    """
    n = a._require_square()
    limit = _det_size_limit(size_limit)
    if n > limit:
        raise SizeLimitExceeded(f"determinant of size {n} exceeds the cap {limit}")
    mag, den = _scaled_mags(a)
    sgn = [[e.sign for e in r] for r in a._rows]
    table = _assignment_table(mag)
    full = (1 << n) - 1
    if table[(0, full)] is None:
        return SScalar.zero()

    # accumulator: leading magnitude, its sign (+1/-1), and whether it
    # has already collapsed to balanced
    acc = [None, 1, False]

    def fold(term_mag, term_sign, term_bal):
        if acc[0] is None:
            acc[0], acc[1], acc[2] = term_mag, term_sign, term_bal
            return
        c = _mag_cmp(term_mag, acc[0])
        if c > 0:
            acc[0], acc[1], acc[2] = term_mag, term_sign, term_bal
        elif c == 0:
            if term_mag > acc[0]:
                acc[0] = term_mag
            if term_bal or acc[2] or term_sign != acc[1]:
                acc[2] = True

    def walk(i, mask, pref_mag, parity, pref_bal):
        if i == n:
            fold(pref_mag, 1 if parity == 0 else -1, pref_bal)
            return
        row_mag = mag[i]
        row_sgn = sgn[i]
        chosen = full ^ mask
        cands = []
        for c in range(n):
            bit = 1 << c
            if not mask & bit:
                continue
            e = row_mag[c]
            if e is None:
                continue
            rest = table[(i + 1, mask ^ bit)]
            if rest is None:
                continue
            cands.append((e + rest, c, bit, e))
        cands.sort(key=lambda t: t[0], reverse=True)
        for bound, c, bit, e in cands:
            if acc[0] is not None:
                cc = _mag_cmp(pref_mag + bound, acc[0])
                if cc < 0:
                    break
                if cc == 0 and acc[2]:
                    continue
            inv = (chosen >> (c + 1)).bit_count()
            s = row_sgn[c]
            walk(
                i + 1,
                mask ^ bit,
                pref_mag + e,
                parity ^ (inv & 1) ^ (1 if s < 0 else 0),
                pref_bal or s == 0,
            )

    walk(0, full, 0, 0, False)
    if acc[0] is None:
        return SScalar.zero()
    top = _unscale(acc[0], den)
    if acc[2]:
        return SScalar.bal(top)
    return SScalar.pos(top) if acc[1] > 0 else SScalar.neg(top)


def _submatrix(a: SMatrix, keep_rows, keep_cols) -> SMatrix:
    rows = a._rows
    return SMatrix([[rows[i][j] for j in keep_cols] for i in keep_rows])


def _minor_det(a, drop_row, drop_col, size_limit):
    n = a.rows
    if n == 1:
        return SScalar.one()
    keep_r = [i for i in range(n) if i != drop_row]
    keep_c = [j for j in range(n) if j != drop_col]
    return determinant(_submatrix(a, keep_r, keep_c), size_limit=size_limit)


def adjugate_column(a: SMatrix, j: int, *, size_limit: int | None = None) -> tuple:
    """Column j of the adjugate without computing the other columns."""
    n = a._require_square()
    if not 0 <= j < n:
        raise ShapeMismatch(f"column {j} out of range for size {n}")
    out = []
    for i in range(n):
        d = _minor_det(a, j, i, size_limit)
        out.append(s_neg(d) if (i + j) % 2 else d)
    return tuple(out)


def adjugate(a: SMatrix, *, size_limit: int | None = None) -> SMatrix:
    """Signed cofactor transpose; entry (i, j) drops row j and column i."""
    n = a._require_square()
    cols = [adjugate_column(a, j, size_limit=size_limit) for j in range(n)]
    return SMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def compound(a: SMatrix, k: int, *, size_limit: int | None = None) -> SMatrix:
    """k-th compound: determinants of all k by k submatrices, subsets in
    lexicographic order."""
    n = a._require_square()
    if not 0 <= k <= n:
        raise ShapeMismatch(f"compound order {k} out of range for size {n}")
    if k == 0:
        return SMatrix([[SScalar.one()]])
    subsets = list(combinations(range(n), k))
    return SMatrix(
        [
            [
                determinant(_submatrix(a, rows, cols), size_limit=size_limit)
                for cols in subsets
            ]
            for rows in subsets
        ]
    )


def trace_k(a: SMatrix, k: int, *, size_limit: int | None = None) -> SScalar:
    """Sum of all principal k by k minors (trace of the k-th compound)."""
    n = a._require_square()
    if not 0 <= k <= n:
        raise ShapeMismatch(f"minor order {k} out of range for size {n}")
    if k == 0:
        return SScalar.one()
    acc = SScalar.zero()
    for rows in combinations(range(n), k):
        acc = s_add(acc, determinant(_submatrix(a, rows, rows), size_limit=size_limit))
    return acc


# --- cycles and the star -----------------------------------------------------


def _raw_mat_mul(x, y):
    n = len(x)
    out = []
    for i in range(n):
        xi = x[i]
        row = []
        for j in range(n):
            best = None
            for k in range(n):
                a = xi[k]
                if a is None:
                    continue
                b = y[k][j]
                if b is None:
                    continue
                s = a + b
                if best is None or s > best:
                    best = s
            row.append(best)
        out.append(row)
    return out


def max_cycle_mean(a) -> TScalar:
    """Largest mean weight of a cycle in the weighted digraph of ``a``.

    Bottom when the graph is acyclic.  Means are exact for rational
    entries.
    """
    n = a._require_square()
    mag = _raw_mags(a)
    best = None
    walk = mag
    for k in range(1, n + 1):
        if k > 1:
            walk = _raw_mat_mul(walk, mag)
        for i in range(n):
            d = walk[i][i]
            if d is None:
                continue
            mean = d / k if isinstance(d, float) else Fraction(d, 1) / k
            if best is None or _mag_cmp(mean, best) > 0:
                best = mean
    return TScalar(best)


def kleene_star(a: SMatrix) -> SMatrix:
    """Sum of all powers ``I + A + A^2 + ...`` when it stabilizes.

    Exists exactly when every cycle mean of the modulus is at most the
    unit; otherwise StarDiverges.  Computed by one Gauss-Jordan
    elimination over the dioid (Lehmann 1977) on (sign, magnitude) pairs
    scaled as in ``determinant``: pivot k folds the paths through k into
    the other entries, times the star of the pivot c (1 when |c| < 0,
    1 + c when |c| = 0; |c| > 0 exactly when a positive cycle exists),
    and I is added last.  Equal entries of the result share one scalar.
    """
    n = a._require_square()
    mag, den = _scaled_mags(a)
    sgn = [[e.sign for e in r] for r in a._rows]
    for k in range(n):
        rk_mag, rk_sgn = mag[k], sgn[k]
        cmp = -1 if rk_mag[k] is None else _mag_cmp(rk_mag[k], 0)
        if cmp > 0:
            mcm = max_cycle_mean(a)
            raise StarDiverges(f"largest cycle mean {mcm!r} exceeds the unit")
        if cmp == 0 and rk_sgn[k] != 1:
            rk_sgn[:] = [0] * n  # the pivot's star is the balanced unit
        for i in range(n):
            aik, si, ri_mag, ri_sgn = mag[i][k], sgn[i][k], mag[i], sgn[i]
            if i == k or aik is None:
                continue
            for j, e in enumerate(rk_mag):
                if e is None:
                    continue
                v, s, old = aik + e, si * rk_sgn[j], ri_mag[j]
                cmp = 1 if old is None else _mag_cmp(v, old)
                if cmp > 0:
                    ri_mag[j], ri_sgn[j] = v, s
                elif cmp == 0:
                    if v > old:
                        ri_mag[j] = v
                    if s != ri_sgn[j]:
                        ri_sgn[j] = 0
    shared = {}
    for i in range(n):
        e = mag[i][i]  # no cycle outweighs the unit, so 1 + e is 1 or balanced
        if e is None or _mag_cmp(e, 0) < 0:
            sgn[i][i], mag[i][i] = 1, 0
        else:
            sgn[i][i], mag[i][i] = (1 if sgn[i][i] == 1 else 0), max(0, e)
        for j, e in enumerate(mag[i]):
            key = (sgn[i][j], e, type(e))
            if key not in shared:
                shared[key] = SScalar(key[0], _unscale(e, den))
            mag[i][j] = shared[key]
    return SMatrix(mag)


def is_irreducible(a) -> bool:
    """Strong connectivity of the nonzero pattern."""
    n = a._require_square()
    if n == 1:
        return True
    mag = _raw_mags(a)
    fwd = [[j for j in range(n) if mag[i][j] is not None] for i in range(n)]
    bwd = [[i for i in range(n) if mag[i][j] is not None] for j in range(n)]

    def reaches_all(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reaches_all(fwd) and reaches_all(bwd)


# --- linear systems ----------------------------------------------------------


def cramer_solve(a: SMatrix, b, *, size_limit: int | None = None) -> tuple:
    """Unique signed solution of ``A x`` balancing ``b`` via Cramer formulas.

    Requires an invertible (signed nonzero) determinant and a signed
    adjugate-times-rhs vector; raises otherwise.
    """
    n = a._require_square()
    if len(b) != n:
        raise ShapeMismatch(f"rhs length {len(b)} does not match size {n}")
    d = determinant(a, size_limit=size_limit)
    if not (d.is_pos or d.is_neg):
        raise SingularOrBalanced(f"determinant {format_scalar(d)} is not invertible")
    y = mat_vec(adjugate(a, size_limit=size_limit), b)
    bad = [i for i, yi in enumerate(y) if yi.is_bal]
    if bad:
        raise UnsignedRHS(f"adjugate times rhs is balanced at coordinates {bad}")
    dinv = d.inv()
    return tuple(s_mul(dinv, yi) for yi in y)


def signed_solution(a: SMatrix, b, *, size_limit: int | None = None) -> tuple:
    """Some signed solution of ``A x`` balancing ``b``.

    Exists whenever the determinant is nonzero (balanced allowed); the
    solution's modulus is forced, so only signs are searched.  Coordinates
    whose sign is not pinned by the Cramer data are resolved in index
    order, positive sign first.
    """
    n = a._require_square()
    if len(b) != n:
        raise ShapeMismatch(f"rhs length {len(b)} does not match size {n}")
    d = determinant(a, size_limit=size_limit)
    if d.is_zero:
        raise ZeroDeterminant("determinant is zero")
    y = mat_vec(adjugate(a, size_limit=size_limit), b)
    d_signed = d.is_pos or d.is_neg
    dinv_mag = -d.mag
    options = []
    for yi in y:
        if yi.is_zero:
            options.append((SScalar.zero(),))
            continue
        m = yi.mag + dinv_mag
        if d_signed and not yi.is_bal:
            options.append((SScalar(d.sign * yi.sign, m),))
        else:
            options.append((SScalar.pos(m), SScalar.neg(m)))
    for x in product(*options):
        if balances_vec(mat_vec(a, x), b):
            return x
    raise SearchExhausted("no sign pattern satisfied the balance system")


# --- text and JSON forms -----------------------------------------------------


def format_vector(v) -> str:
    return " ".join(format_scalar(e) for e in v)


def parse_vector(text: str) -> tuple:
    toks = text.split()
    if not toks:
        raise ParseError("empty vector")
    return tuple(parse_scalar(t) for t in toks)


def pretty_vector(v, unicode: bool = False) -> str:
    return "(" + ", ".join(pretty_scalar(e, unicode) for e in v) + ")"


def format_matrix(a) -> str:
    if isinstance(a, TMatrix):
        a = SMatrix(
            [
                [SScalar.zero() if e.value is None else SScalar.pos(e.value) for e in r]
                for r in a._rows
            ]
        )
    lines = [f"{a.rows} {a.cols}"]
    lines.extend(" ".join(format_scalar(e) for e in r) for r in a._rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> SMatrix:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad matrix header {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad matrix header {lines[0]!r}") from exc
    if n < 1 or m < 1:
        raise ParseError("matrix dimensions must be positive")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != m:
            raise ParseError(f"expected {m} entries per row, got {len(toks)}")
        rows.append([parse_scalar(t) for t in toks])
    return SMatrix(rows)


def matrix_to_json(a: SMatrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[scalar_to_json(e) for e in r] for r in a._rows],
    }


def matrix_from_json(obj) -> SMatrix:
    try:
        n, m = obj["rows"], obj["cols"]
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if len(entries) != n or any(len(r) != m for r in entries):
        raise ParseError("entry grid does not match declared shape")
    return SMatrix([[scalar_from_json(e) for e in r] for r in entries])


def pretty_matrix(a: SMatrix, unicode: bool = False) -> str:
    cells = [[pretty_scalar(e, unicode) for e in r] for r in a._rows]
    widths = [max(len(cells[i][j]) for i in range(a.rows)) for j in range(a.cols)]
    lines = [
        "[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]" for r in cells
    ]
    return "\n".join(lines)
