"""Formal polynomials over max-plus scalars, their roots and factorizations.

Coefficients are stored low degree first.  A max-plus polynomial function
is piecewise linear in the magnitude, so its roots ("corners", where the
maximum is attained at least twice) come from the upper concave hull of
the coefficient points, with multiplicities given by the horizontal
extent of each hull segment.  A vanishing tail of coefficients adds a
bottom root with the corresponding multiplicity.

For signed polynomials the right notion of root is a point where the
evaluation balances zero.  When all coefficients are signed and the
modulus polynomial factors, the polynomial splits into signed linear
factors whose roots are read off consecutive coefficient ratios.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import groupby

from .semiring import (
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
    s_pow,
    t_add,
    t_mul,
    t_pow,
)

__all__ = [
    "ZeroPolynomial",
    "NotSigned",
    "NotFactoredModulus",
    "UnsupportedCase",
    "RootKind",
    "RootList",
    "TPoly",
    "SPoly",
    "tmax_roots",
    "is_factored",
    "factor_smax",
    "smax_root_candidates",
    "verify_smax_root",
    "multiplicity",
    "signed_part",
    "parse_poly",
    "format_poly",
    "pretty_poly",
]


class ZeroPolynomial(TropError):
    """The zero polynomial has no root data."""


class NotSigned(TropError):
    """An operation needed signed (unbalanced) input."""


class NotFactoredModulus(TropError):
    """Signed factorization needs a modulus polynomial in factored form."""


class UnsupportedCase(TropError):
    """Multiplicity is only defined under unique factorization."""


class RootKind(enum.Enum):
    S_ROOT = "SRoot"
    SVEE_ROOT = "SVeeRoot"
    NOT_ROOT = "NotRoot"


class RootList(list):
    """Pairs (root, multiplicity) in decreasing modulus order.

    Plain list behaviour, plus a ``unique`` flag set by factorizations
    that can certify (or refute) uniqueness.
    """

    def __init__(self, pairs=(), unique=None):
        super().__init__(pairs)
        self.unique = unique

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self)

    def expand(self) -> list:
        """Roots repeated by multiplicity."""
        return [r for r, m in self for _ in range(m)]


class _BasePoly:
    __slots__ = ("coeffs",)

    _zero = None  # subclass: additive neutral scalar

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            coeffs = [self._zero]
        while len(coeffs) > 1 and self._is_zero_coeff(coeffs[-1]):
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self._is_zero_coeff(self.coeffs[0])

    @property
    def uval(self) -> int | None:
        """Lowest exponent with a nonzero coefficient (None for zero)."""
        for k, c in enumerate(self.coeffs):
            if not self._is_zero_coeff(c):
                return k
        return None

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}([{', '.join(map(repr, self.coeffs))}])"


class TPoly(_BasePoly):
    """Polynomial with plain max-plus coefficients."""

    __slots__ = ()
    _zero = TScalar(None)

    @staticmethod
    def _is_zero_coeff(c) -> bool:
        return c.value is None

    @classmethod
    def from_values(cls, values) -> "TPoly":
        return cls([v if isinstance(v, TScalar) else TScalar(v) for v in values])

    def eval(self, x: TScalar) -> TScalar:
        acc = TScalar(None)
        for k, c in enumerate(self.coeffs):
            acc = t_add(acc, t_mul(c, t_pow(x, k)))
        return acc

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        bot = TScalar(None)
        a = list(self.coeffs) + [bot] * (n - len(self.coeffs))
        b = list(other.coeffs) + [bot] * (n - len(other.coeffs))
        return TPoly([t_add(x, y) for x, y in zip(a, b)])

    def __mul__(self, other: "TPoly") -> "TPoly":
        bot = TScalar(None)
        out = [bot] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.value is None:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = t_add(out[i + j], t_mul(a, b))
        return TPoly(out)


class SPoly(_BasePoly):
    """Polynomial with signed max-plus coefficients."""

    __slots__ = ()
    _zero = SScalar.zero()

    @staticmethod
    def _is_zero_coeff(c) -> bool:
        return c.mag is None

    @classmethod
    def from_roots(cls, roots, lead: SScalar | None = None) -> "SPoly":
        """Product of linear factors ``X - r`` times an optional leading
        coefficient."""
        p = cls([lead if lead is not None else SScalar.one()])
        for r in roots:
            p = p * cls([s_neg(r), SScalar.one()])
        return p

    def modulus(self) -> TPoly:
        return TPoly([TScalar(c.mag) for c in self.coeffs])

    def eval(self, x: SScalar) -> SScalar:
        acc = SScalar.zero()
        for k, c in enumerate(self.coeffs):
            acc = s_add(acc, s_mul(c, s_pow(x, k)))
        return acc

    def all_signed(self) -> bool:
        return all(c.is_signed for c in self.coeffs)

    def __add__(self, other: "SPoly") -> "SPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        z = SScalar.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return SPoly([s_add(x, y) for x, y in zip(a, b)])

    def __mul__(self, other: "SPoly") -> "SPoly":
        z = SScalar.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.mag is None:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = s_add(out[i + j], s_mul(a, b))
        return SPoly(out)

    def __neg__(self) -> "SPoly":
        return SPoly([s_neg(c) for c in self.coeffs])


def _as_tpoly(p) -> TPoly:
    if isinstance(p, TPoly):
        return p
    if isinstance(p, SPoly):
        return p.modulus()
    raise TypeError(f"expected a polynomial, got {type(p).__name__}")


# --- max-plus roots ------------------------------------------------------------


def tmax_roots(p) -> RootList:
    """Corner roots with multiplicities, largest first.

    A vanishing coefficient tail below the lowest exponent contributes a
    bottom root of that multiplicity.
    """
    p = _as_tpoly(p)
    if p.is_zero:
        raise ZeroPolynomial("every point is a root of the zero polynomial")
    support = [(k, c.value) for k, c in enumerate(p.coeffs) if c.value is not None]
    hull = _upper_hull(support)
    roots = []
    for (k1, v1), (k2, v2) in zip(hull[:-1], hull[1:]):
        width = k2 - k1
        if isinstance(v1, float) or isinstance(v2, float):
            r = (v1 - v2) / width
        else:
            r = Fraction(v1 - v2, width)
        roots.append((TScalar(r), width))
    roots.reverse()
    uval = support[0][0]
    if uval > 0:
        roots.append((TScalar(None), uval))
    return RootList(roots)


def _upper_hull(pts):
    """Upper concave hull of (k, value) points, k strictly increasing."""
    hull = []
    for k, v in pts:
        while len(hull) >= 2:
            (k0, v0), (k1, v1) = hull[-2], hull[-1]
            # drop the middle point when it sits on or below the chord
            if _mag_cmp((v1 - v0) * (k - k1), (v - v1) * (k1 - k0)) <= 0:
                hull.pop()
            else:
                break
        hull.append((k, v))
    return hull


def is_factored(p) -> bool:
    """Whether the (modulus) polynomial is a product of linear factors.

    Holds exactly when the support is an unbroken run up to the degree
    and consecutive coefficient differences decrease toward low degrees,
    so that every coefficient point sits on the hull.
    """
    p = _as_tpoly(p)
    if p.is_zero:
        return False
    n = p.degree
    uval = p.uval
    vals = [c.value for c in p.coeffs]
    if any(vals[k] is None for k in range(uval, n + 1)):
        return False
    for k in range(uval + 1, n):
        if _mag_cmp(vals[k - 1] - vals[k], vals[k] - vals[k + 1]) > 0:
            return False
    return True


# --- signed roots ----------------------------------------------------------------


def factor_smax(p: SPoly) -> RootList:
    """Split a signed polynomial into linear factors.

    Needs every coefficient signed and a factored modulus; the roots are
    negated ratios of consecutive coefficients, padded with zero roots
    for a vanishing tail.  The ``unique`` flag on the result records
    whether this is the only factorization.
    """
    if not isinstance(p, SPoly):
        raise TypeError(f"expected a signed polynomial, got {type(p).__name__}")
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if not p.all_signed():
        bad = [k for k, c in enumerate(p.coeffs) if not c.is_signed]
        raise NotSigned(f"balanced coefficients at exponents {bad}")
    if not is_factored(p.modulus()):
        raise NotFactoredModulus("modulus polynomial is not a product of linear factors")
    n = p.degree
    uval = p.uval
    roots = []
    for k in range(n, uval, -1):
        r = s_neg(s_mul(p.coeffs[k - 1], p.coeffs[k].inv()))
        roots.append(r)
    pairs = [(r, len(list(run))) for r, run in groupby(roots)]
    if uval > 0:
        pairs.append((SScalar.zero(), uval))
    unique = True
    for r in {r for r, _ in pairs if r.mag is not None}:
        mate = s_neg(r)
        if mate == r:
            continue
        if (
            verify_smax_root(p, mate) is RootKind.SVEE_ROOT
            and verify_smax_root(p, r) is RootKind.SVEE_ROOT
        ):
            unique = False
            break
    return RootList(pairs, unique=unique)


def signed_part(p: SPoly) -> SPoly:
    """Keep signed coefficients, zero out balanced ones."""
    z = SScalar.zero()
    return SPoly([c if c.is_signed else z for c in p.coeffs])


def smax_root_candidates(p: SPoly) -> list:
    """Finite candidate set for signed roots: both signs over each corner
    root of the modulus, plus zero when the constant term vanishes or is
    balanced.

    Balanced coefficients can make whole magnitude ranges into roots;
    only the corner candidates are enumerated here.
    """
    if p.is_zero:
        raise ZeroPolynomial("every point is a root of the zero polynomial")
    out = []
    for r, _ in tmax_roots(p.modulus()):
        if r.value is None:
            out.append(SScalar.zero())
            continue
        out.append(SScalar.pos(r.value))
        out.append(SScalar.neg(r.value))
    c0 = p.coeffs[0]
    if (c0.is_zero or c0.is_bal) and not any(c.is_zero for c in out):
        out.append(SScalar.zero())
    return out


def verify_smax_root(p: SPoly, r: SScalar) -> RootKind:
    """Classify a signed point as a balance root, a strong (signed-part)
    root, or not a root."""
    if not r.is_signed:
        raise NotSigned(f"root candidates must be signed, got {format_scalar(r)}")
    v = p.eval(r)
    if not (v.is_zero or v.is_bal):
        return RootKind.NOT_ROOT
    if signed_part(p).eval(r) == v:
        return RootKind.SVEE_ROOT
    return RootKind.S_ROOT


def multiplicity(p: SPoly, r: SScalar) -> int:
    """Occurrence count of a root under unique factorization."""
    roots = factor_smax(p)
    if not roots.unique:
        raise UnsupportedCase("factorization is not unique")
    for root, m in roots:
        if root == r:
            return m
    return 0


# --- text forms -------------------------------------------------------------------


def format_poly(p: SPoly) -> str:
    return " ".join(format_scalar(c) for c in p.coeffs)


def parse_poly(text: str) -> SPoly:
    toks = text.split()
    if not toks:
        raise ParseError("empty polynomial")
    return SPoly([parse_scalar(t) for t in toks])


def pretty_poly(p: SPoly, unicode: bool = False) -> str:
    """Render high degree first, as in ``X^3 (-) 3 X^2 (+) 5 X (-) 6``."""
    if p.is_zero:
        return pretty_scalar(SScalar.zero(), unicode)
    plus = "⊕" if unicode else "(+)"
    minus = "⊖" if unicode else "(-)"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c.mag is None:
            continue
        conn = minus if c.is_neg else plus
        mag = pretty_scalar(c if c.is_bal else SScalar.pos(c.mag), unicode)
        body = []
        if k == 0 or c.is_bal or c.mag != 0:
            body.append(mag)
        if k >= 1:
            body.append("X" if k == 1 else f"X^{k}")
        term = " ".join(body)
        if not parts:
            parts.append(term if not c.is_neg else f"{minus} {term}")
        else:
            parts.append(f"{conn} {term}")
    return " ".join(parts)
