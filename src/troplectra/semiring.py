"""Scalar arithmetic for max-plus algebra and its signed extension.

Two scalar types live here.

``TScalar`` is an ordinary max-plus number: a rational (or float) magnitude
under (max, +), with an absorbing bottom element acting as the additive
neutral.

``SScalar`` extends the max-plus numbers with signs.  Every nonzero element
carries a sign class: positive, negative, or balanced.  Balanced elements
are the "zero divisors" produced when a quantity and its negation collide
at the same magnitude; they are the algebra's substitute for an honest
zero difference.  Addition keeps the larger magnitude and resolves sign
clashes at equal magnitude into the balanced class.  Multiplication adds
magnitudes and multiplies signs, with balanced absorbing.

Magnitudes are ``int`` or ``fractions.Fraction`` for exact work.  Floats
are accepted as a second lane for numeric experiments; all comparisons
between magnitudes go through one helper that applies a fixed tolerance
(``1e-9``) whenever a float is involved, so near-ties collapse to balanced
instead of flapping on rounding noise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

Mag = Union[int, Fraction, float]

__all__ = [
    "TropError",
    "ParseError",
    "FractionalPowerOfSigned",
    "TScalar",
    "SScalar",
    "t_add",
    "t_mul",
    "t_pow",
    "s_add",
    "s_mul",
    "s_neg",
    "s_sub",
    "s_modulus",
    "s_bal",
    "s_pow",
    "balances",
    "preceq",
    "preceq_circ",
    "leq_signed",
    "lt_signed",
    "parse_scalar",
    "format_scalar",
    "scalar_to_json",
    "scalar_from_json",
    "pretty_scalar",
]


class TropError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(TropError):
    """Malformed textual or JSON input."""


class FractionalPowerOfSigned(TropError):
    """Fractional exponent applied to a scalar outside the positive cone."""


# --- float comparison policy -------------------------------------------------

_BALANCE_EPS = 1e-9


def _mag_cmp(x: Mag, y: Mag) -> int:
    """Three-way compare two magnitudes.

    Exact when both sides are int/Fraction.  If either side is a float the
    comparison is tolerant: values within ``_BALANCE_EPS`` count as equal.
    """
    if isinstance(x, float) or isinstance(y, float):
        d = x - y
        if -_BALANCE_EPS <= d <= _BALANCE_EPS:
            return 0
        return -1 if d < 0 else 1
    if x < y:
        return -1
    if x > y:
        return 1
    return 0


def _norm_mag(x: Mag) -> Mag:
    """Collapse whole Fractions to int so equal values share one form."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _fmt_mag(x: Mag) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _parse_mag(text: str) -> Mag:
    try:
        return _norm_mag(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad magnitude {text!r}") from exc


# --- plain max-plus scalars --------------------------------------------------


class TScalar:
    """Max-plus scalar: a magnitude under (max, +), or bottom.

    ``TScalar(None)`` is bottom, the additive neutral and multiplicative
    absorber.  The multiplicative unit is ``TScalar(0)``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Mag | None):
        if value is not None and not isinstance(value, (int, Fraction, float)):
            raise TypeError(f"bad magnitude type {type(value).__name__}")
        self.value = _norm_mag(value) if value is not None else None

    @classmethod
    def bottom(cls) -> "TScalar":
        return cls(None)

    @classmethod
    def one(cls) -> "TScalar":
        return cls(0)

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    def inv(self) -> "TScalar":
        if self.value is None:
            raise ZeroDivisionError("bottom has no multiplicative inverse")
        return TScalar(-self.value)

    def __add__(self, other: "TScalar") -> "TScalar":
        if not isinstance(other, TScalar):
            return NotImplemented
        return t_add(self, other)

    def __mul__(self, other: "TScalar") -> "TScalar":
        if not isinstance(other, TScalar):
            return NotImplemented
        return t_mul(self, other)

    def __pow__(self, k) -> "TScalar":
        return t_pow(self, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TScalar):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value is None and other.value is None
        return _mag_cmp(self.value, other.value) == 0

    def __lt__(self, other: "TScalar") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return _mag_cmp(self.value, other.value) < 0

    def __le__(self, other: "TScalar") -> bool:
        return self < other or self == other

    def __gt__(self, other: "TScalar") -> bool:
        return other < self

    def __ge__(self, other: "TScalar") -> bool:
        return other <= self

    def __hash__(self):
        return hash(("T", self.value))

    def __repr__(self):
        return "T(bot)" if self.value is None else f"T({_fmt_mag(self.value)})"


def t_add(a: TScalar, b: TScalar) -> TScalar:
    """Max of two max-plus scalars."""
    if a.value is None:
        return b
    if b.value is None:
        return a
    return a if _mag_cmp(a.value, b.value) >= 0 else b


def t_mul(a: TScalar, b: TScalar) -> TScalar:
    """Product (magnitude sum) of two max-plus scalars."""
    if a.value is None or b.value is None:
        return TScalar(None)
    return TScalar(a.value + b.value)


def t_pow(a: TScalar, k) -> TScalar:
    """Raise a max-plus scalar to a rational power (magnitude scaling)."""
    k = Fraction(k)
    if a.value is None:
        if k > 0:
            return TScalar(None)
        if k == 0:
            return TScalar(0)
        raise ZeroDivisionError("negative power of bottom")
    return TScalar(_norm_mag(k * a.value))


# --- signed max-plus scalars -------------------------------------------------

_POS = 1
_NEG = -1
_BAL = 0

_SIGN_CODE = {_POS: "p", _NEG: "n", _BAL: "b"}
_CODE_SIGN = {"p": _POS, "n": _NEG, "b": _BAL}


class SScalar:
    """Signed max-plus scalar: positive, negative, balanced, or zero.

    The pair ``(sign, mag)`` stores the class and the magnitude.  Zero is
    the unique element with ``mag is None`` (its ``sign`` slot is 0 but
    carries no meaning).  Instances are treated as immutable.

    Note on floats: equality applies the module tolerance to magnitudes,
    so hashing float-magnitude scalars is unreliable.  Exact magnitudes
    (int, Fraction) hash consistently.
    """

    __slots__ = ("sign", "mag")

    def __init__(self, sign: int, mag: Mag | None):
        if mag is None:
            self.sign = 0
            self.mag = None
            return
        if sign not in (_POS, _NEG, _BAL):
            raise ValueError(f"bad sign code {sign!r}")
        if not isinstance(mag, (int, Fraction, float)):
            raise TypeError(f"bad magnitude type {type(mag).__name__}")
        self.sign = sign
        self.mag = _norm_mag(mag)

    # constructors

    @classmethod
    def zero(cls) -> "SScalar":
        return cls(0, None)

    @classmethod
    def one(cls) -> "SScalar":
        return cls(_POS, 0)

    @classmethod
    def pos(cls, mag: Mag) -> "SScalar":
        return cls(_POS, mag)

    @classmethod
    def neg(cls, mag: Mag) -> "SScalar":
        return cls(_NEG, mag)

    @classmethod
    def bal(cls, mag: Mag) -> "SScalar":
        return cls(_BAL, mag)

    # predicates

    @property
    def is_zero(self) -> bool:
        return self.mag is None

    @property
    def is_pos(self) -> bool:
        return self.mag is not None and self.sign == _POS

    @property
    def is_neg(self) -> bool:
        return self.mag is not None and self.sign == _NEG

    @property
    def is_bal(self) -> bool:
        """True for nonzero balanced elements."""
        return self.mag is not None and self.sign == _BAL

    @property
    def is_signed(self) -> bool:
        """Membership in the signed part (positive, negative, or zero)."""
        return self.mag is None or self.sign != _BAL

    @property
    def is_bal_or_zero(self) -> bool:
        return self.mag is None or self.sign == _BAL

    # arithmetic

    def inv(self) -> "SScalar":
        """Multiplicative inverse; only signed nonzero elements have one."""
        if self.mag is None:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.sign == _BAL:
            raise ZeroDivisionError("balanced elements are not invertible")
        return SScalar(self.sign, -self.mag)

    def __add__(self, other: "SScalar") -> "SScalar":
        if not isinstance(other, SScalar):
            return NotImplemented
        return s_add(self, other)

    def __mul__(self, other: "SScalar") -> "SScalar":
        if not isinstance(other, SScalar):
            return NotImplemented
        return s_mul(self, other)

    def __neg__(self) -> "SScalar":
        return s_neg(self)

    def __sub__(self, other: "SScalar") -> "SScalar":
        if not isinstance(other, SScalar):
            return NotImplemented
        return s_add(self, s_neg(other))

    def __pow__(self, k) -> "SScalar":
        return s_pow(self, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SScalar):
            return NotImplemented
        if self.mag is None or other.mag is None:
            return self.mag is None and other.mag is None
        return self.sign == other.sign and _mag_cmp(self.mag, other.mag) == 0

    def __hash__(self):
        return hash(("S", self.sign, self.mag))

    def __repr__(self):
        return f"S({format_scalar(self)})"


def s_add(a: SScalar, b: SScalar) -> SScalar:
    """Signed max-plus sum: larger magnitude wins, ties blend signs."""
    if a.mag is None:
        return b
    if b.mag is None:
        return a
    c = _mag_cmp(a.mag, b.mag)
    if c > 0:
        return a
    if c < 0:
        return b
    if a.sign == b.sign:
        return a if a.mag >= b.mag else b
    return SScalar(_BAL, a.mag if a.mag >= b.mag else b.mag)


def s_mul(a: SScalar, b: SScalar) -> SScalar:
    """Signed max-plus product: magnitudes add, signs multiply."""
    if a.mag is None or b.mag is None:
        return SScalar(0, None)
    return SScalar(a.sign * b.sign, a.mag + b.mag)


def s_neg(a: SScalar) -> SScalar:
    """Formal negation: swaps positive and negative, fixes balanced and zero."""
    if a.mag is None or a.sign == _BAL:
        return a
    return SScalar(-a.sign, a.mag)


def s_sub(a: SScalar, b: SScalar) -> SScalar:
    """Formal difference ``a + (-b)``."""
    return s_add(a, s_neg(b))


def s_modulus(a: SScalar) -> TScalar:
    """Forget the sign: the underlying max-plus magnitude."""
    return TScalar(a.mag)


def s_bal(a: SScalar) -> SScalar:
    """Balance operator ``a - a``: balanced at the same magnitude."""
    if a.mag is None:
        return a
    return SScalar(_BAL, a.mag)


def s_pow(a: SScalar, k) -> SScalar:
    """Raise to a rational power.

    Integer exponents follow the sign rules (negative bases flip on odd
    powers, balanced stays balanced).  Fractional exponents only make
    sense inside the positive cone and raise FractionalPowerOfSigned
    elsewhere.  Negative exponents need an invertible base.
    """
    k = Fraction(k)
    if a.mag is None:
        if k > 0:
            return SScalar(0, None)
        if k == 0:
            return SScalar.one()
        raise ZeroDivisionError("negative power of zero")
    if k == 0:
        return SScalar.one()
    new_mag = _norm_mag(k * a.mag)
    if k.denominator == 1:
        n = k.numerator
        if a.sign == _BAL:
            if n < 0:
                raise ZeroDivisionError("balanced elements are not invertible")
            return SScalar(_BAL, new_mag)
        return SScalar(a.sign if n % 2 else _POS, new_mag)
    if a.sign != _POS:
        raise FractionalPowerOfSigned(
            f"fractional power {k} of non-positive scalar {format_scalar(a)}"
        )
    return SScalar(_POS, new_mag)


# --- relations ---------------------------------------------------------------


def balances(a: SScalar, b: SScalar) -> bool:
    """Whether ``a - b`` is balanced or zero (the algebra's equation solver)."""
    d = s_sub(a, b)
    return d.mag is None or d.sign == _BAL


def preceq(a: SScalar, b: SScalar) -> bool:
    """Natural sum order: ``a + b == b``."""
    return s_add(a, b) == b


def preceq_circ(a: SScalar, b: SScalar) -> bool:
    """Balance-increment order: ``b`` equals ``a`` plus something balanced.

    Decidable directly: either ``b == a``, or ``b`` is balanced and at
    least as large in magnitude as ``a``.  A signed ``b`` dominates only
    itself.
    """
    if a == b:
        return True
    if b.sign == _BAL and b.mag is not None:
        return a.mag is None or _mag_cmp(a.mag, b.mag) <= 0
    return False


def leq_signed(a: SScalar, b: SScalar) -> bool:
    """Sign-aware order: ``b - a`` is positive, zero, or balanced."""
    d = s_sub(b, a)
    return not (d.mag is not None and d.sign == _NEG)


def lt_signed(a: SScalar, b: SScalar) -> bool:
    """Strict sign-aware order: ``b - a`` is positive and nonzero."""
    d = s_sub(b, a)
    return d.mag is not None and d.sign == _POS


# --- text and JSON forms -----------------------------------------------------


def format_scalar(a: SScalar) -> str:
    """Compact token: ``z`` for zero, else sign letter + magnitude.

    Examples: ``p3``, ``n-1``, ``b3/2``.
    """
    if a.mag is None:
        return "z"
    return _SIGN_CODE[a.sign] + _fmt_mag(a.mag)


def parse_scalar(text: str) -> SScalar:
    """Inverse of format_scalar."""
    text = text.strip()
    if not text:
        raise ParseError("empty scalar token")
    if text == "z":
        return SScalar(0, None)
    sign = _CODE_SIGN.get(text[0])
    if sign is None:
        raise ParseError(f"bad scalar token {text!r}")
    return SScalar(sign, _parse_mag(text[1:]))


def scalar_to_json(a: SScalar) -> dict:
    if a.mag is None:
        return {"s": "z", "m": None}
    return {"s": _SIGN_CODE[a.sign], "m": _fmt_mag(a.mag)}


def scalar_from_json(obj) -> SScalar:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "s" not in obj:
        raise ParseError(f"bad scalar object {obj!r}")
    code = obj["s"]
    if code == "z":
        return SScalar(0, None)
    sign = _CODE_SIGN.get(code)
    if sign is None:
        raise ParseError(f"bad sign code {code!r}")
    m = obj.get("m")
    if m is None:
        raise ParseError("missing magnitude for nonzero scalar")
    return SScalar(sign, _parse_mag(str(m)))


def pretty_scalar(a: SScalar, unicode: bool = False) -> str:
    """Human form: ``6``, ``(-)5``, ``3*``, ``z`` (or unicode variants)."""
    if a.mag is None:
        return "\N{MATHEMATICAL DOUBLE-STRUCK DIGIT ZERO}" if unicode else "z"
    body = _fmt_mag(a.mag)
    if a.sign == _NEG:
        return ("⊖" + body) if unicode else "(-)" + body
    if a.sign == _BAL:
        return (body + "°") if unicode else body + "*"
    return body
