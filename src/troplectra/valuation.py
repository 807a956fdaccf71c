"""Bridge between signed tropical predictions and classical numerics.

The spectral layer predicts, for a tropical positive definite matrix, the
eigenvalues (its sorted diagonal) and per-eigenvalue candidate eigenvectors.
This module checks those predictions against ordinary floating-point linear
algebra.  A ``MonomialMatrix`` is a symmetric parametric family whose entries
are ``sign * t**exponent``; taking signed valuations (sign plus base-``t``
logarithm of the modulus) of its classical eigenpairs and letting ``t`` grow
should reproduce the tropical data.  The comparison machinery lives in
``compare_eigenvalues`` / ``compare_eigenvectors``, which emit a
``ValuationReport`` with per-pair residuals, sign-match flags, and
per-coordinate checks.

Classical eigenproblems are solved by an in-repo round-robin Jacobi
iteration (``jacobi_eigen``), relatively accurate and batched over a stack
of matrices, so one call covers a family's whole grid of bases.  There is
also a Gershgorin-style inclusion bound for real symmetric matrices with
dominated off-diagonals, seeded random generators for both tropical and
classical test matrices, and a Gram-matrix experiment pipeline that runs
the whole chain on one large instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .matrix import ShapeMismatch, SMatrix, scale_vec
from .semiring import ParseError, SScalar, TropError, format_scalar
from .spectral import (
    InternalMismatch,
    NotTPD,
    PDVerdict,
    _adjugate_vector,
    _smax_eigenvalues,
    _sorted_diag,
    classify_pd,
)

__all__ = [
    "BadBase",
    "BadParams",
    "NoConvergence",
    "NonpositiveDiagonal",
    "NotGenericDiagonal",
    "DEFAULT_T_GRID",
    "DEFAULT_BALANCE_SLACK",
    "sv_t",
    "sv_vector",
    "tropicalize_real",
    "MonomialMatrix",
    "lift_tpd",
    "jacobi_eigen",
    "CoordCheck",
    "PairRow",
    "ValuationReport",
    "compare_eigenvalues",
    "compare_eigenvectors",
    "GershgorinBound",
    "gershgorin_pd_bound",
    "random_tpd",
    "random_gram_pd",
    "GramExperiment",
    "gram_experiment",
]


class BadBase(TropError):
    """Logarithm base must be a finite real greater than 1."""


class BadParams(TropError):
    """Invalid parameters for a generator or solver."""


class NoConvergence(TropError):
    """Jacobi iteration failed to reach tolerance within the sweep budget."""


class NonpositiveDiagonal(TropError):
    """The inclusion bound needs a strictly positive diagonal."""


class NotGenericDiagonal(TropError):
    """Eigenvector comparison needs pairwise distinct diagonal magnitudes."""


DEFAULT_T_GRID: tuple[float, ...] = (10.0, 100.0)
DEFAULT_BALANCE_SLACK = 0.05

_SYM_RTOL = 1e-12


# --- signed valuation of reals ------------------------------------------------


def _check_base(t: float) -> float:
    tf = float(t)
    if not math.isfinite(tf) or tf <= 1.0:
        raise BadBase(f"base must be a finite real > 1, got {t!r}")
    return tf


def sv_t(x: float, t: float) -> SScalar:
    """Signed valuation of a real at base ``t``: sign plus log_t of |x|.

    Zero maps to the tropical zero.  The result's magnitude is a float, so
    downstream comparisons run in the tolerance lane of the scalar order.
    """
    tf = _check_base(t)
    xf = float(x)
    if xf == 0.0:
        return SScalar.zero()
    if not math.isfinite(xf):
        raise BadParams(f"cannot take the valuation of {x!r}")
    mag = math.log(abs(xf)) / math.log(tf)
    return SScalar.pos(mag) if xf > 0.0 else SScalar.neg(mag)


def sv_vector(xs: Iterable[float], t: float) -> tuple[SScalar, ...]:
    """Entrywise signed valuation of a real vector."""
    tf = _check_base(t)
    return tuple(sv_t(x, tf) for x in xs)


def _as_sym_array(b, *, stack: bool = False) -> np.ndarray:
    """Validate and copy a dense real symmetric matrix as a float ndarray.

    With ``stack`` a ``(T, n, n)`` stack of such matrices is accepted too,
    each checked against its own scale.
    """
    arr = np.asarray(b, dtype=float)
    if arr.ndim not in ((2, 3) if stack else (2,)) or arr.shape[-1] != arr.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadParams("matrix entries must be finite")
    flip = np.swapaxes(arr, -1, -2)
    scale = np.abs(arr).max(axis=(-2, -1), initial=0.0)
    gap = np.abs(arr - flip).max(axis=(-2, -1), initial=0.0)
    if (gap > _SYM_RTOL * np.maximum(1.0, scale)).any():
        raise ShapeMismatch("matrix is not symmetric within tolerance")
    return 0.5 * (arr + flip)


def tropicalize_real(b, t: float) -> SMatrix:
    """Entrywise signed valuation of a real symmetric matrix at base ``t``."""
    tf = _check_base(t)
    arr = _as_sym_array(b)
    return SMatrix.from_rows(
        [[sv_t(x, tf) for x in row] for row in arr.tolist()]
    )


# --- symmetric monomial families ----------------------------------------------


class MonomialMatrix:
    """Symmetric parametric matrix with entries ``sign * t**exponent``.

    Each entry is either zero (sign 0, no exponent) or carries a sign in
    {+1, -1} and a rational exponent.  Evaluating at a base ``t > 1`` gives a
    dense real symmetric matrix; the signed valuation recovers the exact
    tropical matrix of (sign, exponent) pairs at every base.
    """

    __slots__ = ("_signs", "_exponents")

    def __init__(
        self,
        signs: Sequence[Sequence[int]],
        exponents: Sequence[Sequence[Fraction | int | None]],
    ):
        signs_t = tuple(tuple(int(s) for s in row) for row in signs)
        n = len(signs_t)
        if n == 0 or any(len(row) != n for row in signs_t):
            raise ShapeMismatch("signs must form a nonempty square grid")
        if len(exponents) != n or any(len(row) != n for row in exponents):
            raise ShapeMismatch("exponent grid does not match the sign grid")
        expo_t = []
        for i in range(n):
            row = []
            for j in range(n):
                s = signs_t[i][j]
                e = exponents[i][j]
                if s not in (-1, 0, 1):
                    raise BadParams(f"entry sign must be -1, 0 or +1, got {s}")
                if s == 0:
                    if e is not None:
                        raise BadParams("zero entries carry no exponent")
                    row.append(None)
                else:
                    if e is None:
                        raise BadParams("nonzero entries need an exponent")
                    row.append(Fraction(e))
            expo_t.append(tuple(row))
        for i in range(n):
            for j in range(n):
                if signs_t[i][j] != signs_t[j][i] or expo_t[i][j] != expo_t[j][i]:
                    raise ShapeMismatch("monomial family must be symmetric")
        self._signs = signs_t
        self._exponents = tuple(expo_t)

    @property
    def n(self) -> int:
        return len(self._signs)

    def sign(self, i: int, j: int) -> int:
        return self._signs[i][j]

    def exponent(self, i: int, j: int) -> Fraction | None:
        return self._exponents[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return self._signs == other._signs and self._exponents == other._exponents

    def __hash__(self):
        return hash((self._signs, self._exponents))

    def __repr__(self) -> str:
        return f"MonomialMatrix.parse({self.format()!r})"

    def evaluate(self, t: float) -> np.ndarray:
        """Dense real symmetric matrix with entries ``sign * t**exponent``."""
        tf = _check_base(t)
        n = self.n
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                s = self._signs[i][j]
                if s:
                    out[i, j] = s * tf ** float(self._exponents[i][j])
        return out

    def signed_valuation(self) -> SMatrix:
        """Exact tropical matrix of the family: signs with exponent magnitudes."""
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                s = self._signs[i][j]
                if s == 0:
                    row.append(SScalar.zero())
                elif s > 0:
                    row.append(SScalar.pos(self._exponents[i][j]))
                else:
                    row.append(SScalar.neg(self._exponents[i][j]))
            rows.append(row)
        return SMatrix.from_rows(rows)

    def format(self) -> str:
        """Text form: first line ``n``, then one token row per matrix row.

        Tokens are ``+e`` / ``-e`` with a rational exponent ``e`` (``+5``,
        ``-3/2``), or a bare ``0`` for a zero entry.
        """
        lines = [str(self.n)]
        for i in range(self.n):
            toks = []
            for j in range(self.n):
                s = self._signs[i][j]
                if s == 0:
                    toks.append("0")
                else:
                    toks.append(("+" if s > 0 else "-") + str(self._exponents[i][j]))
            lines.append(" ".join(toks))
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "MonomialMatrix":
        """Inverse of :meth:`format`."""
        lines = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
        if not lines:
            raise ParseError("empty monomial matrix text")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise ParseError(f"bad size line {lines[0]!r}") from exc
        if n < 1 or len(lines) != n + 1:
            raise ParseError(f"expected {n} token rows after the size line")
        signs, expos = [], []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != n:
                raise ParseError(f"expected {n} tokens per row, got {len(toks)}")
            srow, erow = [], []
            for tok in toks:
                if tok == "0":
                    srow.append(0)
                    erow.append(None)
                elif tok[0] in "+-":
                    srow.append(1 if tok[0] == "+" else -1)
                    try:
                        erow.append(Fraction(tok[1:]))
                    except (ValueError, ZeroDivisionError) as exc:
                        raise ParseError(f"bad exponent in token {tok!r}") from exc
                else:
                    raise ParseError(f"bad monomial token {tok!r}")
            signs.append(srow)
            expos.append(erow)
        return cls(signs, expos)


def lift_tpd(a: SMatrix) -> MonomialMatrix:
    """Monomial family whose signed valuation is the given TPD matrix.

    Signs and exponents are copied entrywise, so ``signed_valuation`` of the
    result reproduces ``a`` exactly; for large bases the evaluated family is
    classically positive definite.
    """
    if classify_pd(a).verdict is not PDVerdict.TPD:
        raise NotTPD("lift needs a tropical positive definite matrix")
    n = a.rows
    signs = [[a[i, j].sign if a[i, j].mag is not None else 0 for j in range(n)]
             for i in range(n)]
    expos = [[None if a[i, j].mag is None else Fraction(a[i, j].mag)
              for j in range(n)] for i in range(n)]
    return MonomialMatrix(signs, expos)


# --- dense symmetric eigensolver ----------------------------------------------


def _round_robin(m: int) -> np.ndarray:
    """Round-robin ordering of the pairs of ``m`` (even) indices.

    Row ``s`` lists the ``m / 2`` disjoint pairs of step ``s`` as
    ``p0, q0, p1, q1, ...``; the ``m - 1`` steps of a sweep meet every pair
    once.  This is the parallel ordering of Brent & Luk (1985): index 0
    stays put while the others turn one seat per step.
    """
    seat = np.column_stack((np.arange(m // 2), np.arange(m - 1, m // 2 - 1, -1)))
    seat = seat.ravel()
    step = np.arange(m - 1)[:, None]
    return np.where(seat == 0, 0, 1 + (step + seat - 1) % (m - 1))


def jacobi_eigen(
    b, tol: float = 1e-12, max_sweeps: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi eigendecomposition of a real symmetric matrix, or of a stack.

    ``b`` is one ``(n, n)`` matrix or a ``(T, n, n)`` stack, as for
    ``numpy.linalg.eigh``.  A sweep runs the ``n - 1`` steps of a round-robin
    ordering (Brent & Luk, 1985); each step rotates its ``n / 2`` disjoint
    pairs in one batched update over the whole stack (an odd ``n`` is padded
    with a decoupled zero index).  A pair ``(p, q)`` counts as converged,
    and is not rotated, while ``|a_pq| <= tol * sqrt(|a_pp * a_qq|)``.  A
    matrix is done after a sweep that would rotate none of its pairs, which
    is tested on all pairs at once, and then leaves the stack.

    That per-pair rule (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4),
    1992) gives a positive definite matrix every eigenvalue to a small
    *relative* error, bounded through the condition number of the matrix
    scaled to unit diagonal rather than through its own.  So the tiny
    eigenvalues of a graded family are as accurate as the large ones, which
    a rule on the off-diagonal norm does not give.  Stacked matrices go
    through exactly the rotations of separate calls.

    Returns eigenvalues sorted descending and the matching orthonormal
    eigenvector columns, with a leading stack axis when ``b`` has one.
    Raises :class:`NoConvergence` if some matrix still has a pair above the
    threshold after ``max_sweeps`` sweeps.
    """
    a = _as_sym_array(b, stack=True)
    if not (tol > 0.0):
        raise BadParams(f"tolerance must be positive, got {tol!r}")
    if max_sweeps < 1:
        raise BadParams(f"need at least one sweep, got {max_sweeps!r}")
    single = a.ndim == 2
    if single:
        a = a[None]
    count, n = a.shape[0], a.shape[1]
    m = n + n % 2
    k = m // 2
    # All matrices share one frame: ``where[i]`` is the row and column of
    # original index i.  A rotating step gathers its pairs into adjacent
    # rows, rotates every (2, m) row block by one batched matmul, and does
    # the columns by the same move on the transpose.  The halves of the
    # result are added to its transpose, so the work matrix stays exactly
    # symmetric and a transpose never changes it.  ``w_work`` holds the
    # eigenvectors as rows, so only its rows move.
    frame = np.arange(m)
    a_work = np.zeros((count, m, m))
    a_work[:, :n, :n] = a
    w_work = np.zeros((count, m, m))
    w_work[:, frame, frame] = 1.0
    values = np.empty((count, n))
    vectors = np.empty((count, n, n))
    live = np.arange(count)
    where = frame.copy()
    evens, odds = frame[0::2], frame[1::2]
    rows3 = np.concatenate((evens, evens, odds))
    cols3 = np.concatenate((evens, odds, odds))
    blocks = np.add.outer([0, 1, m, m + 1], evens * (m + 1)).ravel()
    on_diag = np.diag(np.full(m, np.inf))
    schedule = _round_robin(m)
    for _ in range(max_sweeps):
        # A sweep rotates nothing exactly when no pair is above the threshold
        # at its start, so that test runs on all pairs at once.
        root = np.sqrt(np.abs(a_work.diagonal(0, 1, 2)))
        limit = tol * (root[:, :, None] * root[:, None, :]) + on_diag
        busy = (np.abs(a_work) > limit).any(axis=(1, 2))
        if not busy.all():
            done = ~busy
            slots = where[:n]
            lam = a_work[done][:, slots, slots]
            order = np.argsort(-lam, axis=1, kind="stable")
            rr = np.arange(order.shape[0])[:, None]
            values[live[done]] = lam[rr, order]
            vectors[live[done]] = w_work[done][rr, slots[order], :n].transpose(0, 2, 1)
            a_work, w_work, live = a_work[busy], w_work[busy], live[busy]
        if not live.size:
            break
        for step in schedule:
            pos = where[step]
            app, apq, aqq = (
                a_work[:, pos[rows3], pos[cols3]].reshape(-1, 3, k).transpose(1, 0, 2)
            )
            rot = np.abs(apq) > tol * (np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq)))
            if not np.count_nonzero(rot):
                continue
            # t = tan of the angle, the smaller root of t^2 + 2 t h / a_pq = 1;
            # adding 0.0 makes h = -0.0 rotate as h = +0.0 does
            half = 0.5 * (aqq - app) + 0.0
            den = half + np.copysign(np.hypot(half, apq), half)
            t = np.divide(apq, den, out=np.zeros(apq.shape), where=rot)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            g = np.concatenate((c, -s, s, c), axis=1).reshape(-1, 2, 2, k)
            g = g.transpose(0, 3, 1, 2)
            rowwise = np.matmul(g, a_work.take(pos, axis=1).reshape(-1, k, 2, m))
            flipped = rowwise.reshape(-1, m, m).transpose(0, 2, 1).take(pos, axis=1)
            a_work = np.matmul(0.5 * g, flipped.reshape(-1, k, 2, m)).reshape(-1, m, m)
            a_work = a_work + a_work.transpose(0, 2, 1)
            # the rotated 2x2 blocks exactly: diagonal by the update formula,
            # a rotated a_pq to zero, an unrotated one as it was
            kept = np.where(rot, 0.0, apq)
            a_work.reshape(-1, m * m)[:, blocks] = np.concatenate(
                (app - t * apq, kept, kept, aqq + t * apq), axis=1
            )
            w_work = np.matmul(g, w_work.take(pos, axis=1).reshape(-1, k, 2, m))
            w_work = w_work.reshape(-1, m, m)
            where[step] = frame
    else:
        raise NoConvergence(
            f"some pair still above the relative tolerance after {max_sweeps} sweeps"
        )
    if single:
        return values[0], vectors[0]
    return values, vectors


# --- comparison reports ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoordCheck:
    """One coordinate of a classical eigenvector against its prediction.

    ``kind`` follows the prediction entry: "signed" coordinates compare sign
    and magnitude, "balanced" ones only bound the observed modulus by the
    predicted one (plus slack), and "zero" ones are recorded without a check.
    """

    index: int
    prediction: SScalar
    observed: SScalar
    kind: str
    sign_match: bool | None
    residual: float | None
    within_slack: bool | None
    gap: float | None

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "prediction": format_scalar(self.prediction),
            "observed": format_scalar(self.observed),
            "kind": self.kind,
            "sign_match": self.sign_match,
            "residual": self.residual,
            "within_slack": self.within_slack,
            "gap": self.gap,
        }


@dataclass(frozen=True, slots=True)
class PairRow:
    """Comparison of one eigenpair at one base value.

    The residuals and the sign verdict follow from ``gamma`` and
    ``sv_value``, so they are computed on access rather than stored.
    """

    k: int
    t: float
    gamma: SScalar
    sv_value: SScalar
    degenerate: bool = False
    coordinates: tuple[CoordCheck, ...] | None = None

    @property
    def residual(self) -> float:
        """Distance between the predicted and the observed magnitude."""
        if self.sv_value.mag is None:
            return math.inf
        return abs(float(self.sv_value.mag) - float(self.gamma.mag))

    @property
    def rel_residual(self) -> float:
        """The residual over the observed magnitude."""
        mag = self.sv_value.mag
        if mag is None:
            return math.inf
        if mag != 0:
            return self.residual / abs(float(mag))
        return 0.0 if self.residual == 0.0 else math.inf

    @property
    def sign_match(self) -> bool:
        return self.sv_value.sign == self.gamma.sign

    @property
    def max_coord_residual(self) -> float | None:
        if self.coordinates is None:
            return None
        vals = [c.residual for c in self.coordinates if c.residual is not None]
        return max(vals) if vals else 0.0

    @property
    def coord_signs_ok(self) -> bool | None:
        if self.coordinates is None:
            return None
        return all(c.sign_match for c in self.coordinates if c.kind == "signed")

    @property
    def balanced_ok(self) -> bool | None:
        if self.coordinates is None:
            return None
        return all(
            c.within_slack for c in self.coordinates if c.kind == "balanced"
        )

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "t": self.t,
            "gamma": format_scalar(self.gamma),
            "sv": format_scalar(self.sv_value),
            "residual": self.residual,
            "rel_residual": self.rel_residual,
            "sign_match": self.sign_match,
            "degenerate": self.degenerate,
            "coordinates": None,
        }
        if self.coordinates is not None:
            out["coordinates"] = [c.to_json_dict() for c in self.coordinates]
        return out


_CSV_HEADER = (
    "k,t,gamma,sv,residual,rel_residual,sign_match,"
    "vec_max_residual,vec_signs_ok,vec_balanced_ok,degenerate"
)


def _csv_bool(x: bool | None) -> str:
    return "" if x is None else ("true" if x else "false")


def _csv_float(x: float | None) -> str:
    if x is None:
        return ""
    return repr(float(x))


@dataclass(frozen=True, slots=True)
class ValuationReport:
    """Results of checking tropical spectral predictions at finite bases.

    Holds one :class:`PairRow` per (eigenpair, base) combination, sorted by
    base then pair index; eigenvalue-only reports carry no coordinate data.
    """

    n: int
    t_values: tuple[float, ...]
    slack: float
    rows: tuple[PairRow, ...]

    def row(self, k: int, t: float) -> PairRow:
        for r in self.rows:
            if r.k == k and r.t == float(t):
                return r
        raise KeyError(f"no row for k={k}, t={t}")

    def rows_at(self, t: float) -> tuple[PairRow, ...]:
        return tuple(r for r in self.rows if r.t == float(t))

    def max_residual(self, t: float | None = None) -> float:
        rows = self.rows if t is None else self.rows_at(t)
        return max((r.residual for r in rows), default=0.0)

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        str(r.k),
                        repr(r.t),
                        format_scalar(r.gamma),
                        format_scalar(r.sv_value),
                        _csv_float(r.residual),
                        _csv_float(r.rel_residual),
                        _csv_bool(r.sign_match),
                        _csv_float(r.max_coord_residual),
                        _csv_bool(r.coord_signs_ok),
                        _csv_bool(r.balanced_ok),
                        _csv_bool(r.degenerate),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t_values": list(self.t_values),
            "slack": self.slack,
            "rows": [r.to_json_dict() for r in self.rows],
        }

    def pretty(self) -> str:
        def disp(s: SScalar) -> str:
            if s.mag is None:
                return "z"
            tag = {1: "p", -1: "n", 0: "b"}[s.sign]
            return f"{tag}{float(s.mag):.4f}"

        lines = []
        for t in self.t_values:
            lines.append(f"t = {t:g}")
            lines.append("  k  gamma        sv_t(lambda)   residual     sign")
            for r in self.rows_at(t):
                lines.append(
                    "  {:<2d} {:<12s} {:<14s} {:<12.6g} {}".format(
                        r.k,
                        format_scalar(r.gamma),
                        disp(r.sv_value),
                        r.residual,
                        "ok" if r.sign_match else "MISMATCH",
                    )
                )
            for r in self.rows_at(t):
                if r.coordinates is None:
                    continue
                tag = " (degenerate)" if r.degenerate else ""
                lines.append(f"  eigenvector k={r.k}{tag}")
                for c in r.coordinates:
                    if c.kind == "signed":
                        verdict = (
                            f"residual {c.residual:.6g} "
                            f"{'ok' if c.sign_match else 'SIGN MISMATCH'}"
                        )
                    elif c.kind == "balanced":
                        verdict = (
                            f"gap {c.gap:.6g} "
                            f"{'ok' if c.within_slack else 'ABOVE BOUND'}"
                        )
                    else:
                        verdict = "unchecked"
                    lines.append(
                        "    [{}] pred {:<10s} obs {:<14s} {:<9s} {}".format(
                            c.index,
                            format_scalar(c.prediction),
                            disp(c.observed),
                            c.kind,
                            verdict,
                        )
                    )
        return "\n".join(lines) + "\n"


def _family_diag(a: SMatrix) -> list[tuple[SScalar, int]]:
    """Sorted diagonal of a family's valuation, which must be TPD."""
    verdict = classify_pd(a).verdict
    if verdict is not PDVerdict.TPD:
        raise NotTPD(f"family valuation is {verdict.value}, need TPD")
    return _sorted_diag(a)


def _evaluate_all(m: MonomialMatrix, ts: tuple[float, ...]) -> np.ndarray:
    """The family at every base, as one ``(len(ts), n, n)`` stack."""
    return np.array([m.evaluate(t) for t in ts]).reshape(len(ts), m.n, m.n)


def compare_eigenvalues(
    m: MonomialMatrix, t_list: Sequence[float] = DEFAULT_T_GRID
) -> ValuationReport:
    """Tropical eigenvalues vs signed valuations of classical ones.

    The family's signed valuation must be tropical positive definite; its
    tropical eigenvalues (diagonal, sorted) are compared with ``sv_t`` of the
    Jacobi eigenvalues of the evaluated family at each base in ``t_list``.
    """
    ts = tuple(_check_base(t) for t in t_list)
    gammas = _smax_eigenvalues(_family_diag(m.signed_valuation())).expand()
    lams, _ = jacobi_eigen(_evaluate_all(m, ts))
    rows = []
    for t, lam in zip(ts, lams):
        for k in range(1, m.n + 1):
            rows.append(PairRow(k, t, gammas[k - 1], sv_t(lam[k - 1], t)))
    return ValuationReport(m.n, ts, DEFAULT_BALANCE_SLACK, tuple(rows))


def _coord_checks(
    prediction: Sequence[SScalar],
    observed: Sequence[SScalar],
    slack: float,
) -> tuple[CoordCheck, ...]:
    checks = []
    for idx, (pred, obs) in enumerate(zip(prediction, observed)):
        if pred.is_pos or pred.is_neg:
            if obs.mag is None:
                checks.append(
                    CoordCheck(idx, pred, obs, "signed", False, math.inf, None, None)
                )
            else:
                checks.append(
                    CoordCheck(
                        idx,
                        pred,
                        obs,
                        "signed",
                        obs.sign == pred.sign,
                        abs(float(obs.mag) - float(pred.mag)),
                        None,
                        None,
                    )
                )
        elif pred.is_bal:
            bound = float(pred.mag)
            if obs.mag is None:
                checks.append(
                    CoordCheck(idx, pred, obs, "balanced", None, None, True, math.inf)
                )
            else:
                gap = bound - float(obs.mag)
                checks.append(
                    CoordCheck(
                        idx,
                        pred,
                        obs,
                        "balanced",
                        None,
                        None,
                        float(obs.mag) <= bound + slack,
                        gap,
                    )
                )
        else:
            checks.append(
                CoordCheck(idx, pred, obs, "zero", None, None, None, None)
            )
    return tuple(checks)


def compare_eigenvectors(
    m: MonomialMatrix,
    t_list: Sequence[float] = DEFAULT_T_GRID,
    *,
    slack: float = DEFAULT_BALANCE_SLACK,
) -> ValuationReport:
    """Tropical eigenvector predictions vs classical eigenvectors.

    Needs the family's valuation to be TPD with pairwise distinct diagonal
    magnitudes.  For each pair ``k`` the classical eigenvector is rescaled so
    that its distinguished coordinate (the original position of the k-th
    largest diagonal entry) equals one, matching the tropical prediction
    normalized the same way.  Signed prediction coordinates compare sign and
    magnitude; balanced ones only require the observed modulus to stay below
    the predicted one plus ``slack``.  If the distinguished coordinate of a
    classical eigenvector is numerically zero the row is marked degenerate
    and its coordinates are left unchecked.
    """
    ts = tuple(_check_base(t) for t in t_list)
    a = m.signed_valuation()
    diag = _family_diag(a)
    n = m.n
    mags = [d.mag for d, _ in diag]
    if len(set(mags)) != n:
        raise NotGenericDiagonal("diagonal magnitudes must be pairwise distinct")
    gammas = _smax_eigenvalues(diag).expand()
    predictions = []
    pivots = []
    for k in range(1, n + 1):
        vec = _adjugate_vector(a, diag, k)
        pos = diag[k - 1][1]
        pivot = vec[pos]
        if not (pivot.is_pos or pivot.is_neg):
            raise InternalMismatch(
                f"distinguished coordinate of candidate {k} is not signed"
            )
        predictions.append(scale_vec(pivot.inv(), vec))
        pivots.append(pos)
    lams, stack = jacobi_eigen(_evaluate_all(m, ts))
    rows = []
    for t, lam, vecs in zip(ts, lams, stack):
        for k in range(1, n + 1):
            sv = sv_t(lam[k - 1], t)
            col = vecs[:, k - 1]
            anchor = col[pivots[k - 1]]
            if abs(anchor) <= 1e-12 * float(np.abs(col).max()):
                rows.append(
                    PairRow(k, t, gammas[k - 1], sv, degenerate=True, coordinates=())
                )
                continue
            observed = sv_vector(col / anchor, t)
            checks = _coord_checks(predictions[k - 1], observed, slack)
            rows.append(PairRow(k, t, gammas[k - 1], sv, coordinates=checks))
    return ValuationReport(n, ts, slack, tuple(rows))


# --- Gershgorin-style inclusion bound -------------------------------------------


@dataclass(frozen=True, slots=True)
class GershgorinBound:
    """Inclusion region for the spectrum of a dominated symmetric matrix.

    ``gamma`` measures how strongly the diagonal dominates: the minimum over
    off-diagonal positions of ``sqrt(a_ii * a_jj) / |a_ij|`` (infinite when
    all off-diagonal entries vanish).  Each diagonal entry (``centers``)
    becomes the center of a ball of radius ``a_ii * (n - 1) / gamma``;
    ``balls`` lists the (center, radius) pairs, derived on access.
    ``contained`` records whether every computed eigenvalue lies in the
    union.  ``weak`` flags ``gamma < 1``, where the balls are too large to
    say anything useful.
    """

    gamma: float
    centers: tuple[float, ...]
    contained: bool
    eigenvalues: tuple[float, ...] = field(repr=False, default=())

    @property
    def balls(self) -> tuple[tuple[float, float], ...]:
        return _balls(self.centers, self.gamma)

    @property
    def weak(self) -> bool:
        return self.gamma < 1.0


def _balls(centers: tuple[float, ...], gamma: float) -> tuple[tuple[float, float], ...]:
    if math.isinf(gamma):
        return tuple((c, 0.0) for c in centers)
    return tuple((c, c * (len(centers) - 1) / gamma) for c in centers)


def gershgorin_pd_bound(b) -> GershgorinBound:
    """Spectrum inclusion balls for a symmetric matrix with positive diagonal."""
    arr = _as_sym_array(b)
    n = arr.shape[0]
    d = np.diag(arr)
    if (d <= 0.0).any():
        raise NonpositiveDiagonal("all diagonal entries must be positive")
    gamma = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            if arr[i, j] != 0.0:
                gamma = min(gamma, float(math.sqrt(d[i] * d[j]) / abs(arr[i, j])))
    centers = tuple(d.tolist())
    balls = _balls(centers, gamma)
    lam = tuple(jacobi_eigen(arr)[0].tolist())
    contained = all(any(abs(x - c) <= r for c, r in balls) for x in lam)
    return GershgorinBound(gamma, centers, contained, lam)


# --- random instance generators --------------------------------------------------


def random_tpd(
    n: int,
    seed: int,
    exponent_range: tuple[int, int] = (0, 5),
    margin: int | Fraction = 1,
) -> SMatrix:
    """Seeded random tropical positive definite matrix with exact entries.

    Diagonal exponents are integers drawn from ``exponent_range``; each
    off-diagonal entry is either zero or a signed exponent kept at least
    ``margin`` below the dominance threshold (twice the entry no larger than
    the sum of its diagonal pair minus the margin), so the result is always
    strictly definite.  Off-diagonal exponents may be half-integers.
    """
    if n < 1:
        raise BadParams(f"size must be at least 1, got {n}")
    lo, hi = exponent_range
    if lo > hi:
        raise BadParams(f"empty exponent range {exponent_range!r}")
    margin = Fraction(margin)
    if margin <= 0:
        raise BadParams(f"margin must be positive, got {margin}")
    rng = random.Random(seed)
    diag = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
    rows = [[SScalar.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = SScalar.pos(diag[i])
    span = max(1, hi - lo)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                continue
            cap = Fraction(diag[i] + diag[j] - margin, 2)
            e = cap - rng.randint(0, span)
            entry = SScalar.pos(e) if rng.random() < 0.5 else SScalar.neg(e)
            rows[i][j] = entry
            rows[j][i] = entry
    return SMatrix.from_rows(rows)


def random_gram_pd(n: int, seed: int) -> np.ndarray:
    """Seeded random Gram matrix ``C @ C.T`` with uniform(-1, 1) factor."""
    if n < 1:
        raise BadParams(f"size must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(n, n))
    return c @ c.T


# --- large-instance experiment ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class GramExperiment:
    """One full run of the Gram-matrix valuation pipeline.

    ``verdict`` classifies the tropicalized matrix; the report compares its
    diagonal (the tropical eigenvalue prediction, exact when the verdict is
    TPD) with the signed valuations of the classical spectrum.
    """

    n: int
    seed: int
    t: float
    verdict: PDVerdict
    report: ValuationReport

    def to_csv(self) -> str:
        return self.report.to_csv()


def gram_experiment(n: int = 100, seed: int = 0, t: float = 10.0) -> GramExperiment:
    """Random Gram matrix -> tropicalize -> verdict -> eigenvalue residuals."""
    tf = _check_base(t)
    b = random_gram_pd(n, seed)
    a = tropicalize_real(b, tf)
    verdict = classify_pd(a).verdict
    diag = _sorted_diag(a)
    if verdict is PDVerdict.TPD:
        gammas = _smax_eigenvalues(diag).expand()
    else:
        gammas = [d for d, _ in diag]
    lam, _ = jacobi_eigen(b)
    rows = []
    for k in range(1, n + 1):
        rows.append(PairRow(k, tf, gammas[k - 1], sv_t(lam[k - 1], tf)))
    report = ValuationReport(n, (tf,), DEFAULT_BALANCE_SLACK, tuple(rows))
    return GramExperiment(n, seed, tf, verdict, report)
