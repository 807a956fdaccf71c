"""Spectral theory of tropically positive (semi)definite matrices.

A symmetric signed matrix is tropically positive definite when its
quadratic form is strictly positive on every nonzero signed vector.
That holds exactly when each diagonal entry beats zero and each
off-diagonal entry squared is beaten by the product of its diagonal
neighbours; the semidefinite variant relaxes both to weak inequalities.

For a positive definite matrix the eigenvalues (roots of the
characteristic polynomial in the balance sense) are simply the diagonal
entries, with multiplicities.  Eigenvectors attached to the k-th largest
diagonal entry come out of one column of an adjugate, or equivalently
out of one column of a Kleene star of a rescaled matrix; both routes are
implemented and cross-checked.  The balance relation blurs uniqueness,
so each eigenvector is classified as weak / eigen / strong, and simple
criteria for uniqueness and for the existence of a strong eigenvector
are reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations, groupby, product

from .matrix import (
    SearchExhausted,
    ShapeMismatch,
    SizeLimitExceeded,
    SMatrix,
    TMatrix,
    _det_size_limit,
    adjugate_column,
    balances_vec,
    is_irreducible,
    kleene_star,
    mat_vec,
    permanent,
    scale_vec,
    trace_k,
)
from .polynomial import NotSigned, RootList, SPoly, TPoly, tmax_roots
from .semiring import (
    SScalar,
    TScalar,
    TropError,
    format_scalar,
    leq_signed,
    lt_signed,
    s_mul,
    s_neg,
    s_pow,
)

__all__ = [
    "NotTPD",
    "NotSimple",
    "InternalMismatch",
    "PDVerdict",
    "PDClass",
    "VectorClass",
    "quadratic_form",
    "classify_pd",
    "charpoly",
    "tmax_charpoly",
    "tmax_eigenvalues",
    "smax_eigenvalues",
    "eigvec_adjugate",
    "eigvec_kleene",
    "classify_eigenvector",
    "eigvec_construct",
    "uniqueness_and_strength",
    "genericity_check",
    "EigvecInfo",
    "eigvec_info",
    "SpectralReport",
    "spectral_report",
]


class NotTPD(TropError):
    """The operation needs a tropically positive definite matrix."""


class NotSimple(TropError):
    """The operation needs a simple (strictly separated) eigenvalue."""


class InternalMismatch(TropError):
    """Two routes that must agree disagreed; indicates a bug."""


class PDVerdict(enum.Enum):
    TPD = "TPD"
    TPSD_ONLY = "TPSD-only"
    NOT_TPSD = "NotTPSD"


@dataclass
class PDClass:
    """Definiteness verdict with a witness for any failed inequality.

    The witness is ``(i, j)`` for the first pair violating the strongest
    satisfied level: the semidefinite inequalities for NotTPSD, the
    strict ones for TPSD-only, absent for TPD.
    """

    verdict: PDVerdict
    witness: tuple[int, int] | None = None


class VectorClass(enum.Enum):
    STRONG = "strong"
    EIGEN = "eigen"
    WEAK = "weak"
    NONE = "none"


def quadratic_form(a: SMatrix, x) -> SScalar:
    """Evaluate the symmetric form at a vector."""
    n = a._require_square()
    if not a.is_symmetric():
        raise ShapeMismatch("quadratic forms need a symmetric matrix")
    if len(x) != n:
        raise ShapeMismatch(f"vector length {len(x)} does not match size {n}")
    acc = SScalar.zero()
    for i in range(n):
        for j in range(n):
            acc = acc + s_mul(s_mul(x[i], a[i, j]), x[j])
    return acc


def classify_pd(a: SMatrix) -> PDClass:
    """Three-way definiteness classification of a symmetric signed matrix."""
    n = a._require_square()
    if not a.is_symmetric():
        raise ShapeMismatch("definiteness is only defined for symmetric matrices")
    for i in range(n):
        for j in range(n):
            if not a[i, j].is_signed:
                raise NotSigned(f"entry ({i}, {j}) is balanced")
    zero = SScalar.zero()
    strict = True
    for i in range(n):
        d = a[i, i]
        if not lt_signed(zero, d):
            if not leq_signed(zero, d):
                return PDClass(PDVerdict.NOT_TPSD, (i, i))
            strict = False
    for i in range(n):
        for j in range(i + 1, n):
            lhs = s_mul(a[i, j], a[i, j])
            rhs = s_mul(a[i, i], a[j, j])
            if not lt_signed(lhs, rhs):
                if not leq_signed(lhs, rhs):
                    return PDClass(PDVerdict.NOT_TPSD, (i, j))
                strict = False
    if strict:
        return PDClass(PDVerdict.TPD)
    for i in range(n):
        if not lt_signed(zero, a[i, i]):
            return PDClass(PDVerdict.TPSD_ONLY, (i, i))
    for i in range(n):
        for j in range(i + 1, n):
            if not lt_signed(s_mul(a[i, j], a[i, j]), s_mul(a[i, i], a[j, j])):
                return PDClass(PDVerdict.TPSD_ONLY, (i, j))
    raise InternalMismatch("unreachable definiteness state")


# --- characteristic polynomial and eigenvalues ---------------------------------


def _sorted_diag(a: SMatrix) -> list[tuple[SScalar, int]]:
    """Diagonal entries sorted by decreasing magnitude, stably, with
    their original positions."""
    n = a.rows
    items = [(a[i, i], i) for i in range(n)]
    neg_inf = float("-inf")
    items.sort(
        key=lambda t: neg_inf if t[0].mag is None else t[0].mag, reverse=True
    )
    return items


def _tpd_sorted_diag(a: SMatrix, message: str) -> list[tuple[SScalar, int]]:
    """The one definiteness check of a public entry point: the sorted
    diagonal of a positive definite matrix, NotTPD(message) otherwise."""
    if classify_pd(a).verdict is not PDVerdict.TPD:
        raise NotTPD(message)
    return _sorted_diag(a)


def charpoly(a: SMatrix, *, size_limit: int | None = None) -> SPoly:
    """Coefficients of det(X I - A), low degree first.

    For a positive definite matrix the k-th trace collapses to the
    product of the k largest diagonal entries, which is used as a fast
    path; anything else goes through sums of principal minors.
    """
    n = a._require_square()
    fast = False
    if a.is_symmetric():
        try:
            fast = classify_pd(a).verdict is PDVerdict.TPD
        except NotSigned:
            fast = False
    if fast:
        return _diag_charpoly([d for d, _ in _sorted_diag(a)])
    coeffs = []
    for j in range(n + 1):
        t = trace_k(a, n - j, size_limit=size_limit)
        if (n - j) % 2:
            t = s_neg(t)
        coeffs.append(t)
    return SPoly(coeffs)


def _diag_charpoly(values) -> SPoly:
    """The positive definite fast path of ``charpoly``, from the diagonal
    sorted by decreasing magnitude: the coefficient of X^(n-k) is the
    product of the k largest entries, negated for odd k."""
    prods = [SScalar.one()]
    for d in values:
        prods.append(s_mul(prods[-1], d))
    signed = [s_neg(p) if k % 2 else p for k, p in enumerate(prods)]
    return SPoly(signed[::-1])


def tmax_charpoly(m, *, size_limit: int | None = None) -> TPoly:
    """Coefficients of per(X I + M), low degree first."""
    if isinstance(m, SMatrix):
        m = m.modulus()
    n = m._require_square()
    cap = _det_size_limit(size_limit)
    if n > cap:
        raise SizeLimitExceeded(
            f"characteristic expansion of size {n} exceeds the cap {cap}"
        )
    coeffs = [TScalar(None)] * (n + 1)
    coeffs[n] = TScalar(0)
    rows = [[m[i, j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        best = TScalar(None)
        for sub in combinations(range(n), k):
            sm = TMatrix([[rows[i][j] for j in sub] for i in sub])
            best = best + permanent(sm)
        coeffs[n - k] = best
    return TPoly(coeffs)


def tmax_eigenvalues(m, *, size_limit: int | None = None) -> RootList:
    """Roots of the max-plus characteristic polynomial.

    When the matrix is the modulus of a semidefinite form (symmetric,
    off-diagonal squares dominated by diagonal products) the roots are
    just the sorted diagonal, which avoids the exponential expansion.
    """
    if isinstance(m, SMatrix):
        m = m.modulus()
    n = m._require_square()
    sym = all(m[i, j] == m[j, i] for i in range(n) for j in range(i))
    if sym:
        dominated = all(
            m[i, j] * m[i, j] <= m[i, i] * m[j, j]
            for i in range(n)
            for j in range(i + 1, n)
        )
        if dominated:
            diag = sorted((m[i, i] for i in range(n)), reverse=True)
            return RootList([(d, len(list(run))) for d, run in groupby(diag)])
    return tmax_roots(tmax_charpoly(m, size_limit=size_limit))


def smax_eigenvalues(a: SMatrix) -> RootList:
    """Eigenvalues of a positive definite matrix: the diagonal entries in
    decreasing order with multiplicities.  These are the balance roots of
    the characteristic polynomial, whose TPD form is built from the same
    diagonal; the test suite checks that, so it is not re-checked here."""
    message = "eigenvalues via the diagonal need a positive definite matrix"
    return _smax_eigenvalues(_tpd_sorted_diag(a, message))


def _smax_eigenvalues(diag) -> RootList:
    """``smax_eigenvalues`` from the sorted diagonal of a matrix already
    classified positive definite."""
    pairs = [(d, len(list(run))) for d, run in groupby(d for d, _ in diag)]
    return RootList(pairs, unique=True)


# --- eigenvectors ----------------------------------------------------------------


_EIGVEC_NEEDS_TPD = "eigenvector formulas need a positive definite matrix"


def _tpd_diag(a: SMatrix, k: int) -> list[tuple[SScalar, int]]:
    """Sorted diagonal of a positive definite matrix with k in range."""
    diag = _tpd_sorted_diag(a, _EIGVEC_NEEDS_TPD)
    if not 1 <= k <= len(diag):
        raise ShapeMismatch(f"eigenvalue index {k} out of range 1..{len(diag)}")
    return diag


def _simple_diag(a: SMatrix, k: int) -> list[tuple[SScalar, int]]:
    """As ``_tpd_diag``, and the k-th eigenvalue must be simple."""
    diag = _tpd_diag(a, k)
    if not _is_simple(diag, k):
        raise NotSimple(f"eigenvalue {k} is not simple")
    return diag


def _gamma(diag, k: int) -> SScalar:
    return diag[k - 1][0]


def _is_simple(diag, k: int) -> bool:
    """Strict separation from both neighbours (below the last entry sits
    zero, which a positive definite diagonal always beats)."""
    n = len(diag)
    g = diag[k - 1][0].mag
    if k > 1 and not _tmag_gt(diag[k - 2][0].mag, g):
        return False
    if k < n and not _tmag_gt(g, diag[k][0].mag):
        return False
    return True


def _tmag_gt(x, y) -> bool:
    return TScalar(y) < TScalar(x)


def _permuted(a: SMatrix, perm) -> SMatrix:
    return SMatrix([[a[i, j] for j in perm] for i in perm])


def eigvec_adjugate(a: SMatrix, k: int, *, size_limit: int | None = None) -> tuple:
    """Candidate eigenvector for the k-th largest diagonal entry, read off
    the matching adjugate column of (gamma I - A).

    Returned in the original coordinate order; the distinguished
    coordinate is the position of the k-th largest diagonal entry.  The
    column is well defined for repeated eigenvalues too, it is just no
    longer guaranteed to contain a signed pivot.
    """
    return _adjugate_vector(a, _tpd_diag(a, k), k, size_limit=size_limit)


def _adjugate_vector(a: SMatrix, diag, k: int, *, size_limit=None) -> tuple:
    """``eigvec_adjugate`` from the sorted diagonal of a positive definite
    matrix."""
    b = (_gamma(diag, k) * SMatrix.identity(a.rows)) + (-a)
    return adjugate_column(b, diag[k - 1][1], size_limit=size_limit)


def _kleene_vector(a: SMatrix, diag, k: int, adj: tuple) -> tuple:
    """The star-route eigenvector, checked against the adjugate vector
    ``adj`` of the same (a, k)."""
    n = a.rows
    perm = [i for _, i in diag]
    asort = _permuted(a, perm)
    g = _gamma(diag, k)
    k0 = k - 1
    zero = SScalar.zero()
    rows = []
    for i in range(n):
        scale = s_neg(diag[i][0]).inv() if i < k0 else g.inv()
        row = []
        for j in range(n):
            e = asort[i, j] if (i != j or i >= k0) else zero
            row.append(s_mul(scale, e))
        rows.append(row)
    star = kleene_star(SMatrix(rows))
    lam = s_pow(g, n - k)
    for i in range(k0):
        lam = s_mul(lam, diag[i][0])
    if k0 % 2:
        lam = s_neg(lam)
    col = star.col(k0)
    v_sorted = scale_vec(lam, col)
    v = [zero] * n
    for i, p in enumerate(perm):
        v[p] = v_sorted[i]
    v = tuple(v)
    if v != adj:
        raise InternalMismatch("star and adjugate eigenvector routes disagree")
    return v


def eigvec_kleene(a: SMatrix, k: int) -> tuple:
    """Same eigenvector via a Kleene star of the rescaled matrix.

    Needs the k-th eigenvalue simple.  The construction zeroes the
    diagonal above k, rescales rows by the inverted diagonal of
    (gamma I - D), stars the result, and scales one column back.  The
    outcome is compared with the adjugate column ``eigvec_adjugate(a, k)``
    and InternalMismatch is raised if they differ.
    """
    diag = _simple_diag(a, k)
    return _kleene_vector(a, diag, k, _adjugate_vector(a, diag, k))


def classify_eigenvector(a: SMatrix, gamma: SScalar, v) -> VectorClass:
    """Strong: exact eigen equation on a signed nonzero vector.  Eigen:
    the equation holds in the balance sense.  Weak: balance holds and at
    least one coordinate is signed nonzero."""
    av = mat_vec(a, v)
    gv = scale_vec(gamma, v)
    if not balances_vec(av, gv):
        return VectorClass.NONE
    some_signed_nonzero = any(e.is_pos or e.is_neg for e in v)
    if not some_signed_nonzero:
        return VectorClass.NONE
    all_signed = all(e.is_signed for e in v)
    if all_signed and av == gv:
        return VectorClass.STRONG
    if all_signed:
        return VectorClass.EIGEN
    return VectorClass.WEAK


def _resolve_signs(a: SMatrix, gamma: SScalar, v) -> tuple:
    """Sign resolution of the balanced coordinates of the adjugate vector
    ``v`` for the eigenvalue ``gamma``; see ``eigvec_construct``."""
    bal_idx = [i for i, e in enumerate(v) if e.is_bal]
    if not bal_idx:
        return v
    for signs in product((1, -1), repeat=len(bal_idx)):
        w = list(v)
        for i, s in zip(bal_idx, signs):
            w[i] = SScalar.pos(v[i].mag) if s > 0 else SScalar.neg(v[i].mag)
        w = tuple(w)
        if classify_eigenvector(a, gamma, w) in (VectorClass.EIGEN, VectorClass.STRONG):
            return w
    raise SearchExhausted("no sign resolution produced an eigenvector")


def eigvec_construct(a: SMatrix, k: int) -> tuple:
    """Resolve the balanced coordinates of the adjugate eigenvector into
    signs so the result is an actual (possibly strong) eigenvector.

    Signs are tried coordinate by coordinate in index order, positive
    first; existence is guaranteed for a simple eigenvalue.
    """
    diag = _simple_diag(a, k)
    return _resolve_signs(a, _gamma(diag, k), _adjugate_vector(a, diag, k))


def _uniqueness_and_strength(a: SMatrix, k: int, v) -> tuple[bool, str]:
    """Uniqueness and strong-existence verdicts from the adjugate vector
    ``v`` of a simple k-th eigenvalue; see ``uniqueness_and_strength``."""
    fully_signed = all(e.is_signed for e in v)
    if not fully_signed:
        strong = "no"
    elif k >= 2 and is_irreducible(a):
        strong = "no"
    elif k == 1:
        strong = "yes"
    else:
        strong = "unknown"
    return fully_signed, strong


def uniqueness_and_strength(a: SMatrix, k: int) -> dict:
    """Uniqueness (up to scalar, in the balance sense) and existence of a
    strong eigenvector for the k-th eigenvalue.

    A fully signed adjugate vector certifies uniqueness.  Strong
    existence is settled negatively by an unsigned coordinate or by
    irreducibility (for k at least 2), positively by the leading
    eigenvalue with a signed vector; anything else stays unknown.
    """
    diag = _simple_diag(a, k)
    unique, strong = _uniqueness_and_strength(a, k, _adjugate_vector(a, diag, k))
    return {"unique_up_to_scalar": unique, "strong_exists": strong}


def genericity_check(a: SMatrix) -> bool:
    """Distinct diagonal and every adjugate eigenvector signed with no
    zero coordinates."""
    diag = _tpd_sorted_diag(a, _EIGVEC_NEEDS_TPD)
    n = len(diag)
    mags = [d.mag for d, _ in diag]
    if len(set(mags)) != n:
        return False
    for k in range(1, n + 1):
        v = _adjugate_vector(a, diag, k)
        if not all(e.is_pos or e.is_neg for e in v):
            return False
    return True


# --- reporting -------------------------------------------------------------------


@dataclass
class EigvecInfo:
    k: int
    gamma: SScalar
    simple: bool
    adjugate: tuple
    kleene: tuple | None
    classification: VectorClass
    unique: bool
    strong_exists: str


def eigvec_info(a: SMatrix, k: int) -> EigvecInfo:
    """The report entry for index k, from one adjugate column: that
    column, its classification and, for a simple eigenvalue, the star
    vector (compared with the column; InternalMismatch if they differ)
    and the uniqueness and strength verdicts."""
    return _eigvec_info(a, _tpd_diag(a, k), k)


def _eigvec_info(a: SMatrix, diag, k: int) -> EigvecInfo:
    """``eigvec_info`` from the sorted diagonal of a positive definite
    matrix."""
    g = _gamma(diag, k)
    v = _adjugate_vector(a, diag, k)
    cls = classify_eigenvector(a, g, v)
    if not _is_simple(diag, k):
        return EigvecInfo(k, g, False, v, None, cls, False, "unknown")
    vk = _kleene_vector(a, diag, k, v)
    unique, strong = _uniqueness_and_strength(a, k, v)
    return EigvecInfo(k, g, True, v, vk, cls, unique, strong)


@dataclass
class SpectralReport:
    eigenvalues: RootList
    vectors: list[EigvecInfo] = field(default_factory=list)
    generic: bool = False

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [
                {"value": format_scalar(r), "mult": m} for r, m in self.eigenvalues
            ],
            "vectors": [
                {
                    "k": info.k,
                    "adjugate": [format_scalar(e) for e in info.adjugate],
                    "kleene": (
                        None
                        if info.kleene is None
                        else [format_scalar(e) for e in info.kleene]
                    ),
                    "class": info.classification.value,
                    "simple": info.simple,
                    "unique": info.unique,
                    "strong_exists": info.strong_exists,
                }
                for info in self.vectors
            ],
            "generic": self.generic,
        }


def spectral_report(a: SMatrix) -> SpectralReport:
    """Eigenvalues plus both eigenvector routes and their classification
    for every index.

    Each adjugate column is computed once.  For a simple eigenvalue the
    star-route vector is compared with that column, and a difference
    raises InternalMismatch.
    """
    diag = _tpd_sorted_diag(a, _EIGVEC_NEEDS_TPD)
    n = len(diag)
    values = _smax_eigenvalues(diag)
    infos = [_eigvec_info(a, diag, k) for k in range(1, n + 1)]
    mags = [d.mag for d, _ in diag]
    generic = len(set(mags)) == n and all(
        all(e.is_pos or e.is_neg for e in info.adjugate) for info in infos
    )
    return SpectralReport(values, infos, generic)
