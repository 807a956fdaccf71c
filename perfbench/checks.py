"""Oracles and tolerances for the float columns of the lab workloads.

These run after the timed region.  ``lab_families`` is checked against
mpmath at 100 digits on the exact family (entries ``sign * t**exponent``);
``lab_gram`` against ``numpy.linalg.eigvalsh`` and a direct evaluation of
the tropical predictions on an independent copy of the seeded Gram matrix.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

ORACLE_DPS = 100
# Normwise bounds: a backward-stable symmetric eigensolver meets these.
EIG_NORMWISE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
# Log-relative bound on each classical eigenvalue.  It catches a wrong,
# missing or misordered eigenvalue and admits the Jacobi solver's known
# relative error on tiny eigenvalues (about 1e-1), which the benchmark
# reports as eig_rel_err_max instead of failing on it.
EIG_LOG_REL_TOL = 0.5
GRAM_REL_TOL = 1e-8
CONSISTENCY_TOL = 1e-9


def parse_token(tok: str) -> tuple[int, float | None]:
    """Signed-valuation token (``p1.5``, ``n-2``, ``b3``, ``z``) as (sign, mag)."""
    if tok == "z":
        return 0, None
    return {"p": 1, "n": -1, "b": 0}[tok[0]], float(Fraction(tok[1:]))


def parse_family(text: str) -> tuple[int, list[list[tuple[int, Fraction | None]]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][0])
    grid = [
        [(0, None) if tok == "0" else (1 if tok[0] == "+" else -1, Fraction(tok[1:]))
         for tok in row]
        for row in lines[1:]
    ]
    return n, grid


class FamilyOracle:
    """High-precision eigenpairs of monomial families, and the accuracy tally."""

    def __init__(self):
        from mpmath import MPContext

        self.mp = MPContext()
        self.mp.dps = ORACLE_DPS
        self._cache: dict = {}
        self.worst = (0.0, None)
        self.rows_checked = 0

    def eig(self, family: str, t: float):
        """(matrix, eigenvalues descending, eigenvector columns in that order)."""
        key = (family, t)
        hit = self._cache.get(key)
        if hit is None:
            mp = self.mp
            n, grid = parse_family(family)
            a = mp.matrix(n, n)
            base = mp.mpf(t)
            for i in range(n):
                for j in range(n):
                    s, e = grid[i][j]
                    if s:
                        a[i, j] = s * mp.power(base, mp.mpf(e.numerator) / e.denominator)
            w, q = mp.eigsy(a)
            order = sorted(range(n), key=lambda k: -w[k])
            hit = (a, [w[k] for k in order], [[q[i, k] for i in range(n)] for k in order])
            self._cache[key] = hit
        return hit

    def check_report(self, family: str, instance: int, text: str) -> list[str]:
        mp = self.mp
        rep = json.loads(text)
        n, grid = parse_family(family)
        pivots = sorted(range(n), key=lambda j: -grid[j][j][1])
        problems = []
        for r in rep["rows"]:
            k, t = r["k"], r["t"]
            where = f"instance {instance} n={n} t={t:g} k={k}"
            a, lams, vecs = self.eig(family, t)
            lam_ref = lams[k - 1]
            lam_max = max(abs(x) for x in lams)
            sign, mag = parse_token(r["sv"])
            gsign, gmag = parse_token(r["gamma"])
            if mag is None or sign != (1 if lam_ref > 0 else -1):
                problems.append(f"{where}: sv {r['sv']} vs oracle {mp.nstr(lam_ref, 8)}")
                continue
            lam = sign * mp.power(t, mag)
            log_err = float(abs(mp.mpf(mag) - mp.log(abs(lam_ref), t)) * math.log(t))
            self.rows_checked += 1
            if log_err > self.worst[0]:
                self.worst = (log_err, {"tpd_seed": instance, "n": n, "t": t, "k": k})
            if log_err > EIG_LOG_REL_TOL or abs(lam - lam_ref) > EIG_NORMWISE_TOL * lam_max:
                problems.append(f"{where}: eigenvalue off by {log_err:.3g} (log-relative)")
            if abs(r["residual"] - abs(mag - gmag)) > CONSISTENCY_TOL * max(1.0, abs(gmag)):
                problems.append(f"{where}: residual column {r['residual']!r} inconsistent")
            if r["sign_match"] != (sign == gsign):
                problems.append(f"{where}: sign_match column inconsistent")
            coords = r["coordinates"]
            if coords is None:
                continue
            if not coords:
                q = vecs[k - 1]
                if abs(q[pivots[k - 1]]) > 1e-6 * max(abs(x) for x in q):
                    problems.append(f"{where}: marked degenerate, oracle anchor is not small")
                continue
            problems += self._check_vector(a, lam, lam_max, coords, rep["slack"], t, where)
        return problems

    def _check_vector(self, a, lam, lam_max, coords, slack, t, where) -> list[str]:
        mp = self.mp
        n = len(coords)
        x = []
        problems = []
        for c in coords:
            osign, omag = parse_token(c["observed"])
            x.append(0 if omag is None else osign * mp.power(t, omag))
            psign, pmag = parse_token(c["prediction"])
            if c["kind"] == "signed":
                ok = c["sign_match"] == (omag is not None and osign == psign)
                if omag is not None:
                    ok = ok and abs(c["residual"] - abs(omag - pmag)) <= CONSISTENCY_TOL * max(1.0, abs(pmag))
                if not ok:
                    problems.append(f"{where}: coordinate {c['index']} columns inconsistent")
            elif c["kind"] == "balanced" and omag is not None:
                if c["within_slack"] != (omag <= pmag + slack):
                    problems.append(f"{where}: coordinate {c['index']} slack flag inconsistent")
        x_max = max(abs(v) for v in x)
        resid = max(abs(sum(a[i, j] * x[j] for j in range(n)) - lam * x[i]) for i in range(n))
        if x_max == 0 or resid > RESIDUAL_TOL * lam_max * x_max:
            problems.append(f"{where}: eigenvector residual {mp.nstr(resid / (lam_max * x_max), 3)}")
        return problems

    def accuracy(self) -> dict:
        return {
            "eig_rel_err_max": self.worst[0],
            "eig_rel_err_worst": self.worst[1],
            "eig_rows_checked": self.rows_checked,
            "oracle_dps": ORACLE_DPS,
        }


def gram_matrix(n: int, seed: int) -> np.ndarray:
    """Independent copy of the seeded Gram generator: C @ C.T, C uniform(-1, 1)."""
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    return c @ c.T


def _eig_problems(observed, b: np.ndarray, what: str) -> list[str]:
    ref = np.linalg.eigvalsh(b)[::-1]
    top = float(np.abs(ref).max())
    problems = []
    if len(observed) != len(ref):
        return [f"{what}: {len(observed)} eigenvalues, expected {len(ref)}"]
    for k, (lam, want) in enumerate(zip(observed, ref.tolist()), start=1):
        big = abs(want) > GRAM_REL_TOL * top
        err = abs(lam - want) / (abs(want) if big else top)
        if err > GRAM_REL_TOL:
            problems.append(f"{what}: eigenvalue {k} {lam!r} vs eigvalsh {want!r}")
    return problems


def gram_problems(n: int, seed: int, t: float, text: str) -> list[str]:
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    what = f"gram_experiment n={n} seed={seed}"
    b = gram_matrix(n, seed)
    gam_ref = sorted((math.log(x) / math.log(t) for x in np.diag(b)), reverse=True)
    problems, lams = [], []
    for r in rows:
        k = int(r[0])
        gsign, gmag = parse_token(r[2])
        sign, mag = parse_token(r[3])
        if gsign != 1 or abs(gmag - gam_ref[k - 1]) > CONSISTENCY_TOL * max(1.0, abs(gam_ref[k - 1])):
            problems.append(f"{what}: gamma {k} {r[2]} vs {gam_ref[k - 1]!r}")
        lams.append(0.0 if mag is None else sign * t ** mag)
        if mag is not None and abs(float(r[4]) - abs(mag - gmag)) > CONSISTENCY_TOL * max(1.0, abs(gmag)):
            problems.append(f"{what}: residual column {k} inconsistent")
        if (r[6] == "true") != (sign == gsign):
            problems.append(f"{what}: sign_match column {k} inconsistent")
    return problems + _eig_problems(lams, b, what)


def gersh_problems(n: int, seed: int, text: str) -> list[str]:
    gb = json.loads(text)
    what = f"gershgorin_pd_bound n={n} seed={seed}"
    b = gram_matrix(n, seed)
    d = np.diag(b).tolist()
    gamma = min(
        (math.sqrt(d[i] * d[j]) / abs(b[i, j]) for i in range(n) for j in range(i + 1, n)
         if b[i, j] != 0.0),
        default=math.inf,
    )
    problems = []
    got = math.inf if gb["gamma"] is None else gb["gamma"]
    if not math.isclose(got, gamma, rel_tol=CONSISTENCY_TOL):
        problems.append(f"{what}: gamma {got!r} vs {gamma!r}")
    for (c, r), di in zip(gb["balls"], d):
        radius = 0.0 if math.isinf(gamma) else di * (n - 1) / gamma
        if not (math.isclose(c, di, rel_tol=CONSISTENCY_TOL)
                and math.isclose(r, radius, rel_tol=CONSISTENCY_TOL)):
            problems.append(f"{what}: ball ({c!r}, {r!r}) vs ({di!r}, {radius!r})")
    if not gb["contained"]:
        problems.append(f"{what}: spectrum not contained in the balls")
    return problems + _eig_problems(gb["eigenvalues"], b, what)
