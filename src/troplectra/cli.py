"""Command-line front end for the tropical spectral toolkit.

Subcommands cover the main library entry points: definiteness checks,
characteristic polynomials, eigenvalues and eigenvector candidates, Kleene
stars, determinants, polynomial roots, the classical-vs-tropical validation
lab, the Gershgorin-style inclusion bound, and the random generators.

Inputs are text files: signed matrices and polynomials use the library's
token formats, monomial families use the ``n`` + sign/exponent grid, and
real symmetric matrices use a ``rows cols`` header followed by float rows.
Output goes to stdout as a plain table (default), CSV (not for ``eigvec``
or ``random``), or JSON via ``--format``; pretty scalar output is pure
ASCII unless ``--unicode`` is given.  Exit codes: 0 on success, 1 on domain errors (the error class name
is printed on stderr), 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .matrix import (
    determinant,
    format_matrix,
    format_vector,
    kleene_star,
    matrix_to_json,
    parse_matrix,
    permanent,
    pretty_matrix,
    pretty_vector,
)
from .polynomial import (
    format_poly,
    multiplicity,
    parse_poly,
    pretty_poly,
    smax_root_candidates,
    tmax_roots,
    verify_smax_root,
    RootKind,
)
from .semiring import ParseError, TropError, format_scalar
from .spectral import (
    _resolve_signs,
    classify_pd,
    charpoly,
    eigvec_info,
    NotSimple,
    smax_eigenvalues,
    spectral_report,
)
from .valuation import (
    MonomialMatrix,
    compare_eigenvalues,
    compare_eigenvectors,
    DEFAULT_BALANCE_SLACK,
    DEFAULT_T_GRID,
    gershgorin_pd_bound,
    random_gram_pd,
    random_tpd,
)

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_real_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty real matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("expected a 'rows cols' header line")
    try:
        r, c = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if len(lines) != r + 1:
        raise ParseError(f"expected {r} rows after the header")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != c:
            raise ParseError(f"expected {c} entries per row, got {len(toks)}")
        try:
            rows.append([float(tok) for tok in toks])
        except ValueError as exc:
            raise ParseError(f"bad real entry in row {ln!r}") from exc
    return np.array(rows)


def _rows(args, header, rows) -> str:
    """A header line and one line per row, comma-separated under csv."""
    sep = "," if args.format == "csv" else " "
    return "\n".join(sep.join(str(x) for x in row) for row in [header, *rows])


# --- subcommand handlers: each returns text, or a JSON-able object ------------


def _cmd_check(args):
    cls = classify_pd(parse_matrix(_read(args.file)))
    witness = list(cls.witness) if cls.witness is not None else None
    if args.format == "json":
        return {"verdict": cls.verdict.value, "witness": witness}
    if args.format == "csv":
        row = [cls.verdict.value, *(witness or ["", ""])]
        return _rows(args, ["verdict", "witness_i", "witness_j"], [row])
    suffix = f" (witness {witness[0]},{witness[1]})" if witness else ""
    return cls.verdict.value + suffix


def _cmd_charpoly(args):
    p = charpoly(parse_matrix(_read(args.file)))
    if args.format == "json":
        return {"coefficients": format_poly(p).split(), "pretty": pretty_poly(p)}
    if args.format == "csv":
        coeffs = enumerate(format_poly(p).split())
        return _rows(args, ["degree", "coefficient"], coeffs)
    return pretty_poly(p, unicode=args.unicode)


def _cmd_eig(args):
    a = parse_matrix(_read(args.file))
    if args.report:
        rep = spectral_report(a)
        if args.format == "json":
            return rep.to_json_dict()
        lines = []
        for ev in rep.eigenvalues:
            lines.append(f"gamma {format_scalar(ev[0])} mult {ev[1]}")
        for info in rep.vectors:
            lines.append(
                f"k={info.k} class {info.classification.value} "
                f"simple {str(info.simple).lower()} "
                f"unique {str(info.unique).lower()} "
                f"strong_exists {info.strong_exists}"
            )
            lines.append(f"  adjugate {format_vector(info.adjugate)}")
            if info.kleene is not None:
                lines.append(f"  kleene   {format_vector(info.kleene)}")
        lines.append(f"generic {str(rep.generic).lower()}")
        return "\n".join(lines)
    roots = [(format_scalar(r), m) for r, m in smax_eigenvalues(a)]
    if args.format == "json":
        return [{"value": r, "mult": m} for r, m in roots]
    return _rows(args, ["gamma", "mult"], roots)


def _cmd_eigvec(args):
    a = parse_matrix(_read(args.file))
    k = args.k
    smax_eigenvalues(a)  # the NotTPD message of the eigenvalue route
    info = eigvec_info(a, k)
    if not info.simple:
        raise NotSimple(f"eigenvalue {k} is not simple")
    built = _resolve_signs(a, info.gamma, info.adjugate) if args.construct else None
    as_json = args.format == "json"
    if as_json:
        def show(v):
            return [format_scalar(x) for x in v]
    else:
        show = partial(pretty_vector, unicode=True) if args.unicode else format_vector
    fields = {
        "gamma": format_scalar(info.gamma),
        "adjugate": show(info.adjugate),
        "kleene": show(info.kleene),
        "class": info.classification.value,
        "unique": info.unique if as_json else str(info.unique).lower(),
        "strong_exists": info.strong_exists,
        "construct": None if built is None else show(built),
    }
    if as_json:
        return {"k": k, **fields}
    return "\n".join(f"{key} {v}" for key, v in fields.items() if v is not None)


def _cmd_star(args):
    star = kleene_star(parse_matrix(_read(args.file)))
    if args.format == "json":
        return matrix_to_json(star)
    if args.format == "csv":
        return "\n".join(
            ",".join(format_scalar(x) for x in star.row(i)) for i in range(star.rows)
        )
    if args.unicode:
        return pretty_matrix(star, unicode=True)
    return format_matrix(star).rstrip("\n")


def _cmd_det(args):
    a = parse_matrix(_read(args.file))
    d = format_scalar(determinant(a))
    per = permanent(a.modulus())
    per_txt = "bot" if per.value is None else str(per.value)
    if args.format == "json":
        return {"det": d, "permanent": per_txt}
    if args.format == "csv":
        return _rows(args, ["det", "permanent"], [[d, per_txt]])
    return f"det {d}\npermanent {per_txt}"


def _cmd_poly_roots(args):
    p = parse_poly(_read(args.file))
    found = []
    for cand in smax_root_candidates(p):
        kind = verify_smax_root(p, cand)
        if kind is not RootKind.NOT_ROOT:
            found.append((format_scalar(cand), kind.value, multiplicity(p, cand)))
    if args.format == "json":
        return {
            "roots": [{"root": r, "kind": kind, "mult": m} for r, kind, m in found],
            "modulus_roots": [
                {"root": str(r.value), "mult": m} for r, m in tmax_roots(p.modulus())
            ],
        }
    return _rows(args, ["root", "kind", "mult"], found)


def _cmd_validate(args):
    fam = MonomialMatrix.parse(_read(args.file))
    if args.vectors:
        rep = compare_eigenvectors(fam, args.t, slack=args.slack)
    else:
        rep = compare_eigenvalues(fam, args.t)
    if args.format == "json":
        return rep.to_json_dict()
    if args.format == "csv":
        return rep.to_csv().rstrip("\n")
    return rep.pretty().rstrip("\n")


def _cmd_gersh(args):
    gb = gershgorin_pd_bound(_parse_real_matrix(_read(args.file)))
    if args.format == "json":
        return {
            "gamma": None if math.isinf(gb.gamma) else gb.gamma,
            "weak": gb.weak,
            "contained": gb.contained,
            "balls": [list(b) for b in gb.balls],
            "eigenvalues": list(gb.eigenvalues),
        }
    balls = [(repr(c), repr(r)) for c, r in gb.balls]
    if args.format == "csv":
        return _rows(args, ["center", "radius"], balls)
    lines = [
        f"gamma {'inf' if math.isinf(gb.gamma) else repr(gb.gamma)}",
        f"weak {str(gb.weak).lower()}",
        f"contained {str(gb.contained).lower()}",
    ]
    return "\n".join(lines + [f"ball {c} {r}" for c, r in balls])


def _cmd_random(args):
    if args.kind == "tpd":
        a = random_tpd(
            args.n, args.seed, exponent_range=(args.lo, args.hi), margin=args.margin
        )
        if args.format == "json":
            return matrix_to_json(a)
        return format_matrix(a).rstrip("\n")
    b = random_gram_pd(args.n, args.seed)
    if args.format == "json":
        return {"rows": b.tolist()}
    return _rows(args, b.shape, [map(repr, row) for row in b.tolist()])


# --- parser --------------------------------------------------------------------


def _t_list(text: str) -> list[float]:
    toks = [tok for tok in text.split(",") if tok.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty base list")
    try:
        return [float(tok) for tok in toks]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad base list {text!r}") from exc


def _arg(*flags, **kwargs):
    return flags, kwargs


_FILE = _arg("file")
_UNICODE = _arg("--unicode", action="store_true")
_ALL, _NO_CSV = ("table", "csv", "json"), ("table", "json")

# Each subcommand once, in help order: name -> (handler, help, --format
# choices, add_argument specs in option order; --format comes last).
_COMMANDS = {
    "check": (_cmd_check, "classify a signed symmetric matrix", _ALL, [_FILE]),
    "charpoly": (_cmd_charpoly, "characteristic polynomial", _ALL, [_FILE, _UNICODE]),
    "eig": (_cmd_eig, "eigenvalues of a definite matrix", _ALL, [
        _FILE,
        _arg("--report", action="store_true", help="full spectral report with vectors"),
    ]),
    "eigvec": (_cmd_eigvec, "eigenvector candidate for one eigenvalue", _NO_CSV, [
        _FILE,
        _arg("-k", type=int, required=True, help="eigenvalue index, 1-based"),
        _arg("--construct", action="store_true",
             help="also search for a signed resolution of balanced coordinates"),
        _UNICODE,
    ]),
    "star": (_cmd_star, "Kleene star of a signed matrix", _ALL, [_FILE, _UNICODE]),
    "det": (_cmd_det, "determinant and permanent of the modulus", _ALL, [_FILE]),
    "poly-roots": (_cmd_poly_roots, "roots of a signed polynomial", _ALL, [_FILE]),
    "validate": (
        _cmd_validate, "compare tropical predictions with classical spectra", _ALL, [
            _arg("file", help="monomial family file"),
            _arg("--t", type=_t_list, default=DEFAULT_T_GRID,
                 help="comma-separated list of bases, e.g. 10,100"),
            _arg("--vectors", action="store_true",
                 help="compare eigenvectors, not just values"),
            _arg("--slack", type=float, default=DEFAULT_BALANCE_SLACK),
        ],
    ),
    "gersh": (_cmd_gersh, "Gershgorin-style inclusion bound", _ALL, [
        _arg("file", help="real symmetric matrix file"),
    ]),
    "random": (_cmd_random, "emit a seeded random matrix", _NO_CSV, [
        _arg("kind", choices=["tpd", "gram"]),
        _arg("-n", type=int, required=True),
        _arg("--seed", type=int, default=0),
        _arg("--lo", type=int, default=0, help="low diagonal exponent (tpd)"),
        _arg("--hi", type=int, default=5, help="high diagonal exponent (tpd)"),
        _arg("--margin", type=int, default=1, help="definiteness margin (tpd)"),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplectra",
        description="Signed tropical matrices: spectra, stars, and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, formats, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        p.add_argument(
            "--format", choices=formats, default="table", help="output format"
        )
        p.set_defaults(func=func)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        out = args.func(args)
        print(out if isinstance(out, str) else json.dumps(out, indent=2))
    except TropError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
