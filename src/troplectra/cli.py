"""Command-line front end for the tropical spectral toolkit.

Subcommands cover the main library entry points: definiteness checks,
characteristic polynomials, eigenvalues and eigenvector candidates, Kleene
stars, determinants, polynomial roots, the classical-vs-tropical validation
lab, the Gershgorin-style inclusion bound, and the random generators.

Inputs are text files: signed matrices and polynomials use the library's
token formats, monomial families use the ``n`` + sign/exponent grid, and
real symmetric matrices use a ``rows cols`` header followed by float rows.
Output goes to stdout as a plain table (default), CSV, or JSON via
``--format``; pretty scalar output is pure ASCII unless ``--unicode`` is
given.  Exit codes: 0 on success, 1 on domain errors (the error class name
is printed on stderr), 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
    gershgorin_pd_bound,
    random_gram_pd,
    random_tpd,
)

__all__ = ["main"]


def _read(path: str) -> str:
    return Path(path).read_text()


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


def _format_real_matrix(arr: np.ndarray) -> str:
    lines = [f"{arr.shape[0]} {arr.shape[1]}"]
    for row in arr.tolist():
        lines.append(" ".join(repr(x) for x in row))
    return "\n".join(lines)


def _emit(text: str) -> int:
    print(text)
    return 0


def _json(obj) -> int:
    return _emit(json.dumps(obj, indent=2))


# --- subcommand handlers -------------------------------------------------------


def _cmd_check(args) -> int:
    cls = classify_pd(parse_matrix(_read(args.file)))
    witness = list(cls.witness) if cls.witness is not None else None
    if args.format == "json":
        return _json({"verdict": cls.verdict.value, "witness": witness})
    if args.format == "csv":
        w = f"{witness[0]},{witness[1]}" if witness else ","
        return _emit(f"verdict,witness_i,witness_j\n{cls.verdict.value},{w}")
    suffix = f" (witness {witness[0]},{witness[1]})" if witness else ""
    return _emit(cls.verdict.value + suffix)


def _cmd_charpoly(args) -> int:
    p = charpoly(parse_matrix(_read(args.file)))
    if args.format == "json":
        return _json(
            {"coefficients": format_poly(p).split(), "pretty": pretty_poly(p)}
        )
    if args.format == "csv":
        rows = ["degree,coefficient"]
        rows += [f"{k},{tok}" for k, tok in enumerate(format_poly(p).split())]
        return _emit("\n".join(rows))
    return _emit(pretty_poly(p, unicode=args.unicode))


def _cmd_eig(args) -> int:
    a = parse_matrix(_read(args.file))
    if args.report:
        rep = spectral_report(a)
        if args.format == "json":
            return _json(rep.to_json_dict())
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
        return _emit("\n".join(lines))
    roots = smax_eigenvalues(a)
    if args.format == "json":
        return _json(
            [{"value": format_scalar(r), "mult": m} for r, m in roots]
        )
    rows = ["gamma,mult" if args.format == "csv" else "gamma mult"]
    sep = "," if args.format == "csv" else " "
    rows += [f"{format_scalar(r)}{sep}{m}" for r, m in roots]
    return _emit("\n".join(rows))


def _cmd_eigvec(args) -> int:
    a = parse_matrix(_read(args.file))
    k = args.k
    smax_eigenvalues(a)  # the NotTPD message and the balance-root check
    info = eigvec_info(a, k)
    if not info.simple:
        raise NotSimple(f"eigenvalue {k} is not simple")
    built = _resolve_signs(a, info.gamma, info.adjugate) if args.construct else None
    if args.format == "json":
        return _json(
            {
                "k": k,
                "gamma": format_scalar(info.gamma),
                "adjugate": [format_scalar(x) for x in info.adjugate],
                "kleene": [format_scalar(x) for x in info.kleene],
                "class": info.classification.value,
                "unique": info.unique,
                "strong_exists": info.strong_exists,
                "construct": None
                if built is None
                else [format_scalar(x) for x in built],
            }
        )
    if args.unicode:
        def show(v):
            return pretty_vector(v, unicode=True)
    else:
        show = format_vector
    lines = [
        f"gamma {format_scalar(info.gamma)}",
        f"adjugate {show(info.adjugate)}",
        f"kleene {show(info.kleene)}",
        f"class {info.classification.value}",
        f"unique {str(info.unique).lower()}",
        f"strong_exists {info.strong_exists}",
    ]
    if built is not None:
        lines.append(f"construct {show(built)}")
    return _emit("\n".join(lines))


def _cmd_star(args) -> int:
    star = kleene_star(parse_matrix(_read(args.file)))
    if args.format == "json":
        return _json(matrix_to_json(star))
    if args.format == "csv":
        return _emit(
            "\n".join(
                ",".join(format_scalar(x) for x in star.row(i))
                for i in range(star.rows)
            )
        )
    if args.unicode:
        return _emit(pretty_matrix(star, unicode=True))
    return _emit(format_matrix(star).rstrip("\n"))


def _cmd_det(args) -> int:
    a = parse_matrix(_read(args.file))
    d = determinant(a)
    per = permanent(a.modulus())
    per_txt = "bot" if per.value is None else str(per.value)
    if args.format == "json":
        return _json({"det": format_scalar(d), "permanent": per_txt})
    if args.format == "csv":
        return _emit(f"det,permanent\n{format_scalar(d)},{per_txt}")
    return _emit(f"det {format_scalar(d)}\npermanent {per_txt}")


def _cmd_poly_roots(args) -> int:
    p = parse_poly(_read(args.file))
    found = []
    for cand in smax_root_candidates(p):
        kind = verify_smax_root(p, cand)
        if kind is not RootKind.NOT_ROOT:
            found.append((cand, kind, multiplicity(p, cand)))
    corners = tmax_roots(p.modulus())
    if args.format == "json":
        return _json(
            {
                "roots": [
                    {"root": format_scalar(r), "kind": kind.value, "mult": m}
                    for r, kind, m in found
                ],
                "modulus_roots": [
                    {"root": str(r.value), "mult": m} for r, m in corners
                ],
            }
        )
    sep = "," if args.format == "csv" else " "
    rows = ["root,kind,mult" if args.format == "csv" else "root kind mult"]
    rows += [
        f"{format_scalar(r)}{sep}{kind.value}{sep}{m}" for r, kind, m in found
    ]
    return _emit("\n".join(rows))


def _cmd_validate(args) -> int:
    fam = MonomialMatrix.parse(_read(args.file))
    if args.vectors:
        rep = compare_eigenvectors(fam, args.t, slack=args.slack)
    else:
        rep = compare_eigenvalues(fam, args.t)
    if args.format == "json":
        return _json(rep.to_json_dict())
    if args.format == "csv":
        return _emit(rep.to_csv().rstrip("\n"))
    return _emit(rep.pretty().rstrip("\n"))


def _cmd_gersh(args) -> int:
    gb = gershgorin_pd_bound(_parse_real_matrix(_read(args.file)))
    if args.format == "json":
        return _json(
            {
                "gamma": None if math.isinf(gb.gamma) else gb.gamma,
                "weak": gb.weak,
                "contained": gb.contained,
                "balls": [list(b) for b in gb.balls],
                "eigenvalues": list(gb.eigenvalues),
            }
        )
    if args.format == "csv":
        rows = ["center,radius"]
        rows += [f"{c!r},{r!r}" for c, r in gb.balls]
        return _emit("\n".join(rows))
    lines = [
        f"gamma {'inf' if math.isinf(gb.gamma) else repr(gb.gamma)}",
        f"weak {str(gb.weak).lower()}",
        f"contained {str(gb.contained).lower()}",
    ]
    lines += [f"ball {c!r} {r!r}" for c, r in gb.balls]
    return _emit("\n".join(lines))


def _cmd_random(args) -> int:
    if args.kind == "tpd":
        a = random_tpd(
            args.n, args.seed, exponent_range=(args.lo, args.hi), margin=args.margin
        )
        if args.format == "json":
            return _json(matrix_to_json(a))
        return _emit(format_matrix(a).rstrip("\n"))
    b = random_gram_pd(args.n, args.seed)
    if args.format == "json":
        return _json({"rows": b.tolist()})
    return _emit(_format_real_matrix(b))


# --- parser --------------------------------------------------------------------


def _add_format(sub, csv: bool = True):
    choices = ["table", "csv", "json"] if csv else ["table", "json"]
    sub.add_argument(
        "--format", choices=choices, default="table", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplectra",
        description="Signed tropical matrices: spectra, stars, and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a signed symmetric matrix")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("charpoly", help="characteristic polynomial")
    p.add_argument("file")
    p.add_argument("--unicode", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("eig", help="eigenvalues of a definite matrix")
    p.add_argument("file")
    p.add_argument(
        "--report", action="store_true", help="full spectral report with vectors"
    )
    _add_format(p)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("eigvec", help="eigenvector candidate for one eigenvalue")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True, help="eigenvalue index, 1-based")
    p.add_argument(
        "--construct",
        action="store_true",
        help="also search for a signed resolution of balanced coordinates",
    )
    p.add_argument("--unicode", action="store_true")
    _add_format(p, csv=False)
    p.set_defaults(func=_cmd_eigvec)

    p = sub.add_parser("star", help="Kleene star of a signed matrix")
    p.add_argument("file")
    p.add_argument("--unicode", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("det", help="determinant and permanent of the modulus")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("poly-roots", help="roots of a signed polynomial")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_poly_roots)

    p = sub.add_parser(
        "validate", help="compare tropical predictions with classical spectra"
    )
    p.add_argument("file", help="monomial family file")
    p.add_argument(
        "--t",
        type=_t_list,
        default=[10.0, 100.0],
        help="comma-separated list of bases, e.g. 10,100",
    )
    p.add_argument(
        "--vectors", action="store_true", help="compare eigenvectors, not just values"
    )
    p.add_argument("--slack", type=float, default=DEFAULT_BALANCE_SLACK)
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gersh", help="Gershgorin-style inclusion bound")
    p.add_argument("file", help="real symmetric matrix file")
    _add_format(p)
    p.set_defaults(func=_cmd_gersh)

    p = sub.add_parser("random", help="emit a seeded random matrix")
    p.add_argument("kind", choices=["tpd", "gram"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lo", type=int, default=0, help="low diagonal exponent (tpd)")
    p.add_argument("--hi", type=int, default=5, help="high diagonal exponent (tpd)")
    p.add_argument("--margin", type=int, default=1, help="definiteness margin (tpd)")
    _add_format(p, csv=False)
    p.set_defaults(func=_cmd_random)

    return parser


def _t_list(text: str) -> list[float]:
    toks = [tok for tok in text.split(",") if tok.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty base list")
    try:
        return [float(tok) for tok in toks]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad base list {text!r}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except TropError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
