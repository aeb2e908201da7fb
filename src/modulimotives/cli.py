"""Command-line front end.

Subcommands compute motivic classes of the supported moduli spaces and render
them as a canonical JSON class, a Poincare polynomial, or a Hodge-number
matrix; ``verify`` runs the cross-checking sweeps.  Identical invocations
produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage or hypothesis error
(a :class:`~modulimotives.motive.UsageError`), 3 any other exception, which
means a broken internal invariant (a chamber mismatch, a negative coefficient,
an inexact division, a ``TypeError``, ``KeyError``, any other ``ValueError``):
one ``internal error:`` line on stderr.  An input past its ceiling
(:data:`MAX_GENUS`, :data:`MAX_PAIR_DEGREE`, :data:`MAX_VERIFY_GENUS`) is a
usage error, raised before any work.  When the reader of stdout goes away
(``... | head -1``), the command stops quietly with 141, as a command killed
by ``SIGPIPE`` would.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bundles import BundleSpec, bundle_motive, bundle_motive_fixed_det
from .higgs import HiggsSpec, higgs_motive, higgs_motive_mod_jac
from .motive import MotiveClass, UsageError
from .pairs import (
    ChamberSpec,
    chamber_of,
    pair_motive_flip,
    pair_motive_geo,
    pair_motive_sym,
)
from .verify import SUITES, run_suite

FORMATS = ("class-json", "poincare", "diamond-text", "diamond-json")

# Ceilings on the inputs whose cost grows without bound.  On a 2-vCPU x86-64 host
# (best of 7) the costliest query inside each took: at genus 30, ``higgs`` 0.9 s
# as class-json (0.88 s and an 84 MB peak in process), 0.9 s as diamond-json,
# 0.7 s with --mod-jac, ``bundles`` 0.36 s as class-json (0.32 s and 68 MB in
# process), ``pairs`` 0.23 s as diamond-json at e = 400, chamber 199 (0.11 s in
# process); ``verify --suite all`` 1.4 s at 12.
MAX_GENUS = 30
MAX_PAIR_DEGREE = 400
MAX_VERIFY_GENUS = 12


def render_class(cls: MotiveClass, fmt: str) -> str:
    """``cls`` in ``fmt``.  class-json reads the class's sorted rows
    (:meth:`~modulimotives.motive.MotiveClass.to_json_dict`), which a Jacobian
    multiple takes straight from its closed-form expansion, with no ``IntPoly``
    built; diamond-text rows use one ``%d`` format, as ``"%d" % c == str(c)``."""
    if fmt == "class-json":
        return json.dumps(cls.to_json_dict())
    if fmt == "poincare":
        return cls.poincare_polynomial().to_str("t")
    matrix = cls.hodge_matrix()
    if fmt == "diamond-text":
        row_format = " ".join(["%d"] * len(matrix))
        return "\n".join([row_format % tuple(row) for row in matrix])
    if fmt == "diamond-json":
        return json.dumps(
            {"genus": cls.genus, "rows_are_p": True, "matrix": matrix}
        )
    raise ValueError(f"unknown format {fmt!r}")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="diamond-text",
        help="output format (default: diamond-text)",
    )


def _at_most(value: int, name: str, bound: int) -> int:
    if value > bound:
        raise UsageError(f"{name} must be <= {bound}, got {value}")
    return value


def _add_genus_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--genus", type=int, required=True, help=f"curve genus, at most {MAX_GENUS}"
    )


def _parse_rational(text: str) -> Fraction:
    if "e" in text.lower():  # Fraction("1e-10000000") builds 10^(10^7)
        raise argparse.ArgumentTypeError(f"exponent notation is not accepted, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 3/2, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modulimotives",
        description=(
            "Exact motivic classes and Hodge diamonds of moduli spaces of "
            "rank-3 bundles, rank-2 pairs and rank-3 Higgs bundles on a curve."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bundles = sub.add_parser(
        "bundles", help="moduli of semistable rank-3 bundles of coprime degree"
    )
    _add_genus_flag(p_bundles)
    p_bundles.add_argument("--degree", type=int, required=True)
    p_bundles.add_argument(
        "--fixed-det",
        action="store_true",
        help="fixed-determinant moduli space instead of varying determinant",
    )
    _add_format_flag(p_bundles)

    p_pairs = sub.add_parser(
        "pairs", help="moduli of rank-2 pairs in a given stability chamber"
    )
    _add_genus_flag(p_pairs)
    p_pairs.add_argument(
        "--e", type=int, required=True, help=f"pair degree, 2..{MAX_PAIR_DEGREE}"
    )
    which = p_pairs.add_mutually_exclusive_group(required=True)
    which.add_argument("--chamber", type=int, help="chamber index i")
    which.add_argument(
        "--sigma",
        type=_parse_rational,
        help="exact rational stability parameter, e.g. 3/4 or 0.75 (no float, no exponent)",
    )
    p_pairs.add_argument(
        "--method",
        choices=("flip", "sym", "geo"),
        default="flip",
        help="formula route (default: flip, the wall-crossing recursion)",
    )
    _add_format_flag(p_pairs)

    p_higgs = sub.add_parser(
        "higgs", help="moduli of rank-3 Higgs bundles of coprime degree"
    )
    _add_genus_flag(p_higgs)
    p_higgs.add_argument("--degree", type=int, required=True)
    p_higgs.add_argument(
        "--mod-jac",
        action="store_true",
        help="the cofactor of the Jacobian class instead of the full class",
    )
    _add_format_flag(p_higgs)

    p_verify = sub.add_parser("verify", help="run the cross-checking sweeps")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument(
        "--max-genus",
        type=int,
        default=4,
        help=f"largest genus swept, 2..{MAX_VERIFY_GENUS} (default: 4)",
    )

    return parser


def _cmd_bundles(args: argparse.Namespace) -> int:
    spec = BundleSpec(_at_most(args.genus, "genus", MAX_GENUS), args.degree)
    cls = bundle_motive_fixed_det(spec) if args.fixed_det else bundle_motive(spec)
    print(render_class(cls, args.format))
    return 0


def _cmd_pairs(args: argparse.Namespace) -> int:
    _at_most(args.genus, "genus", MAX_GENUS)
    _at_most(args.e, "pair degree e", MAX_PAIR_DEGREE)
    if args.chamber is not None:
        index = args.chamber
    else:
        index = chamber_of(args.sigma, args.e)
    spec = ChamberSpec(g=args.genus, e=args.e, i=index)
    route = {
        "flip": pair_motive_flip,
        "sym": pair_motive_sym,
        "geo": pair_motive_geo,
    }[args.method]
    print(render_class(route(spec), args.format))
    return 0


def _cmd_higgs(args: argparse.Namespace) -> int:
    spec = HiggsSpec(_at_most(args.genus, "genus", MAX_GENUS), args.degree)
    cls = higgs_motive_mod_jac(spec) if args.mod_jac else higgs_motive(spec)
    print(render_class(cls, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    max_genus = _at_most(args.max_genus, "max genus", MAX_VERIFY_GENUS)
    results = run_suite(args.suite, max_genus)
    for result in results:
        print(result.render())
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "bundles": _cmd_bundles,
        "pairs": _cmd_pairs,
        "higgs": _cmd_higgs,
        "verify": _cmd_verify,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
