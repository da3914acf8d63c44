"""Command-line interface.

Machine-readable JSON goes to stdout (or the -o file when given); a one
line human summary goes to stderr. Exit codes: 0 success, 1 analysis
failure (a failed check or an unmet precondition such as a complex that
is not even), 2 input or output error (unreadable, unparsable or malformed
input, bad generator parameters, an -o file that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any

from . import serialize
from .complexes import (
    Complex,
    degree_profile,
    dual_multigraph,
    euler_characteristic,
    strong_components,
    validate_regularity,
)
from .covers import euler_cover, side_tour, verify_cover
from .errors import CircletError, OutputError, ParseError
from .families import FAMILIES, FamilySpec, generate
from .matroid import decompose_into_circlets

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _say(message: str) -> None:
    sys.stderr.write(message + "\n")


def _fail(exc: CircletError, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stdout.write(serialize.dumps(doc))
    _say(f"error: {type(exc).__name__}: {exc}")
    return code


def _load(path: str) -> Complex:
    return serialize.load_complex(path)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        k = _load(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    report = validate_regularity(k)
    doc = {"check": "regularity-necessary-conditions"}
    doc.update(serialize.report_to_dict(report))
    _emit(serialize.dumps(doc), None)
    verdict = "PASS" if report.passed else f"FAIL ({len(report.violations)} violations)"
    _say(f"regularity (necessary conditions): {verdict}")
    return 0 if report.passed else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        k = _load(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    try:
        profile = degree_profile(k)
    except CircletError as exc:
        return _fail(exc, 1)
    components = (
        len(strong_components(k)) if profile.is_pure else None
    )
    doc: dict[str, Any] = {
        "dimension": k.dim,
        "cell_counts": [len(k.cells_of_dim(r)) for r in range(k.dim + 1)],
        "degree_histogram": {
            str(d): c for d, c in profile.histogram().items()
        },
        "is_pure": profile.is_pure,
        "is_even": profile.is_even,
        "strong_components": components,
        "euler_characteristic": euler_characteristic(k),
    }
    _emit(serialize.dumps(doc), None)
    kind = "even" if profile.is_even else ("pure" if profile.is_pure else "non-pure")
    _say(
        f"{kind} {k.dim}-complex: cells {doc['cell_counts']}, "
        f"chi {doc['euler_characteristic']}, "
        f"components {components if components is not None else 'n/a'}"
    )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    try:
        k = _load(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    try:
        decomposition = decompose_into_circlets(k)
    except CircletError as exc:
        return _fail(exc, 1)
    _emit(
        serialize.dumps(serialize.decomposition_to_dict(decomposition)),
        args.output,
    )
    sizes = [len(p) for p in decomposition.parts]
    _say(f"{len(sizes)} circlet(s), sizes {sizes}")
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    try:
        k = _load(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    try:
        cover = euler_cover(k, strategy=args.strategy, seed=args.seed)
    except ParseError as exc:  # an input id clashes with a generated one
        return _fail(exc, 2)
    except CircletError as exc:
        return _fail(exc, 1)
    _emit(serialize.dumps(serialize.cover_to_dict(cover)), args.output)
    m = cover.source
    _say(
        f"cover source: {len(m.facets)} facets, {len(m.sides)} sides, "
        f"chi {euler_characteristic(m)}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cover = serialize.load_cover(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    report = verify_cover(cover)
    _emit(serialize.dumps(serialize.report_to_dict(report)), None)
    verdict = "PASS" if report.passed else f"FAIL ({len(report.violations)} violations)"
    _say(f"cover verification: {verdict}")
    return 0 if report.passed else 1


def cmd_tour(args: argparse.Namespace) -> int:
    try:
        k = _load(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    try:
        tour = side_tour(k)
    except CircletError as exc:
        return _fail(exc, 1)
    _emit(serialize.dumps(serialize.tour_to_list(tour)), None)
    _say(f"side tour through {len(tour.sides)} sides")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = FamilySpec(family=args.family, params=tuple(args.params))
        k = generate(spec)
    except CircletError as exc:
        return _fail(exc, 2)
    _emit(serialize.dumps(serialize.complex_to_dict(k)), args.output)
    label = ", ".join(str(p) for p in args.params)
    _say(f"{args.family}({label}): dim {k.dim}, {len(k)} cells")
    return 0


def cmd_export_dual(args: argparse.Namespace) -> int:
    try:
        k = _load(args.input)
    except CircletError as exc:
        return _fail(exc, 2)
    try:
        g = dual_multigraph(k)
    except CircletError as exc:
        return _fail(exc, 1)
    _emit(serialize.dual_to_dot(g), args.output)
    _say(f"dual: {len(g.vertices)} vertices, {len(g.edges)} edges")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="circlet",
        description=(
            "analyze even regular CW-complexes, decompose them into "
            "circlets, and build pseudomanifold covers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check necessary regularity conditions")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="counts, degrees, evenness, chi")
    p.add_argument("input")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="partition the facets into circlets")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cover", help="build a pseudomanifold cover")
    p.add_argument("input")
    p.add_argument(
        "--strategy", choices=("canonical", "seeded"), default="canonical"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="check a cover file")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tour", help="cyclic tour through all sides")
    p.add_argument("input")
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("generate", help="emit a generated complex")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export-dual", help="dual multigraph as DOT")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dual)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
