"""Command-line interface.

Machine-readable JSON goes to stdout (or the -o file when given); a one
line human summary goes to stderr. Each subcommand is a loader, which
reads its input, and a handler, which returns the text, the summary and
the exit code and catches nothing; :func:`main` alone maps errors to exit
codes. Exit codes: 0 success, 1 analysis failure (a failed check or an
unmet precondition such as a complex that is not even), 2 input or output
error (unreadable, unparsable or malformed input, bad generator
parameters, an input id that clashes with a generated one, an -o file
that cannot be written). On an error, stdout carries
``{"error": <class>, "message": ...}``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path
from typing import Any

from . import serialize
from .complexes import (
    Complex,
    ValidationReport,
    degree_profile,
    dual_multigraph,
    euler_characteristic,
    strong_components,
    validate_regularity,
)
from .covers import CoverMap, euler_cover, side_tour, verify_cover
from .errors import CircletError, OutputError, ParseError
from .families import FAMILIES, generate
from .matroid import decompose_into_circlets

__all__ = ["main"]

Result = tuple[str, str, int]  # stdout text, stderr summary, exit code


def _emit(text: str, out: str | None) -> None:
    # an id with a lone surrogate fails to encode, before any file is opened
    try:
        if out:
            Path(out).write_bytes(text.encode())
        else:
            sys.stdout.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        raise OutputError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _say(message: str) -> None:
    sys.stderr.write(message + "\n")


def _fail(exc: CircletError, code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stdout.write(serialize.dumps(doc))
    _say(f"error: {type(exc).__name__}: {exc}")
    return code


# ---- loaders: every error they raise is the input's fault -------------


def _read_complex(args: argparse.Namespace) -> Complex:
    return serialize.load_complex(args.input)


def _read_cover(args: argparse.Namespace) -> CoverMap:
    return serialize.load_cover(args.input)


def _generate(args: argparse.Namespace) -> Complex:
    return generate(args.family, args.params)


# ---- handlers ----------------------------------------------------------


def _checked(doc: dict[str, Any], report: ValidationReport, what: str) -> Result:
    doc.update(serialize.report_to_dict(report))
    verdict = "PASS" if report.passed else f"FAIL ({len(report.violations)} violations)"
    return serialize.dumps(doc), f"{what}: {verdict}", 0 if report.passed else 1


def cmd_validate(k: Complex, args: argparse.Namespace) -> Result:
    return _checked(
        {"check": "regularity-necessary-conditions"},
        validate_regularity(k),
        "regularity (necessary conditions)",
    )


def cmd_analyze(k: Complex, args: argparse.Namespace) -> Result:
    profile = degree_profile(k)
    components = len(strong_components(k)) if profile.is_pure else None
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
    kind = "even" if profile.is_even else ("pure" if profile.is_pure else "non-pure")
    summary = (
        f"{kind} {k.dim}-complex: cells {doc['cell_counts']}, "
        f"chi {doc['euler_characteristic']}, "
        f"components {components if components is not None else 'n/a'}"
    )
    return serialize.dumps(doc), summary, 0


def cmd_decompose(k: Complex, args: argparse.Namespace) -> Result:
    decomposition = decompose_into_circlets(k)
    sizes = [len(p) for p in decomposition.parts]
    text = serialize.dumps(serialize.decomposition_to_dict(decomposition))
    return text, f"{len(sizes)} circlet(s), sizes {sizes}", 0


def cmd_cover(k: Complex, args: argparse.Namespace) -> Result:
    cover = euler_cover(k, seed=args.seed)
    m = cover.source
    summary = (
        f"cover source: {len(m.facets)} facets, {len(m.sides)} sides, "
        f"chi {euler_characteristic(m)}"
    )
    return serialize.cover_json(cover), summary, 0


def cmd_verify(cover: CoverMap, args: argparse.Namespace) -> Result:
    return _checked({}, verify_cover(cover), "cover verification")


def cmd_tour(k: Complex, args: argparse.Namespace) -> Result:
    tour = side_tour(k)
    text = serialize.dumps(serialize.tour_to_list(tour))
    return text, f"side tour through {len(tour.sides)} sides", 0


def cmd_generate(k: Complex, args: argparse.Namespace) -> Result:
    label = ", ".join(str(p) for p in args.params)
    summary = f"{args.family}({label}): dim {k.dim}, {len(k)} cells"
    return serialize.complex_json(k), summary, 0


def cmd_export_dual(k: Complex, args: argparse.Namespace) -> Result:
    g = dual_multigraph(k)
    summary = f"dual: {len(g.vertices)} vertices, {len(g.edges)} edges"
    return serialize.dual_to_dot(g), summary, 0


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
    commands: dict[str, argparse.ArgumentParser] = {}
    for name, help, load, run in (
        (
            "validate", "check necessary regularity conditions",
            _read_complex, cmd_validate,
        ),
        ("analyze", "counts, degrees, evenness, chi", _read_complex, cmd_analyze),
        (
            "decompose", "partition the facets into circlets",
            _read_complex, cmd_decompose,
        ),
        ("cover", "build a pseudomanifold cover", _read_complex, cmd_cover),
        ("verify", "check a cover file", _read_cover, cmd_verify),
        ("tour", "cyclic tour through all sides", _read_complex, cmd_tour),
        ("generate", "emit a generated complex", _generate, cmd_generate),
        ("export-dual", "dual multigraph as DOT", _read_complex, cmd_export_dual),
    ):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(load=load, run=run)
        if load is not _generate:  # every other loader reads a file
            p.add_argument("input")
    commands["cover"].add_argument("--seed", type=int)
    commands["generate"].add_argument("family", choices=sorted(FAMILIES))
    commands["generate"].add_argument("params", nargs="*", type=int)
    for name in ("decompose", "cover", "generate", "export-dual"):
        commands[name].add_argument("-o", "--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place errors become exit codes."""
    enabled = gc.isenabled()
    gc.disable()  # for the run alone: the caller's setting is restored
    try:
        args = build_parser().parse_args(argv)
        try:
            value = args.load(args)
        except CircletError as exc:
            return _fail(exc, 2)
        try:
            text, summary, code = args.run(value, args)
            _emit(text, getattr(args, "output", None))
        except (ParseError, OutputError) as exc:  # ParseError: an id clash
            return _fail(exc, 2)
        except CircletError as exc:
            return _fail(exc, 1)
        _say(summary)
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
