"""Command-line front end for the construction, verification, volume, and
bounds machinery.

Subcommands:

    build-polytope  combinatorial polytope R(n) or Y(n)
    color           canonical (or enumerated) coloring of R(n)
    presentation    group presentation G(n) resp. F(2, 2n)
    triangulate     gluing table of the manifold triangulation
    verify          closed-orientable-manifold check of a triangulation file
    volume          closed-form hyperbolic volume
    bounds          two-sided complexity bounds report

The CLI writes every JSON document: each subcommand returns text or data,
and _emit writes data with json.dumps(..., indent=2) and ends each document
in a newline.  The same flags produce byte-identical output.
Exit status is 0 on success, 1 on a domain error (invalid n, invalid
coloring, malformed file), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bounds import bounds_report
from .coloring import (
    FaceColoring,
    canonical_coloring,
    enumerate_colorings,
    presentation_F2,
    presentation_G,
)
from .polytope import (
    FIBONACCI,
    LOBELL,
    build_fibonacci_polytope,
    build_lobell_polytope,
)
from .triangulation import (
    export_triangulation,
    import_triangulation,
    triangulate_fibonacci,
    triangulate_lobell,
    verify_triangulation,
)
from .volume import fibonacci_volume, lobell_volume

Document = str | dict | list  # text as is, data as JSON


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobfib",
        description="Löbell and Fibonacci closed hyperbolic 3-manifolds: "
        "construction, verification, volumes, complexity bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def family_n(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--family", required=True, choices=[LOBELL, FIBONACCI],
            help="manifold family",
        )
        p.add_argument("--n", required=True, type=int, help="family parameter n")

    def out_format(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        p.add_argument(
            "--format", choices=["json", "text"], default=default_format,
            help=f"output format (default: {default_format})",
        )

    p = sub.add_parser("build-polytope", help="combinatorial polytope of the family")
    family_n(p)
    out_format(p, "json")

    p = sub.add_parser("color", help="valid coloring of the Löbell polytope R(n)")
    family_n(p)
    p.add_argument(
        "--limit", type=int, default=1,
        help="how many colorings to enumerate (default 1: the canonical one)",
    )
    out_format(p, "json")

    p = sub.add_parser("presentation", help="group presentation of the manifold group source")
    family_n(p)
    out_format(p, "json")

    p = sub.add_parser("triangulate", help="tetrahedral gluing table of the closed manifold")
    family_n(p)
    p.add_argument(
        "--color", default="auto", metavar="auto|file:PATH",
        help="coloring for the Löbell family: 'auto' (canonical) or 'file:PATH'",
    )
    out_format(p, "json")

    p = sub.add_parser("verify", help="check a triangulation file for a closed orientable manifold")
    p.add_argument("--file", required=True, metavar="PATH", help="triangulation JSON file")
    out_format(p, "text")

    p = sub.add_parser("volume", help="closed-form hyperbolic volume")
    family_n(p)
    out_format(p, "text")

    p = sub.add_parser("bounds", help="two-sided complexity bounds report")
    family_n(p)
    out_format(p, "text")
    return parser


def _load_coloring(parser: argparse.ArgumentParser, args: argparse.Namespace) -> FaceColoring:
    if args.color == "auto":
        return canonical_coloring(build_lobell_polytope(args.n))
    if args.color.startswith("file:"):
        path = args.color[len("file:"):]
        coloring = FaceColoring.from_json(Path(path).read_text(encoding="utf-8"))
        if coloring.n != args.n:
            raise ValueError(f"coloring is for R({coloring.n}), but --n is {args.n}")
        return coloring
    parser.error(f"--color must be 'auto' or 'file:PATH', got {args.color!r}")
    raise AssertionError("unreachable")


def _run_build_polytope(args) -> Document:
    build = build_lobell_polytope if args.family == LOBELL else build_fibonacci_polytope
    p = build(args.n)
    if args.format == "json":
        return p.to_json_dict()
    lines = [f"family: {p.family}", f"n: {p.n}",
             f"vertices: {len(p.vertices)}", f"faces: {len(p.faces)}"]
    index_to_label = {fi: lab for lab, fi in p.face_labels.items()}
    lines += [f"{index_to_label[fi]}: {' '.join(face)}" for fi, face in enumerate(p.faces)]
    return "\n".join(lines)


def _run_color(parser, args) -> Document:
    if args.family != LOBELL:
        parser.error("colorings apply to the Löbell family only")
    if args.limit < 1:
        parser.error(f"--limit must be at least 1, got {args.limit}")
    colorings = enumerate_colorings(build_lobell_polytope(args.n), limit=args.limit)
    if not colorings:
        raise ValueError(f"no valid coloring of R({args.n}) within the given limit")
    if args.format == "json":
        docs = [c.to_json_dict() for c in colorings]
        return docs[0] if args.limit == 1 else docs
    blocks = []
    for k, c in enumerate(colorings):
        rows = [f"coloring {k}:"] if args.limit != 1 else []
        rows += [f"  face {lab}: {vec.name}" for lab, vec in sorted(c.colors.items())]
        blocks.append("\n".join(rows))
    return "\n".join(blocks)


def _run_presentation(args) -> Document:
    if args.family == LOBELL:
        pres = presentation_G(args.n)
    else:
        if args.n < 4:  # the family starts at Y(4), as in every other subcommand
            raise ValueError("capped antiprism needs n >= 4")
        pres = presentation_F2(2 * args.n)
    return pres.to_json_dict() if args.format == "json" else pres.as_text()


def _run_triangulate(parser, args) -> Document:
    if args.family == LOBELL:
        tri = triangulate_lobell(_load_coloring(parser, args))
    else:
        if args.color != "auto":
            parser.error("--color file:PATH applies to the Löbell family only")
        tri = triangulate_fibonacci(args.n)
    if args.format == "json":
        return export_triangulation(tri)
    return f"family: {args.family}\nn: {args.n}\ntetrahedra: {tri.tet_count}"


def _run_verify(args) -> tuple[Document, int]:
    tri = import_triangulation(Path(args.file).read_text(encoding="utf-8"))
    report = verify_triangulation(tri)
    document = report.to_json_dict() if args.format == "json" else report.summary()
    return document, 0 if report.ok else 1


def _run_volume(args) -> Document:
    result = lobell_volume(args.n) if args.family == LOBELL else fibonacci_volume(args.n)
    if args.format == "json":
        return result.to_json_dict()
    lines = [
        f"family: {args.family}",
        f"n: {args.n}",
        f"volume: {result.value:.9f}",
        f"error bound: {result.error_bound:.9e}",
    ]
    lines += [f"{name}: {value:.9f}" for name, value in result.parameters.items()]
    return "\n".join(lines)


def _run_bounds(args) -> Document:
    report = bounds_report(args.family, args.n)
    return report.to_json_dict() if args.format == "json" else report.as_text()


def _emit(document: Document, out: Optional[str]) -> None:
    if not isinstance(document, str):
        document = json.dumps(document, indent=2)
    if not document.endswith("\n"):
        document += "\n"
    if out:
        Path(out).write_text(document, encoding="utf-8")
    else:
        sys.stdout.write(document)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        if args.subcommand == "build-polytope":
            document = _run_build_polytope(args)
        elif args.subcommand == "color":
            document = _run_color(parser, args)
        elif args.subcommand == "presentation":
            document = _run_presentation(args)
        elif args.subcommand == "triangulate":
            document = _run_triangulate(parser, args)
        elif args.subcommand == "verify":
            document, status = _run_verify(args)
        elif args.subcommand == "volume":
            document = _run_volume(args)
        else:
            document = _run_bounds(args)
        _emit(document, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
