"""Löbell and Fibonacci closed orientable hyperbolic 3-manifolds as
combinatorial objects: polytopes, colorings, face pairings, singular
triangulations, closed-form volumes, and two-sided complexity bounds.

Each public name is imported from its module on first use, so
``import lobfib`` loads no submodule and a caller pays only for the
modules whose names it reads."""

import importlib

# the public names, grouped by the submodule that defines them
_PUBLIC = {
    "bounds": (
        "BoundsReport",
        "bounds_report",
        "fibonacci_tet_count",
        "lobell_tet_count",
        "lower_bound_from_volume",
    ),
    "coloring": (
        "ALPHA",
        "BETA",
        "COLORS",
        "DELTA",
        "GAMMA",
        "FaceColoring",
        "GroupPresentation",
        "Z2Vector3",
        "canonical_coloring",
        "enumerate_colorings",
        "known_lobell6_coloring",
        "presentation_F2",
        "presentation_G",
        "validate_coloring",
    ),
    "gluing": (
        "EdgeCycle",
        "FaceMatch",
        "FacePairing",
        "GluedComplex",
        "ManifoldReport",
        "StructureError",
        "VertexLinkReport",
        "assemble_fibonacci",
        "assemble_lobell",
        "edge_cycles",
        "fibonacci_pairing",
        "verify_closed_manifold",
    ),
    "polytope": (
        "FIBONACCI",
        "LOBELL",
        "CombinatorialPolytope",
        "boundary_orientation",
        "build_fibonacci_polytope",
        "build_lobell_polytope",
        "validate_polytope",
    ),
    "triangulation": (
        "Triangulation",
        "TriangulationFormatError",
        "export_triangulation",
        "import_triangulation",
        "triangulate",
        "triangulate_fibonacci",
        "triangulate_lobell",
        "verify_triangulation",
    ),
    "volume": (
        "VolumeResult",
        "fibonacci_parameters",
        "fibonacci_volume",
        "lobachevsky",
        "lobachevsky_with_error",
        "lobell_volume",
        "theta",
        "v3",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name from its module and keep it here, so the next
    read is a plain attribute lookup."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
