"""The package namespace: every public name, read from `lobfib` on first
use, is the object its module defines, and unknown names fail the way a
module attribute lookup does."""

import importlib

import pytest

import lobfib

# the public names and their modules, as they stood when `lobfib` still
# imported every module eagerly
PUBLIC = {
    "bounds": {
        "BoundsReport", "bounds_report", "fibonacci_tet_count", "lobell_tet_count",
        "lower_bound_from_volume",
    },
    "coloring": {
        "ALPHA", "BETA", "COLORS", "DELTA", "GAMMA", "FaceColoring", "GroupPresentation",
        "Z2Vector3", "canonical_coloring", "enumerate_colorings", "known_lobell6_coloring",
        "presentation_F2", "presentation_G", "validate_coloring",
    },
    "gluing": {
        "EdgeCycle", "FaceMatch", "FacePairing", "GluedComplex", "ManifoldReport",
        "StructureError", "VertexLinkReport", "assemble_fibonacci", "assemble_lobell",
        "edge_cycles", "fibonacci_pairing", "verify_closed_manifold",
    },
    "polytope": {
        "FIBONACCI", "LOBELL", "CombinatorialPolytope", "boundary_orientation",
        "build_fibonacci_polytope", "build_lobell_polytope", "validate_polytope",
    },
    "triangulation": {
        "Triangulation", "TriangulationFormatError", "export_triangulation",
        "import_triangulation", "triangulate", "triangulate_fibonacci", "triangulate_lobell",
        "verify_triangulation",
    },
    "volume": {
        "VolumeResult", "fibonacci_parameters", "fibonacci_volume", "lobachevsky",
        "lobachevsky_with_error", "lobell_volume", "theta", "v3",
    },
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_names_the_frozen_public_names():
    assert len(lobfib.__all__) == len(set(lobfib.__all__)) == len(HOME) == 54
    assert set(lobfib.__all__) == set(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_module_object(name, monkeypatch):
    """Each name resolves through the lazy lookup (its cached value is
    dropped first) to the very object its module defines."""
    monkeypatch.delitem(vars(lobfib), name, raising=False)
    value = getattr(lobfib, name)
    assert value is getattr(importlib.import_module(f"lobfib.{HOME[name]}"), name)
    assert vars(lobfib)[name] is value


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from lobfib import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lobfib.__all__)


def test_dir_lists_every_name():
    assert set(lobfib.__all__) <= set(dir(lobfib))
    assert "__version__" in dir(lobfib)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as error:
        getattr(lobfib, "no_such_name")
    assert str(error.value) == "module 'lobfib' has no attribute 'no_such_name'"
    assert not hasattr(lobfib, "no_such_name")


def test_version_is_a_plain_attribute():
    assert vars(lobfib)["__version__"] == "0.1.0"
