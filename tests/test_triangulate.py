"""The one triangulator: triangulate(gc, apex) fans the faces of any glued
complex and cones each copy from a point.

A differential gate requires the gluing tables and tetrahedron vertices of
the two bespoke triangulators kept in oracles.py; further cases are
complexes neither of them could handle, and malformed matches."""

import pytest

import oracles
from lobfib.coloring import canonical_coloring, enumerate_colorings
from lobfib.gluing import (
    FaceMatch,
    FacePairing,
    GluedComplex,
    StructureError,
    assemble_fibonacci,
)
from lobfib.polytope import CombinatorialPolytope, build_lobell_polytope
from lobfib.triangulation import (
    export_triangulation,
    triangulate,
    triangulate_fibonacci,
    triangulate_lobell,
    verify_triangulation,
)


def first_difference(xs: list, ys: list) -> int:
    return next((k for k, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys)))


def assert_same_triangulation(new, old) -> None:
    """Names the first tetrahedron that differs: a diff of the whole export
    text would take pytest minutes to print."""
    same_text = export_triangulation(new) == export_triangulation(old)
    assert same_text, f"gluings differ at tet {first_difference(new.gluings, old.gluings)}"
    new_vertices = [lab["vertices"] for lab in new.labels]
    old_vertices = [lab["vertices"] for lab in old.labels]
    same_vertices = new_vertices == old_vertices
    assert same_vertices, f"vertices differ at tet {first_difference(new_vertices, old_vertices)}"


def expected_tets(gc: GluedComplex, cone=None) -> int:
    """Sum of len(face) - 2 over the faces avoiding the cone vertex."""
    return sum(len(face) - 2 for p in gc.polytopes for face in p.faces if cone not in face)


def double(n: int, drop: int = 0) -> GluedComplex:
    """Two copies of R(n), every face matched to itself by the identity;
    the second copy lists its vertices in reverse, so its least-index
    vertices differ from the first copy's.  The first `drop` matches are
    left out."""
    p = build_lobell_polytope(n)
    q = CombinatorialPolytope(p.family, p.n, p.vertices[::-1], p.faces, p.face_labels)
    matches = [
        FaceMatch(f"d{fi}", (0, fi), (1, fi), {v: v for v in face})
        for fi, face in enumerate(p.faces)
    ]
    return GluedComplex([p, q], [1, -1], FacePairing(matches[drop:]))


class TestDifferentialGate:
    """Identical export text and tetrahedron vertices from old and new."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_lobell_canonical(self, n):
        c = canonical_coloring(build_lobell_polytope(n))
        assert_same_triangulation(triangulate_lobell(c), oracles.triangulate_lobell(c))

    @pytest.mark.parametrize("k", range(20))
    def test_lobell6_colorings(self, k):
        c = enumerate_colorings(build_lobell_polytope(6), limit=20)[k]
        assert_same_triangulation(triangulate_lobell(c), oracles.triangulate_lobell(c))

    @pytest.mark.parametrize("n", range(4, 17))
    def test_fibonacci(self, n):
        assert_same_triangulation(triangulate_fibonacci(n), oracles.triangulate_fibonacci(n))


class TestAnyComplex:
    """Complexes and cone points neither bespoke triangulator could take."""

    @pytest.mark.parametrize("n", (4, 5, 9))
    def test_fibonacci_coned_from_r(self, n):
        gc = assemble_fibonacci(n)
        tri = triangulate(gc, apex="R")
        assert tri.tet_count == expected_tets(gc, "R") == 3 * n
        assert verify_triangulation(tri).ok

    @pytest.mark.parametrize("n", (4, 5, 9))
    def test_fibonacci_coned_from_a_fresh_apex(self, n):
        gc = assemble_fibonacci(n)
        tri = triangulate(gc)
        report = verify_triangulation(tri)
        assert tri.tet_count == expected_tets(gc) == 4 * n
        assert report.ok and report.quotient_vertices == 2, report.summary()

    def test_fibonacci_4_coned_from_a_rim_vertex(self):
        """P1 lies on five faces, and on both faces of the match s6."""
        gc = assemble_fibonacci(4)
        tri = triangulate(gc, apex="P1")
        assert tri.tet_count == expected_tets(gc, "P1") == 11
        assert verify_triangulation(tri).ok

    @pytest.mark.parametrize("n, tets", ((5, 72), (7, 104)))
    def test_double(self, n, tets):
        gc = double(n)
        tri = triangulate(gc)
        assert tri.tet_count == expected_tets(gc) == tets
        assert verify_triangulation(tri).ok
        first = [lab for lab in tri.labels if lab["copy"] == 0]
        second = [lab for lab in tri.labels if lab["copy"] == 1]
        assert [lab["vertices"][1:] for lab in first] != [lab["vertices"][1:] for lab in second], (
            "the second copy writes the carried fan from its own least-index vertices"
        )

    def test_double_with_a_match_removed(self):
        gc = double(5, drop=1)
        tri = triangulate(gc)
        report = verify_triangulation(tri)
        unglued = [(t, f) for t, row in enumerate(tri.gluings) for f in range(4) if row[f] is None]
        assert tri.tet_count == 72
        assert unglued == [(t, 0) for t, lab in enumerate(tri.labels) if lab["face"] == 0]
        assert not report.ok and report.problems[0].startswith("unglued faces: (0, 0)")


class TestMalformedMatch:
    """A match that cannot carry a fan raises StructureError naming it."""

    def test_vertex_map_off_the_target_face(self):
        gc = assemble_fibonacci(5)
        m = gc.pairing.matches[2]
        m.vertex_map = {v: "R" if w == m.vertex_map["Q"] else w for v, w in m.vertex_map.items()}
        with pytest.raises(StructureError, match=f"match {m.name} "):
            triangulate(gc, apex="Q")

    def test_vertex_map_scrambling_a_pentagon(self):
        gc = double(5)
        m = gc.pairing.matches[0]
        face = list(m.vertex_map)
        m.vertex_map = dict(zip(face, [face[0], face[2], face[1], face[3], face[4]]))
        with pytest.raises(StructureError, match=f"match {m.name} "):
            triangulate(gc)

    def test_fan_through_the_apex_carried_away_from_it(self):
        """Both faces of a match run through the cone vertex, but the map
        moves it: the cone fan does not land on the partner's cone fan."""
        p = build_lobell_polytope(5)
        face = p.faces[0]
        rot = FaceMatch("rot", (0, 0), (1, 0), dict(zip(face, face[1:] + face[:1])))
        gc = GluedComplex([p, p], [1, -1], FacePairing([rot]))
        with pytest.raises(StructureError, match="match rot does not carry the fan"):
            triangulate(gc, apex=face[0])
