"""Combinatorial structure of the Löbell drums R(n) and the capped
antiprisms Y(n): cell counts, incidences, labels, orientations, JSON."""

import hashlib
import json

import pytest

import oracles
from lobfib.polytope import (
    FIBONACCI,
    LOBELL,
    CombinatorialPolytope,
    boundary_orientation,
    build_fibonacci_polytope,
    build_lobell_polytope,
    dart_table,
    validate_polytope,
)


class TestLobellPolytope:
    """R(n) is a trivalent 3-polytope: two rings of n pentagons between two
    n-gonal bases, with 4n vertices and 6n edges."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_cell_counts(self, n):
        p = build_lobell_polytope(n)
        assert len(p.vertices) == 4 * n, f"R({n}) must have 4n vertices"
        assert len(p.edges()) == 6 * n, f"R({n}) must have 6n edges"
        assert len(p.faces) == 2 * n + 2, f"R({n}) must have 2n+2 faces"

    @pytest.mark.parametrize("n", range(5, 13))
    def test_face_sizes(self, n):
        p = build_lobell_polytope(n)
        sizes = sorted(len(f) for f in p.faces)
        assert sizes == sorted([5] * (2 * n) + [n, n]), (
            f"R({n}) must consist of 2n pentagons and two {n}-gons, got {sizes}"
        )

    @pytest.mark.parametrize("n", (5, 6, 9))
    def test_trivalent(self, n):
        p = build_lobell_polytope(n)
        degrees = {p.vertex_degree(v) for v in p.vertices}
        assert degrees == {3}, f"every vertex of R({n}) must be trivalent, got {degrees}"

    @pytest.mark.parametrize("n", range(5, 13))
    def test_validates(self, n):
        report = validate_polytope(build_lobell_polytope(n))
        assert report.ok, f"R({n}) fails structural checks: {report.failed()}"

    def test_labels_cover_range(self):
        p = build_lobell_polytope(7)
        assert sorted(int(lab) for lab in p.face_labels) == list(range(1, 17)), (
            "faces of R(7) must be labeled 1..2n+2"
        )

    def test_ring_adjacency(self):
        """Upper pentagon i touches its ring neighbours, the lower pentagons
        shifted by one, and the upper basis; the pentagon labeled n+1 closes
        the lower ring against labels 1 and n."""
        n = 6
        p = build_lobell_polytope(n)
        label_of = {fi: int(lab) for lab, fi in p.face_labels.items()}
        neighbors = {lab: set() for lab in label_of.values()}
        for pair in p.adjacent_face_pairs():
            x, y = tuple(pair)
            neighbors[label_of[x]].add(label_of[y])
            neighbors[label_of[y]].add(label_of[x])
        assert neighbors[2] == {1, 3, n + 2, n + 3, 2 * n + 1}, (
            f"upper pentagon 2 of R(6) has wrong neighbours: {sorted(neighbors[2])}"
        )
        assert neighbors[n + 1] == {1, n, n + 2, 2 * n, 2 * n + 2}, (
            f"lower pentagon n+1 of R(6) has wrong neighbours: {sorted(neighbors[n + 1])}"
        )
        assert neighbors[2 * n + 1] == set(range(1, n + 1)), (
            "the upper basis must touch exactly the upper pentagon ring"
        )
        assert neighbors[2 * n + 2] == set(range(n + 1, 2 * n + 1)), (
            "the lower basis must touch exactly the lower pentagon ring"
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_lobell_polytope(4)

    def test_deterministic(self):
        assert build_lobell_polytope(8) == build_lobell_polytope(8), (
            "construction must be reproducible"
        )


class TestFibonacciPolytope:
    """Y(n) is the 2n-gonal antiprism capped by two apexes Q and R: all 4n
    faces are triangles, apexes have degree n, the P-ring degree 5."""

    @pytest.mark.parametrize("n", range(4, 12))
    def test_cell_counts(self, n):
        p = build_fibonacci_polytope(n)
        assert len(p.vertices) == 2 * n + 2, f"Y({n}) must have 2n+2 vertices"
        assert len(p.edges()) == 6 * n, f"Y({n}) must have 6n edges"
        assert len(p.faces) == 4 * n, f"Y({n}) must have 4n faces"

    @pytest.mark.parametrize("n", range(4, 12))
    def test_all_triangles(self, n):
        p = build_fibonacci_polytope(n)
        assert all(len(f) == 3 for f in p.faces), "every face of Y(n) must be a triangle"

    @pytest.mark.parametrize("n", (4, 5, 8))
    def test_degrees(self, n):
        p = build_fibonacci_polytope(n)
        assert p.vertex_degree("Q") == n, "apex Q must have degree n"
        assert p.vertex_degree("R") == n, "apex R must have degree n"
        ring = {p.vertex_degree(f"P{k}") for k in range(1, 2 * n + 1)}
        assert ring == {5}, f"ring vertices of Y({n}) must have degree 5, got {ring}"

    @pytest.mark.parametrize("n", range(4, 12))
    def test_validates(self, n):
        report = validate_polytope(build_fibonacci_polytope(n))
        assert report.ok, f"Y({n}) fails structural checks: {report.failed()}"

    def test_face_labels(self):
        p = build_fibonacci_polytope(5)
        expected = {f"F{i}" for i in range(1, 11)} | {f"F{i}*" for i in range(1, 11)}
        assert set(p.face_labels) == expected, "faces must be labeled F1..F2n, F1*..F2n*"

    def test_star_faces_avoid_apexes(self):
        p = build_fibonacci_polytope(6)
        for lab, fi in p.face_labels.items():
            touches_apex = "Q" in p.faces[fi] or "R" in p.faces[fi]
            assert touches_apex != lab.endswith("*"), (
                f"face {lab} must touch an apex exactly when it is not starred"
            )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_fibonacci_polytope(3)


class TestEdgesAndOrientation:
    """Every edge lies in exactly two faces, and the boundary 2-sphere is
    orientable: faces can be signed so that each edge is traversed once in
    each direction."""

    @pytest.mark.parametrize(
        "build,n", [(build_lobell_polytope, 6), (build_lobell_polytope, 9),
                    (build_fibonacci_polytope, 4), (build_fibonacci_polytope, 7)],
    )
    def test_edges_in_two_faces(self, build, n):
        p = build(n)
        _, ends, sides, _ = dart_table(p)
        faces_on = [0] * (len(ends) // 2)  # per edge d >> 1, with multiplicity
        for darts in sides:
            for d in darts:
                faces_on[d >> 1] += 1
        for k, count in enumerate(faces_on):
            assert count == 2, f"edge {sorted(ends[2 * k])} lies in {count} faces"

    @pytest.mark.parametrize(
        "build,n", [(build_lobell_polytope, 5), (build_lobell_polytope, 8),
                    (build_fibonacci_polytope, 4), (build_fibonacci_polytope, 9)],
    )
    def test_coherent_orientation(self, build, n):
        p = build(n)
        signs = boundary_orientation(p)
        assert set(signs) <= {1, -1} and signs[0] == 1
        directed: set[tuple[str, str]] = set()
        for fi, face in enumerate(p.faces):
            cyc = list(face) if signs[fi] == 1 else list(reversed(face))
            for k in range(len(cyc)):
                arc = (cyc[k], cyc[(k + 1) % len(cyc)])
                assert arc not in directed, f"edge {arc} traversed twice the same way"
                directed.add(arc)
        assert all((v, u) in directed for (u, v) in directed), (
            "each edge must be traversed once in each direction"
        )


class TestDartTable:
    """Darts are numbered in order of first appearance on the face cycles,
    dart d reversing to d ^ 1, each face lists its darts in cycle order, and
    each dart lists the faces whose cycles run along it."""

    @pytest.mark.parametrize(
        "p",
        [build_lobell_polytope(6), build_fibonacci_polytope(5),
         CombinatorialPolytope(None, None, ["a", "b", "c"], [("a", "b", "c", "b")], {})],
        ids=["R(6)", "Y(5)", "folded a-b-c-b"],
    )
    def test_numbering(self, p):
        ids, ends, sides, runs = dart_table(p)
        assert len(ends) == 2 * len(p.edges())
        for d, (v, w) in enumerate(ends):
            assert ids[v, w] == d and ends[d ^ 1] == (w, v)
        for face, darts in zip(p.faces, sides):
            cycle = [(v, face[(k + 1) % len(face)]) for k, v in enumerate(face)]
            assert [ends[d] for d in darts] == cycle
        edges_seen = dict.fromkeys(d >> 1 for darts in sides for d in darts)
        assert list(edges_seen) == list(range(len(ends) // 2))
        # the faces along d in face order, once per occurrence of d in sides
        assert runs == [
            [fi for fi, darts in enumerate(sides) for x in darts if x == d]
            for d in range(len(ends))
        ]
        if p.family is None:  # the folded face lies on each of its edges twice
            assert [runs[d] + runs[d ^ 1] for d in (0, 2)] == [[0, 0], [0, 0]]

    def test_face_folded_along_its_edges_is_orientable(self):
        """The face a-b-c-b runs along edges ab and bc once each way, so it
        closes up into a sphere on its own.  (The frozenset-keyed walk this
        replaced called any face meeting itself along an edge non-orientable.)"""
        p = CombinatorialPolytope(None, None, ["a", "b", "c"], [("a", "b", "c", "b")], {})
        assert boundary_orientation(p) == [1]


def polytope(*faces: str, family=None) -> CombinatorialPolytope:
    """A bare polytope of the given family whose faces are the given vertex
    strings."""
    return CombinatorialPolytope(family, None, sorted(set("".join(faces))), list(faces), {})


TETRAHEDRON = ("abc", "acd", "adb", "bdc")
SQUARE_PYRAMID = ("abcd", "eba", "ecb", "edc", "ead")
# a 3 x 3 grid of squares with opposite sides identified: V - E + F = 0
GRID = ("ABC", "DEF", "GHI")
TORUS = tuple(
    GRID[i][j] + GRID[(i + 1) % 3][j] + GRID[(i + 1) % 3][(j + 1) % 3] + GRID[i][(j + 1) % 3]
    for i in range(3)
    for j in range(3)
)


class TestValidateBroken:
    """Each hand-built failure fails its own check, with the oracle's row."""

    @pytest.mark.parametrize(
        "p, row",
        (
            (polytope(*TETRAHEDRON, "abe"),
             ("edge_two_faces", False,
              "edges with face count != 2: {('a', 'b'): 3, ('b', 'e'): 1, ('a', 'e'): 1}")),
            (polytope(*SQUARE_PYRAMID, family=LOBELL),
             ("trivalent", False, "non-trivalent: {'e': 4}")),
            (polytope(*SQUARE_PYRAMID, family=FIBONACCI),
             ("faces_triangles", False, "non-triangles: [0]")),
            (polytope("abcd", "abdc", "acbd"), ("euler", False, "V-E+F = 4-6+3 = 1")),
            (polytope(*TETRAHEDRON, *TORUS), ("face_graph_connected", False, "")),
            (polytope("abcb"), ("faces_simple", False, "degenerate faces: [0]")),
        ),
        ids=("edge_in_three_faces", "non_trivalent", "non_triangle", "projective_plane",
             "sphere_and_torus", "folded_face"),
    )
    def test_failed_check(self, p, row):
        report = validate_polytope(p)
        assert row in report.checks
        assert report.checks == oracles.validate_polytope(p).checks
        assert p.adjacent_face_pairs() == oracles.adjacent_face_pairs(p)

    def test_face_naming_a_missing_vertex_is_refused_at_construction(self):
        """Every edge query and both verifiers index vertices by their
        position in the vertex list, and would fail on z with a KeyError."""
        with pytest.raises(ValueError, match=r"face 1 \('c', 'b', 'z'\) names vertex 'z'"):
            CombinatorialPolytope(None, None, ["a", "b", "c"], [("a", "b", "c"), ("c", "b", "z")], {})


class TestSerialization:
    """The JSON document carries exactly family, n, faces, faceLabels."""

    def test_json_fields(self):
        doc = build_lobell_polytope(6).to_json_dict()
        assert set(doc) == {"family", "n", "faces", "faceLabels"}
        assert doc["family"] == LOBELL and doc["n"] == 6
        assert len(doc["faces"]) == 14 and len(doc["faceLabels"]) == 14

    def test_json_deterministic(self):
        a = json.dumps(build_fibonacci_polytope(5).to_json_dict(), indent=2)
        b = json.dumps(build_fibonacci_polytope(5).to_json_dict(), indent=2)
        assert a == b, "same build must serialize to identical bytes"
        json.loads(a)  # must be well-formed


def polytope_digest(polytopes) -> str:
    """sha256 over repr((vertices, faces, face label items)) of each polytope
    in turn, one line each, so label order counts as well as content."""
    digest = hashlib.sha256()
    for p in polytopes:
        digest.update(repr((p.vertices, p.faces, list(p.face_labels.items()))).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "polytopes, digest",
    (
        pytest.param(
            lambda: (build_lobell_polytope(n) for n in range(5, 31)),
            "15afdb5d8737981ad26a8d881b15cbe96d4dbe1d810ec50610c6e701f99b7bec", id="lobell5-30",
        ),
        pytest.param(
            lambda: [build_lobell_polytope(100)],
            "e8521f780faec7eec89826b081188cd7d1261ae5dd924df72390bde4f61ba3c7", id="lobell100",
        ),
        pytest.param(
            lambda: (build_fibonacci_polytope(n) for n in range(4, 41)),
            "8fb80821672bdc02db314406395ec98d091367dfae3d4d76c5c7668f5bebdd59", id="fibonacci4-40",
        ),
        pytest.param(
            lambda: [build_fibonacci_polytope(2000)],
            "4dd55a2853623151eb5f3d66755cdb019918c266661779c13128a72c9599bb8f", id="fibonacci2000",
        ),
    ),
)
def test_construction_is_frozen(polytopes, digest):
    """Vertex names and order, face cycles and the label dict in insertion
    order: everything the verifiers, the triangulator and the JSON read."""
    assert polytope_digest(polytopes()) == digest
