"""Differential gate for the dart-table edge structure: edge_cycles,
validate_polytope and adjacent_face_pairs, reading every edge from
polytope.dart_table, must give the results and errors of the
frozenset-keyed copies kept in oracles.py, on the suite's complexes and
polytopes, on every damaged complex of test_gluing.py and
test_verifier_core.py, and on random small complexes.

The one difference allowed is the loop edge of a face through a single
vertex, which the frozenset walk could not unpack."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import test_verifier_core as damaged
from lobfib.coloring import canonical_coloring, enumerate_colorings
from lobfib.gluing import (
    FaceMatch,
    FacePairing,
    GluedComplex,
    assemble_fibonacci,
    assemble_lobell,
    edge_cycles,
)
from lobfib.polytope import (
    CombinatorialPolytope,
    build_fibonacci_polytope,
    build_lobell_polytope,
    validate_polytope,
)

GATE = settings(
    derandomize=True,
    max_examples=400,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


R6_COLORINGS = enumerate_colorings(build_lobell_polytope(6), limit=20)


def outcome(walk, gc):
    """The (edges, maps) of every cycle, or the error the walk raised."""
    try:
        return [(c.edges, c.maps) for c in walk(gc)]
    except (ValueError, LookupError) as exc:  # StructureError is a ValueError
        return type(exc), str(exc)


def assert_same_cycles(gc) -> None:
    assert outcome(edge_cycles, gc) == outcome(oracles.edge_cycles, gc)


class TestEdgeCycles:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_lobell(self, n):
        assert_same_cycles(assemble_lobell(canonical_coloring(build_lobell_polytope(n))))

    @pytest.mark.parametrize("k", range(20))
    def test_colorings_of_r6(self, k):
        assert_same_cycles(assemble_lobell(R6_COLORINGS[k]))

    @pytest.mark.parametrize("n", range(4, 17))
    def test_fibonacci(self, n):
        assert_same_cycles(assemble_fibonacci(n))

    @pytest.mark.parametrize(
        "build",
        (
            damaged.corrupted_vertex_map,
            damaged.missing_pairing,
            damaged.all_signs_flipped,
            damaged.one_sign_flipped,
            damaged.folded_tetrahedron,
            damaged.doubled_hemicube,
            damaged.doubled_tetrahedron_with_a_fin,
            damaged.y5_with_a_reflected_match,
            damaged.reversed_y4_opposite_signs,
            damaged.reversed_y4_equal_signs,
            damaged.no_copies,
            damaged.two_disjoint_y4,
        ),
    )
    def test_damaged_complexes(self, build):
        assert_same_cycles(build())

    def test_vertex_without_an_image(self):
        gc = assemble_fibonacci(4)
        del gc.pairing.matches[0].vertex_map["Q"]
        assert_same_cycles(gc)
        assert outcome(edge_cycles, gc)[1] == (
            "match s1 has no image for vertex 'Q' of face slot (0, 0)"
        )

    def test_loop_edge_closes_on_itself(self):
        """Two monogons on one vertex make a sphere whose one edge is a loop;
        the dart walk closes it after one match, the frozenset walk raised
        an unpacking error."""
        p = CombinatorialPolytope(None, None, ["a"], [("a",), ("a",)], {})
        gc = GluedComplex([p], [1], FacePairing([FaceMatch("m", (0, 0), (0, 1), {"a": "a"})]))
        assert outcome(edge_cycles, gc) == [([(0, ("a", "a"))], [("m", 1)])]
        assert outcome(oracles.edge_cycles, gc)[0] is ValueError


# ---------------------------------------------------------------------------
# random small complexes
# ---------------------------------------------------------------------------

SHAPES = (
    # tetrahedron, square pyramid, triangular prism
    [("a", "b", "c"), ("a", "c", "d"), ("a", "d", "b"), ("b", "d", "c")],
    [("a", "b", "c", "d"), ("e", "b", "a"), ("e", "c", "b"), ("e", "d", "c"), ("e", "a", "d")],
    [("a", "b", "c"), ("d", "f", "e"), ("a", "d", "e", "b"), ("b", "e", "f", "c"),
     ("c", "f", "d", "a")],
)


@st.composite
def small_complexes(draw):
    """One or two copies of a small polytope, faces matched in random pairs
    by random vertex maps: mostly bijections of equal-sized faces, now and
    then a map that repeats or drops a vertex, and a face left unmatched."""
    copies = [
        CombinatorialPolytope(None, None, sorted({v for f in faces for v in f}), faces, {})
        for faces in (draw(st.sampled_from(SHAPES)) for _ in range(draw(st.integers(1, 2))))
    ]
    slots = draw(st.permutations(
        [(ci, fi) for ci, p in enumerate(copies) for fi in range(len(p.faces))]
    ))
    matches = []
    for k in range(0, len(slots) - 1, 2):
        if draw(st.integers(0, 11)) == 0:
            continue
        (ci, fi), (cj, fj) = slots[k], slots[k + 1]
        src, tgt = copies[ci].faces[fi], copies[cj].faces[fj]
        if len(src) == len(tgt) and draw(st.integers(0, 5)):
            image = draw(st.permutations(tgt))
        else:
            image = [draw(st.sampled_from(tgt)) for _ in src]
        vmap = dict(zip(src, image))
        if draw(st.integers(0, 9)) == 0:
            del vmap[src[0]]
        matches.append(FaceMatch(f"m{k // 2}", (ci, fi), (cj, fj), vmap))
    return GluedComplex(copies, [1] * len(copies), FacePairing(matches))


@GATE
@given(small_complexes())
def test_random_small_complexes(gc):
    assert_same_cycles(gc)


# ---------------------------------------------------------------------------
# validate_polytope and adjacent_face_pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p",
    [build_lobell_polytope(n) for n in range(5, 13)]
    + [build_fibonacci_polytope(n) for n in range(4, 17)],
    ids=[f"R({n})" for n in range(5, 13)] + [f"Y({n})" for n in range(4, 17)],
)
def test_families(p):
    assert validate_polytope(p).checks == oracles.validate_polytope(p).checks
    assert p.adjacent_face_pairs() == oracles.adjacent_face_pairs(p)
