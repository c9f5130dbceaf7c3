"""Differential gate for the integer-id verifier core: verify_triangulation
and verify_closed_manifold must give the same report as the dict-keyed
verifiers kept in oracles.py, on the suite's triangulations and complexes,
on every hand-broken input of test_triangulation.py and test_gluing.py, on
complexes whose copies or matches break orientability, and on random
gluings of one to three tetrahedra.  boundary_orientation, read from the
dart table, must give the signs and errors of the frozenset-keyed one.
The report bytes of 1000 random closed gluings of one to four tetrahedra
and of the 300 random tables of test_triangulation.py are frozen as two
digests.

Two differences are allowed.  The first is the two kinds of problem line
the old code did not write, naming an edge glued to itself in reverse or a
face glued to itself, and only on inputs the old code already rejected.
The second is the problem line of an empty or disconnected quotient, which
the old code accepted: on an input the old code accepted it must appear
exactly when the tetrahedra or copies, joined by their gluings, form no or
several components, and it may change the report's "ok" and nothing else."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from test_triangulation import random_table
from lobfib.coloring import canonical_coloring, known_lobell6_coloring
from lobfib.gluing import (
    FaceMatch,
    FacePairing,
    GluedComplex,
    StructureError,
    assemble_fibonacci,
    assemble_lobell,
    verify_closed_manifold,
)
from lobfib.polytope import (
    CombinatorialPolytope,
    boundary_orientation,
    build_fibonacci_polytope,
    build_lobell_polytope,
)
from lobfib.triangulation import (
    Triangulation,
    triangulate,
    triangulate_fibonacci,
    triangulate_lobell,
    verify_triangulation,
)

NAMED = re.compile(
    r"edge \d\d of tet \d+ is glued to itself in reverse"
    r"|face \d of tet \d+ is glued to itself"
    r"|edge \S+-\S+ of copy \d+ is glued to itself in reverse"
)

# fixed and derandomized, so that the suite stays deterministic
GATE = settings(
    derandomize=True,
    max_examples=600,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


SPLIT = re.compile(r"quotient is empty|quotient is disconnected: \d+ components")


def split_problems(components: int) -> list[str]:
    if components == 0:
        return ["quotient is empty"]
    return [f"quotient is disconnected: {components} components"] if components > 1 else []


def components(count: int, joined) -> int:
    """Components of the cells 0..count-1 under the pairs in joined, each
    pair naming two cells (pairs naming no cell are skipped)."""
    parent = list(range(count))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in joined:
        if 0 <= x < count and 0 <= y < count:
            parent[root(y)] = root(x)
    return sum(root(x) == x for x in range(count))


def assert_same_report(new, old, parts: int) -> None:
    """new and old agree but for the allowed differences; parts counts the
    components of the input, over all of its gluings or matches."""
    new_doc, old_doc = new.to_json_dict(), old.to_json_dict()
    named = [p for p in new_doc["problems"] if NAMED.fullmatch(p)]
    if named:
        assert not old_doc["ok"], f"the old verifier accepted an input with {named}"
        new_doc["problems"] = [p for p in new_doc["problems"] if p not in named]
    split = [p for p in new_doc["problems"] if SPLIT.fullmatch(p)]
    if old_doc["ok"]:
        assert split == split_problems(parts)
    if split:
        new_doc["problems"] = [p for p in new_doc["problems"] if p not in split]
        del new_doc["ok"], old_doc["ok"]
    assert new_doc == old_doc


def assert_same_triangulation_report(tri) -> None:
    joined = [(t, entry[0]) for t, row in enumerate(tri.gluings) for entry in row if entry]
    assert_same_report(
        verify_triangulation(tri), oracles.verify_triangulation(tri),
        components(tri.tet_count, joined),
    )


def assert_same_complex_report(gc) -> None:
    joined = [(m.source[0], m.target[0]) for m in gc.pairing.matches]
    assert_same_report(
        verify_closed_manifold(gc), oracles.verify_closed_manifold(gc),
        components(gc.copies, joined),
    )


def lobell_coloring(n: int):
    return canonical_coloring(build_lobell_polytope(n))


class TestFamilies:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_lobell(self, n):
        tri = triangulate_lobell(lobell_coloring(n))
        assert_same_triangulation_report(tri)
        gc = assemble_lobell(lobell_coloring(n))
        assert_same_complex_report(gc)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_fibonacci(self, n):
        tri = triangulate_fibonacci(n)
        assert_same_triangulation_report(tri)
        gc = assemble_fibonacci(n)
        assert_same_complex_report(gc)


# ---------------------------------------------------------------------------
# the hand-broken inputs of test_triangulation.py and test_gluing.py
# ---------------------------------------------------------------------------

def unglued_face():
    tri = triangulate_fibonacci(4)
    t2, f2, _ = tri.gluings[0][0]
    tri.gluings[0][0] = None
    tri.gluings[t2][f2] = None
    return tri


def missing_mirror():
    tri = triangulate_fibonacci(4)
    t2, f2, _ = tri.gluings[0][0]
    tri.gluings[t2][f2] = None
    return tri


def face_sent_to_wrong_face():
    tri = triangulate_fibonacci(4)
    t2, f2, perm = tri.gluings[0][0]
    wrong = list(perm)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    tri.gluings[0][0] = (t2, f2, tuple(wrong))
    return tri


def dangling_reference():
    tri = triangulate_fibonacci(4)
    _, f2, perm = tri.gluings[0][0]
    tri.gluings[0][0] = (999, f2, perm)
    return tri


def orientation_reversing_regluing():
    tri = triangulate_fibonacci(4)
    t2, f2, perm = tri.gluings[0][0]
    twisted = list(perm)
    twisted[1], twisted[2] = twisted[2], twisted[1]
    inverse = [0, 0, 0, 0]
    for k in range(4):
        inverse[twisted[k]] = k
    tri.gluings[0][0] = (t2, f2, tuple(twisted))
    tri.gluings[t2][f2] = (0, 0, tuple(inverse))
    return tri


def lone_open_tetrahedron():
    return Triangulation([[None, None, None, None]])


def no_tetrahedra():
    return Triangulation([])


def two_disjoint_y4_triangulations():
    """Two copies of the Y(4) triangulation side by side in one table."""
    rows = triangulate_fibonacci(4).gluings
    shift = len(rows)
    return Triangulation(rows + [
        [(t + shift, f, perm) for t, f, perm in row] for row in rows
    ])


@pytest.mark.parametrize(
    "build",
    (
        unglued_face,
        missing_mirror,
        face_sent_to_wrong_face,
        dangling_reference,
        orientation_reversing_regluing,
        lone_open_tetrahedron,
        no_tetrahedra,
        two_disjoint_y4_triangulations,
    ),
)
def test_broken_triangulations(build):
    tri = build()
    assert_same_triangulation_report(tri)


def corrupted_vertex_map():
    gc = assemble_fibonacci(4)
    gc.pairing.matches[0].vertex_map["Q"] = "P1"
    return gc


def missing_pairing():
    return GluedComplex([build_fibonacci_polytope(4)], [1], FacePairing([]))


def no_copies():
    return GluedComplex([], [], FacePairing([]))


def two_disjoint_y4():
    """Two copies of Y(4), each closed up by its own pairing s_1..s_8."""
    p = build_fibonacci_polytope(4)
    return GluedComplex([p, p], [1, 1], FacePairing([
        FaceMatch(f"{m.name}@{ci}", (ci, m.source[1]), (ci, m.target[1]), m.vertex_map)
        for ci in range(2)
        for m in assemble_fibonacci(4).pairing.matches
    ]))


def all_signs_flipped():
    gc = assemble_lobell(known_lobell6_coloring())
    return GluedComplex(gc.polytopes, [-s for s in gc.signs], gc.pairing)


def one_sign_flipped():
    gc = assemble_lobell(known_lobell6_coloring())
    return GluedComplex(gc.polytopes, [-gc.signs[0]] + gc.signs[1:], gc.pairing)


def folded_tetrahedron():
    """One tetrahedron whose faces abc and adb are matched by a <-> b, so
    that edge ab is glued to itself in reverse, and so is edge cd."""
    p = CombinatorialPolytope(
        None, None, ["a", "b", "c", "d"],
        [("a", "b", "c"), ("a", "c", "d"), ("a", "d", "b"), ("b", "d", "c")], {},
    )
    return GluedComplex([p], [1], FacePairing([
        FaceMatch("x", (0, 0), (0, 2), {"a": "b", "b": "a", "c": "d"}),
        FaceMatch("y", (0, 1), (0, 3), {"a": "b", "c": "d", "d": "c"}),
    ]))


def hemicube():
    """K4 drawn as three quadrilaterals: a boundary that is a projective
    plane, so no signs orient it."""
    return CombinatorialPolytope(
        None, None, ["a", "b", "c", "d"],
        [("a", "b", "c", "d"), ("a", "b", "d", "c"), ("a", "c", "b", "d")], {},
    )


def tetrahedron_with_a_fin():
    """A tetrahedron with a fifth face on edge ab, which then lies on three
    faces."""
    return CombinatorialPolytope(
        None, None, ["a", "b", "c", "d", "e"],
        [("a", "b", "c"), ("a", "c", "d"), ("a", "d", "b"), ("b", "d", "c"),
         ("a", "b", "e")], {},
    )


def doubled(p, q, signs):
    """Copies p and q, face i of the one glued to face i of the other by
    the identity."""
    return GluedComplex([p, q], signs, FacePairing([
        FaceMatch(f"d{fi}", (0, fi), (1, fi), {v: v for v in face})
        for fi, face in enumerate(p.faces)
    ]))


def doubled_hemicube():
    return doubled(hemicube(), hemicube(), [1, -1])


def doubled_tetrahedron_with_a_fin():
    p = tetrahedron_with_a_fin()
    return doubled(p, p, [1, -1])


def y5_with_a_reflected_match():
    """s1 composed with the reflection of its target face that fixes P4."""
    gc = assemble_fibonacci(5)
    vmap = gc.pairing.matches[0].vertex_map
    vmap["P2"], vmap["P4"] = vmap["P4"], vmap["P2"]
    return gc


def reversed_y4(signs):
    """Y(4) glued to a copy of itself with every face listed in reverse."""
    p = build_fibonacci_polytope(4)
    q = CombinatorialPolytope(
        p.family, p.n, p.vertices, [face[::-1] for face in p.faces], p.face_labels
    )
    return doubled(p, q, signs)


def reversed_y4_opposite_signs():
    return reversed_y4([1, -1])


def reversed_y4_equal_signs():
    return reversed_y4([1, 1])


@pytest.mark.parametrize(
    "build",
    (
        corrupted_vertex_map,
        missing_pairing,
        all_signs_flipped,
        one_sign_flipped,
        folded_tetrahedron,
        doubled_hemicube,
        doubled_tetrahedron_with_a_fin,
        y5_with_a_reflected_match,
        reversed_y4_opposite_signs,
        reversed_y4_equal_signs,
        no_copies,
        two_disjoint_y4,
    ),
)
def test_broken_complexes(build):
    gc = build()
    assert_same_complex_report(gc)


@pytest.mark.parametrize(
    "build, problem",
    (
        (doubled_hemicube, "copy boundary not orientable: boundary surface is not orientable"),
        (doubled_tetrahedron_with_a_fin,
         "copy boundary not orientable: edge ('a', 'b') not shared by two faces"),
        (y5_with_a_reflected_match, "orientation-incompatible matches: ['s1']"),
        (reversed_y4_opposite_signs,
         f"orientation-incompatible matches: {[f'd{fi}' for fi in range(16)]}"),
    ),
    ids=("hemicube", "fin", "reflected_match", "reversed_y4"),
)
def test_orientation_failures_are_named(build, problem):
    report = verify_closed_manifold(build())
    assert not report.orientable and problem in report.problems


@pytest.mark.parametrize(
    "verify, build, problem",
    (
        (verify_triangulation, no_tetrahedra, "quotient is empty"),
        (verify_triangulation, two_disjoint_y4_triangulations,
         "quotient is disconnected: 2 components"),
        (verify_closed_manifold, no_copies, "quotient is empty"),
        (verify_closed_manifold, two_disjoint_y4, "quotient is disconnected: 2 components"),
    ),
    ids=("no_tetrahedra", "two_y4_triangulations", "no_copies", "two_y4_complexes"),
)
def test_empty_and_disconnected_quotients_are_named(verify, build, problem):
    """Every other check passes on these inputs, so the old verifiers
    called them closed orientable manifolds."""
    report = verify(build())
    assert not report.ok and report.problems == [problem]


def test_reversed_copy_under_equal_signs_is_orientable():
    report = verify_closed_manifold(reversed_y4_equal_signs())
    assert report.orientable and report.ok


class TestBoundaryOrientation:
    """Face signs and errors from the dart table equal those of the
    frozenset-keyed walk in oracles.py."""

    @pytest.mark.parametrize(
        "p",
        [build_lobell_polytope(n) for n in range(5, 13)]
        + [build_fibonacci_polytope(n) for n in range(4, 17)],
        ids=[f"R({n})" for n in range(5, 13)] + [f"Y({n})" for n in range(4, 17)],
    )
    def test_same_signs(self, p):
        assert boundary_orientation(p) == oracles.boundary_orientation(p)

    @pytest.mark.parametrize(
        "build, message",
        (
            (hemicube, "boundary surface is not orientable"),
            (tetrahedron_with_a_fin, "edge ('a', 'b') not shared by two faces"),
        ),
    )
    def test_same_errors(self, build, message):
        p = build()
        with pytest.raises(ValueError) as old:
            oracles.boundary_orientation(p)
        with pytest.raises(ValueError) as new:
            boundary_orientation(p)
        assert str(new.value) == str(old.value) == message


def test_complex_names_edges_glued_to_themselves_in_reverse():
    report = verify_closed_manifold(folded_tetrahedron())
    assert not report.ok
    assert report.problems[-2:] == [
        "edge a-b of copy 0 is glued to itself in reverse",
        "edge c-d of copy 0 is glued to itself in reverse",
    ]


@pytest.mark.parametrize("slot", ((-1, 0), (0, -1)), ids=("copy", "face"))
def test_negative_slot_index_is_reported(slot):
    """A negative copy or face index names no slot, although Python would
    index the last copy or face with it.  The dict-keyed oracle crashes on
    this input, so the problem lines are asserted directly."""
    gc = assemble_fibonacci(4)
    s1, *rest = gc.pairing.matches
    moved = FaceMatch(s1.name, slot, s1.target, s1.vertex_map)
    gc = GluedComplex(gc.polytopes, gc.signs, FacePairing([moved, *rest]))
    report = verify_closed_manifold(gc)
    assert not report.ok
    assert report.problems == [
        f"unmatched faces: {[s1.source]}",
        f"pairing references faces outside the complex: {[slot]}",
        "match s1 references a missing face slot",
    ]
    with pytest.raises(StructureError, match="match s1 references a missing face slot"):
        triangulate(gc)


# ---------------------------------------------------------------------------
# random gluings of one to three tetrahedra
# ---------------------------------------------------------------------------

ON_FACE = [[i for i in range(4) if i != f] for f in range(4)]


def self_gluings(f: int) -> list[list[int]]:
    """The images of face f's vertices under the gluings of f to itself
    that are involutions: the identity and the three reflections."""
    a, b, c = ON_FACE[f]
    return [[a, b, c], [b, a, c], [c, b, a], [a, c, b]]


def glue(gluings, t, f, t2, f2, images) -> None:
    """Glue face f of t to face f2 of t2, the vertices of face f going to
    images in order, and record the inverse gluing."""
    perm = [0, 0, 0, 0]
    perm[f] = f2
    for i, j in zip(ON_FACE[f], images):
        perm[i] = j
    inverse = [0, 0, 0, 0]
    for i in range(4):
        inverse[perm[i]] = i
    gluings[t][f] = (t2, f2, tuple(perm))
    gluings[t2][f2] = (t, f, tuple(inverse))


@st.composite
def small_triangulations(draw):
    """Faces taken in a random order and glued in pairs by random
    bijections; now and then a face is left open or glued to itself (by a
    reflection or the identity), and one gluing may lose its mirror."""
    count = draw(st.integers(1, 3))
    faces = draw(st.permutations([(t, f) for t in range(count) for f in range(4)]))
    gluings = [[None] * 4 for _ in range(count)]
    k = 0
    while k < len(faces):
        t, f = faces[k]
        kind = draw(st.sampled_from(["pair"] * 12 + ["open", "self"]))
        if kind == "open":
            k += 1
        elif kind == "self" or k + 1 == len(faces):
            glue(gluings, t, f, t, f, draw(st.sampled_from(self_gluings(f))))
            k += 1
        else:
            t2, f2 = faces[k + 1]
            glue(gluings, t, f, t2, f2, draw(st.permutations(ON_FACE[f2])))
            k += 2
    if draw(st.integers(0, 9)) == 0:
        t, f = draw(st.sampled_from(faces))
        if gluings[t][f] is not None:
            t2, f2, perm = gluings[t][f]
            i, j = draw(st.sampled_from([(a, b) for a in ON_FACE[f] for b in ON_FACE[f] if a < b]))
            twisted = list(perm)
            twisted[i], twisted[j] = twisted[j], twisted[i]
            gluings[t][f] = (t2, f2, tuple(twisted))
    return Triangulation(gluings)


@GATE
@given(small_triangulations())
def test_random_small_gluings(tri):
    assert_same_triangulation_report(tri)


def random_closed_gluing(rng: random.Random) -> Triangulation:
    """1-4 tetrahedra with every face glued: about 15 % of the faces to
    themselves by an involution, the others in pairs by random bijections."""
    count = rng.randint(1, 4)
    faces = [(t, f) for t in range(count) for f in range(4)]
    rng.shuffle(faces)
    gluings = [[None] * 4 for _ in range(count)]
    while faces:
        t, f = faces.pop()
        if not faces or rng.random() < 0.2:
            glue(gluings, t, f, t, f, rng.choice(self_gluings(f)))
        else:
            t2, f2 = faces.pop()
            glue(gluings, t, f, t2, f2, rng.sample(ON_FACE[f2], 3))
    return Triangulation(gluings)


def report_digest(tables) -> str:
    """sha256 over [report.to_json_dict(), report.summary()] of each table's
    report in turn, one JSON line each."""
    digest = hashlib.sha256()
    for tri in tables:
        report = verify_triangulation(tri)
        digest.update(json.dumps([report.to_json_dict(), report.summary()]).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "tables, digest",
    (
        pytest.param(
            lambda: (random_closed_gluing(random.Random(seed)) for seed in range(1000)),
            "166f77412f56431d8838e4fb60731f2f3f2b77cbb9d4fa80fb26a6b9faaa5155", id="closed-gluings",
        ),
        pytest.param(
            lambda: (random_table(random.Random(seed)) for seed in range(300)),
            "613a5f57be68e1804480c4c5df75f9e7ab45846ec0dd410463c961bc646772ec", id="random-tables",
        ),
    ),
)
def test_report_bytes_are_frozen(tables, digest):
    """Every byte of the reports, problem lines in their order included,
    which assert_same_report leaves free for the last two kinds of line."""
    assert report_digest(tables()) == digest


def test_triangulation_names_self_glued_faces_and_edges():
    """A face glued to itself by a reflection folds one of its edges onto
    itself in reverse; both are named."""
    gluings = [[None] * 4]
    glue(gluings, 0, 0, 0, 0, [2, 1, 3])
    glue(gluings, 0, 1, 0, 2, [0, 1, 3])
    glue(gluings, 0, 3, 0, 3, [0, 1, 2])
    report = verify_triangulation(Triangulation(gluings))
    assert not report.ok
    assert "face 0 of tet 0 is glued to itself" in report.problems
    assert "face 3 of tet 0 is glued to itself" in report.problems
    assert "edge 12 of tet 0 is glued to itself in reverse" in report.problems


def test_triangulation_problem_lines_in_order():
    """The tetrahedron above next to one with no gluings: every kind of
    problem line but a malformed gluing, in the order the verifier writes
    them, which assert_same_report does not fix for the last two."""
    gluings = [[None] * 4, [None] * 4]
    glue(gluings, 0, 0, 0, 0, [2, 1, 3])
    glue(gluings, 0, 1, 0, 2, [0, 1, 3])
    glue(gluings, 0, 3, 0, 3, [0, 1, 2])
    assert verify_triangulation(Triangulation(gluings)).problems == [
        "unglued faces: (1, 0), (1, 1), (1, 2), (1, 3)",
        "face 0 of tet 0 is glued to itself",
        "face 3 of tet 0 is glued to itself",
        "no assignment of tetrahedron orientations makes every gluing compatible",
        "quotient is disconnected: 2 components",
        "edge 12 of tet 0 is glued to itself in reverse",
    ]


def test_complex_problem_lines_in_order():
    """The folded tetrahedron next to a Y(4) with s1 dropped, in the order
    the verifier writes the lines."""
    folded, y4 = folded_tetrahedron(), assemble_fibonacci(4)
    gc = GluedComplex(folded.polytopes + y4.polytopes, [1, 1], FacePairing(
        folded.pairing.matches + [
            FaceMatch(m.name, (1, m.source[1]), (1, m.target[1]), m.vertex_map)
            for m in y4.pairing.matches[1:]
        ]
    ))
    assert verify_closed_manifold(gc).problems == [
        "unmatched faces: [(1, 0), (1, 8)]",
        "orientation-incompatible matches: ['x', 'y']",
        "quotient is disconnected: 2 components",
        "edge a-b of copy 0 is glued to itself in reverse",
        "edge c-d of copy 0 is glued to itself in reverse",
    ]
