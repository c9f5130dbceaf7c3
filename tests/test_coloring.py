"""Colorings of R(n) over (Z/2)^3: the color alphabet, validation,
enumeration counts against an independent brute force, the hand-checked
R(6) fixture, and the finitely presented groups G(n) and F(2, m)."""

import itertools
import json

import pytest

from lobfib.coloring import (
    ALPHA,
    BETA,
    COLORS,
    DELTA,
    GAMMA,
    GROUP8,
    FaceColoring,
    Z2Vector3,
    canonical_coloring,
    enumerate_colorings,
    group_index,
    known_lobell6_coloring,
    presentation_F2,
    presentation_G,
    validate_coloring,
    z2_rank,
)
from lobfib.polytope import (
    CombinatorialPolytope,
    build_fibonacci_polytope,
    build_lobell_polytope,
)

from oracles import coloring_count_oracle
from oracles import enumerate_colorings as leaf_checked_colorings


class TestColorAlphabet:
    """alpha, beta, gamma, delta are four nonzero vectors of (Z/2)^3, any
    three of which are linearly independent (the fourth is their sum)."""

    def test_distinct_nonzero(self):
        assert len(set(COLORS)) == 4
        assert all(any(c.bits) for c in COLORS)

    def test_any_three_independent(self):
        for triple in itertools.combinations(COLORS, 3):
            assert z2_rank(triple) == 3, f"{[c.name for c in triple]} must be independent"

    def test_sum_of_three_is_fourth(self):
        for triple in itertools.combinations(COLORS, 3):
            total = triple[0] + triple[1] + triple[2]
            (fourth,) = set(COLORS) - set(triple)
            assert total == fourth, "three colors must sum to the remaining one"

    def test_group_index_enumerates_group(self):
        assert sorted(group_index(g) for g in GROUP8) == list(range(8))
        assert group_index(Z2Vector3((0, 0, 0))) == 0
        assert group_index(DELTA) == 7

    def test_names_round_trip(self):
        for c in COLORS:
            assert Z2Vector3.from_name(c.name) == c
        with pytest.raises(ValueError):
            Z2Vector3.from_name("epsilon")


class TestFixture:
    """The hand-checked coloring of R(6) (both bases alpha, pentagon rings
    cycling beta/gamma/delta with a shift) is valid and is found by the
    unrestricted enumeration."""

    def test_fixture_is_valid(self):
        p = build_lobell_polytope(6)
        report = validate_coloring(p, known_lobell6_coloring())
        assert report.ok, f"fixture coloring must validate: {report!r}"

    def test_fixture_appears_in_enumeration(self):
        p = build_lobell_polytope(6)
        fixture = known_lobell6_coloring()
        found = enumerate_colorings(p)
        assert any(c.colors == fixture.colors for c in found), (
            "the fixture must appear among all valid colorings of R(6)"
        )


class TestValidation:
    """validate_coloring separates the three failure modes."""

    def test_improper_coloring_rejected(self):
        p = build_lobell_polytope(6)
        c = known_lobell6_coloring()
        c.colors[2] = c.colors[1]  # ring neighbours share an edge
        report = validate_coloring(p, c)
        failed = [name for name, passed, _ in report.checks if not passed]
        assert "proper" in failed, f"adjacent equal colors must fail properness: {report!r}"

    def test_missing_face_rejected(self):
        p = build_lobell_polytope(6)
        c = known_lobell6_coloring()
        del c.colors[14]
        report = validate_coloring(p, c)
        assert not report.ok and report.checks[0][0] == "total"

    def test_extra_label_rejected(self):
        p = build_lobell_polytope(6)
        c = known_lobell6_coloring()
        c.colors[99] = ALPHA
        report = validate_coloring(p, c)
        assert not report.ok and report.checks[0][0] == "total"
        assert report.checks[0][2].endswith("missing [], extra [99]")

    def test_non_surjective_rejected(self):
        """A two-color assignment on a bipartite-ish subdivision cannot span
        rank 3; surjectivity must be reported as the failure."""
        p = build_lobell_polytope(6)
        colors = {lab: (ALPHA if lab % 2 else BETA) for lab in range(1, 15)}
        report = validate_coloring(p, FaceColoring(6, colors))
        failed = [name for name, passed, _ in report.checks if not passed]
        assert "surjective" in failed


class TestEnumeration:
    """Backtracking enumeration is exhaustive (matches an independent brute
    force), deterministic, and closed under the 24 color permutations."""

    @pytest.mark.parametrize("n,expected", [(5, 240), (6, 480), (7, 1008), (8, 1152)])
    def test_counts_frozen(self, n, expected):
        found = enumerate_colorings(build_lobell_polytope(n))
        assert len(found) == expected, (
            f"R({n}) must admit exactly {expected} valid colorings, got {len(found)}"
        )

    @pytest.mark.parametrize("n", (5, 6))
    def test_counts_match_bruteforce(self, n):
        p = build_lobell_polytope(n)
        assert len(enumerate_colorings(p)) == coloring_count_oracle(p), (
            "library enumeration and independent brute force must agree"
        )

    def test_square_pyramid_count_matches_bruteforce(self):
        """The square pyramid's apex lies on four faces, whose colors are
        never independent, so neither side may count a coloring of it."""
        p = _square_pyramid()
        assert coloring_count_oracle(p) == len(enumerate_colorings(p)) == 0

    def test_limit_semantics(self):
        p = build_lobell_polytope(6)
        assert enumerate_colorings(p, limit=0) == []
        first = enumerate_colorings(p, limit=1)
        assert len(first) == 1
        assert first[0].colors == canonical_coloring(p).colors

    def test_prefix_stability(self):
        p = build_lobell_polytope(5)
        all_colorings = enumerate_colorings(p)
        first_ten = enumerate_colorings(p, limit=10)
        assert [c.colors for c in first_ten] == [c.colors for c in all_colorings[:10]], (
            "limited enumeration must be a prefix of the full one"
        )

    def test_color_permutation_invariance(self):
        """Relabeling the four colors by any bijection preserves validity,
        so the solution count is divisible by 24."""
        p = build_lobell_polytope(6)
        base = canonical_coloring(p)
        for perm in itertools.permutations(COLORS):
            relabel = dict(zip(COLORS, perm))
            moved = FaceColoring(6, {lab: relabel[c] for lab, c in base.colors.items()})
            assert validate_coloring(p, moved).ok, (
                f"permuted coloring must stay valid under {[c.name for c in perm]}"
            )
        assert len(enumerate_colorings(p)) % 24 == 0

    @pytest.mark.parametrize("n", range(5, 13))
    def test_exists_for_all_n(self, n):
        p = build_lobell_polytope(n)
        found = enumerate_colorings(p, limit=1)
        assert found and validate_coloring(p, found[0]).ok, (
            f"R({n}) must admit at least one valid coloring"
        )

    def test_canonical_is_deterministic(self):
        p = build_lobell_polytope(7)
        assert canonical_coloring(p).colors == canonical_coloring(p).colors


def _listing(colorings):
    """Everything a result list says, dict order included."""
    return [(c.n, list(c.colors.items())) for c in colorings]


def _labelled(vertices, faces, n=None):
    """A polytope with integer face labels 1..len(faces) in index order."""
    return CombinatorialPolytope(
        None, n, vertices, faces, {str(fi + 1): fi for fi in range(len(faces))}
    )


def _cube(extra_vertices=()):
    vertices = [f"v{k}" for k in range(8)] + list(extra_vertices)
    faces = [
        ("v0", "v1", "v2", "v3"), ("v4", "v7", "v6", "v5"), ("v0", "v4", "v5", "v1"),
        ("v1", "v5", "v6", "v2"), ("v2", "v6", "v7", "v3"), ("v3", "v7", "v4", "v0"),
    ]
    return _labelled(vertices, faces)


def _triangular_prism(bottom=("a0", "a1", "a2")):
    faces = [
        bottom, ("b0", "b2", "b1"),
        ("a0", "b0", "b1", "a1"), ("a1", "b1", "b2", "a2"), ("a2", "b2", "b0", "a0"),
    ]
    return _labelled(["a0", "a1", "a2", "b0", "b1", "b2"], faces)


def _square_pyramid():
    faces = [("p0", "p3", "p2", "p1")] + [("q", f"p{k}", f"p{(k + 1) % 4}") for k in range(4)]
    return _labelled(["q", "p0", "p1", "p2", "p3"], faces)


def _dihedron(n):
    cycle = tuple(f"v{k}" for k in range(n))
    return _labelled(list(cycle), [cycle, cycle[::-1]], n)


def _relabelled_y4():
    y = build_fibonacci_polytope(4)
    return _labelled(y.vertices, y.faces, 4)


class TestAgainstLeafCheckedSearch:
    """The forward-checked search returns exactly what plain backtracking
    with validate_coloring at every leaf returns (tests/oracles.py keeps that
    search verbatim): the same colorings, in the same order, with the same
    dict order."""

    @pytest.mark.parametrize("n", range(5, 10))
    def test_full_enumeration(self, n):
        p = build_lobell_polytope(n)
        found = enumerate_colorings(p)
        assert _listing(found) == _listing(leaf_checked_colorings(p))
        assert all(validate_coloring(p, c).ok for c in found)

    @pytest.mark.parametrize("n", (5, 6))
    @pytest.mark.parametrize("limit", (0, 1, 7, 100))
    def test_limits(self, n, limit):
        p = build_lobell_polytope(n)
        found = enumerate_colorings(p, limit=limit)
        assert _listing(found) == _listing(leaf_checked_colorings(p, limit=limit))
        assert len(found) == limit

    def test_canonical_coloring(self):
        for n in [*range(5, 301), 1000, 2000]:
            p = build_lobell_polytope(n)
            assert _listing([canonical_coloring(p)]) == _listing(
                leaf_checked_colorings(p, limit=1)
            ), f"canonical coloring of R({n}) moved"

    @pytest.mark.parametrize(
        "build,count",
        [
            (_cube, 96),
            (lambda: _cube(extra_vertices=("lonely",)), 96),
            (_triangular_prism, 24),
            # a1 is counted twice on the first face, so no coloring is valid
            (lambda: _triangular_prism(bottom=("a0", "a1", "a2", "a1")), 0),
            (_square_pyramid, 0),
            (lambda: _dihedron(5), 0),
        ],
        ids=["cube", "cube_with_a_vertex_on_no_face", "triangular_prism",
             "face_through_a_vertex_twice", "square_pyramid", "dihedron"],
    )
    def test_hand_built_polytopes(self, build, count):
        p = build()
        found = enumerate_colorings(p)
        assert _listing(found) == _listing(leaf_checked_colorings(p))
        assert len(found) == count
        assert all(validate_coloring(p, c).ok for c in found)

    def test_dihedron_fails_only_surjectivity(self):
        p = _dihedron(5)
        report = validate_coloring(p, FaceColoring(5, {1: ALPHA, 2: BETA}))
        assert [name for name, passed, _ in report.checks if not passed] == ["surjective"]

    def test_degree_five_vertices_prune_every_proper_coloring(self):
        """Y(4)'s rim vertices lie on five faces, so no coloring is valid,
        though 4 206 936 proper ones exist.  The leaf-checked search would
        visit all of them, so here the proper, surjective witness below is
        shown to fail on vertex independence alone."""
        p = _relabelled_y4()
        assert enumerate_colorings(p) == []
        witness = "aabbaabbbagbgagd"
        color = dict(zip("abgd", COLORS))
        report = validate_coloring(
            p, FaceColoring(4, {fi + 1: color[x] for fi, x in enumerate(witness)})
        )
        assert [name for name, passed, _ in report.checks if not passed] == [
            "vertex_independent"
        ]


class TestColoringSerialization:
    """Coloring documents carry n and a label -> color-name map."""

    def test_round_trip(self):
        c = known_lobell6_coloring()
        back = FaceColoring.from_json(json.dumps(c.to_json_dict(), indent=2))
        assert back.n == c.n and back.colors == c.colors

    def test_json_fields(self):
        doc = known_lobell6_coloring().to_json_dict()
        assert set(doc) == {"n", "colors"}
        assert doc["colors"]["13"] == "alpha"

    def test_rejects_unknown_color(self):
        doc = known_lobell6_coloring().to_json_dict()
        doc["colors"]["1"] = "chartreuse"
        with pytest.raises(ValueError):
            FaceColoring.from_json(json.dumps(doc))

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            FaceColoring.from_json("{}")


class TestPresentations:
    """G(n) has one involution per face and one commutator per edge, the
    commutator pairs being exactly the face adjacencies of R(n); F(2, m) is
    the cyclic presentation x_i x_(i+1) = x_(i+2)."""

    @pytest.mark.parametrize("n", (5, 6, 8))
    def test_G_relator_counts(self, n):
        pres = presentation_G(n)
        assert len(pres.generators) == 2 * n + 2
        involutions = [w for w in pres.relators if len(w) == 2]
        commutators = [w for w in pres.relators if len(w) == 4]
        assert len(involutions) == 2 * n + 2, "one involution per face"
        assert len(commutators) == 6 * n, "one commutator per edge"

    @pytest.mark.parametrize("n", (5, 6, 7, 9))
    def test_G_commutators_are_face_adjacencies(self, n):
        p = build_lobell_polytope(n)
        label_of = {fi: int(lab) for lab, fi in p.face_labels.items()}
        adjacency = {
            frozenset((label_of[x], label_of[y]))
            for pair in p.adjacent_face_pairs()
            for x, y in [tuple(pair)]
        }
        commutator_pairs = {
            frozenset((int(w[0][0][1:]), int(w[1][0][1:])))
            for w in presentation_G(n).relators
            if len(w) == 4
        }
        assert commutator_pairs == adjacency, (
            f"commutator pairs of G({n}) must equal the face adjacencies of R({n})"
        )

    def test_G_text_rendering(self):
        text = presentation_G(5).as_text()
        assert text.startswith("< g1, g2,")
        assert "g1^2" in text and "[g11,g1]" in text

    @pytest.mark.parametrize("m", (3, 8, 10))
    def test_F2_shape(self, m):
        pres = presentation_F2(m)
        assert len(pres.generators) == m and len(pres.relators) == m
        for i, w in enumerate(pres.relators, start=1):
            names = [g for g, _ in w]
            exps = [e for _, e in w]
            wrap = lambda k: (k - 1) % m + 1
            assert names == [f"x{wrap(i)}", f"x{wrap(i + 1)}", f"x{wrap(i + 2)}"]
            assert exps == [1, 1, -1]

    def test_F2_text_rendering(self):
        assert "x1 x2 x3^-1" in presentation_F2(8).as_text()

    def test_presentation_json(self):
        doc = presentation_F2(4).to_json_dict()
        assert set(doc) == {"generators", "relators"}
        assert doc["relators"][0] == [["x1", 1], ["x2", 1], ["x3", -1]]

    def test_G_rejects_small_n(self):
        with pytest.raises(ValueError):
            presentation_G(4)
