"""Face pairings and glued complexes: the 8-copy Löbell assembly, the
single-copy Fibonacci assembly, edge-cycle structure, and the closed
orientable manifold verification, including deliberately broken inputs."""

import hashlib

import pytest

from lobfib.coloring import (
    GROUP8,
    canonical_coloring,
    enumerate_colorings,
    group_index,
    known_lobell6_coloring,
)
from lobfib.gluing import (
    FaceMatch,
    FacePairing,
    GluedComplex,
    StructureError,
    assemble_fibonacci,
    assemble_lobell,
    edge_cycles,
    fibonacci_pairing,
    verify_closed_manifold,
)
from lobfib.polytope import build_fibonacci_polytope, build_lobell_polytope


def wrap(k: int, m: int) -> int:
    return (k - 1) % m + 1


class TestLobellAssembly:
    """Eight copies of R(n) indexed by (Z/2)^3, face F of copy g matched to
    face F of copy g + color(F) by the identity; the quotient has 4n
    vertices, 12n edges, 8n+8 faces, 8 cells, and Euler characteristic 0."""

    def test_eight_copies_with_parity_signs(self):
        gc = assemble_lobell(known_lobell6_coloring())
        assert gc.copies == 8
        assert gc.signs == [(-1) ** sum(g.bits) for g in GROUP8]

    def test_every_face_matched_once(self):
        gc = assemble_lobell(known_lobell6_coloring())
        slots = gc.all_slots()
        assert len(gc.pairing.matches) == len(slots) // 2 == 56
        for slot in slots:
            assert gc.pairing.opposite(gc.pairing.opposite(slot)) == slot, (
                f"pairing must be an involution, fails at {slot}"
            )

    def test_matches_follow_the_coloring(self):
        c = known_lobell6_coloring()
        gc = assemble_lobell(c)
        p = gc.polytopes[0]
        label_of = {fi: int(lab) for lab, fi in p.face_labels.items()}
        for m in gc.pairing.matches:
            (gi, fi), (hi, fj) = m.source, m.target
            assert fi == fj, "a face must be matched with the same face elsewhere"
            color = c.colors[label_of[fi]]
            assert group_index(GROUP8[gi] + color) == hi, (
                f"face {label_of[fi]} of copy {gi} must glue to copy g+{color.name}"
            )
            assert m.vertex_map == {v: v for v in p.faces[fi]}, (
                "Löbell matches use the identity vertex map"
            )

    @pytest.mark.parametrize("n", (5, 6, 8))
    def test_quotient_cell_counts(self, n):
        coloring = canonical_coloring(build_lobell_polytope(n))
        report = verify_closed_manifold(assemble_lobell(coloring))
        assert report.cells == 8
        assert report.quotient_vertices == 4 * n, "vertex orbits must have size 8"
        assert report.quotient_edges == 12 * n, "edge orbits must have size 4"
        assert report.quotient_faces == 8 * n + 8, "face orbits must have size 2"
        assert report.euler_characteristic == 0

    @pytest.mark.parametrize("n", (5, 6, 7))
    def test_closed_orientable_with_sphere_links(self, n):
        coloring = canonical_coloring(build_lobell_polytope(n))
        report = verify_closed_manifold(assemble_lobell(coloring))
        assert report.ok, f"R({n}) assembly must verify: {report.problems}"
        assert report.closed and report.orientable and report.links_all_spheres
        assert len(report.vertex_links) == 4 * n
        for link in report.vertex_links:
            assert link.disks == 8, "each vertex orbit must collect all 8 copies"
            assert link.euler == 2 and link.is_sphere

    def test_rejects_invalid_coloring(self):
        c = known_lobell6_coloring()
        c.colors[2] = c.colors[1]
        with pytest.raises(ValueError, match="not valid"):
            assemble_lobell(c)


class TestLobellEdgeCycles:
    """Every edge class closes up after exactly four transports (the four
    right angles around an edge), staying over the same polytope edge."""

    @pytest.mark.parametrize("n", (5, 6, 8))
    def test_all_cycles_have_length_four(self, n):
        coloring = canonical_coloring(build_lobell_polytope(n))
        cycles = edge_cycles(assemble_lobell(coloring))
        assert len(cycles) == 12 * n, (
            f"8 copies x {6 * n} edges / length 4 must give {12 * n} classes"
        )
        assert {c.length for c in cycles} == {4}
        for cyc in cycles:
            pairs = {tuple(sorted(e)) for _, e in cyc.edges}
            assert len(pairs) == 1, "a Löbell cycle stays over one polytope edge"
            assert len({copy for copy, _ in cyc.edges}) == 4, (
                "the four legs must lie in four distinct copies"
            )

    def test_traversal_is_deterministic(self):
        gc = assemble_lobell(known_lobell6_coloring())
        first, second = edge_cycles(gc), edge_cycles(gc)
        assert [c.edges for c in first] == [c.edges for c in second]
        assert [c.maps for c in first] == [c.maps for c in second]
        assert first[0].edges[0] == (0, ("a1", "a2")), (
            "traversal must start at the least (copy, edge)"
        )


class TestFibonacciAssembly:
    """The pairing s_i : F_i -> F_i* closes one copy of Y(n) into a manifold
    with a single vertex, 2n edges, and 2n faces."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_quotient_cell_counts(self, n):
        report = verify_closed_manifold(assemble_fibonacci(n))
        assert report.cells == 1
        assert report.quotient_vertices == 1, "all vertices must be identified"
        assert report.quotient_edges == 2 * n
        assert report.quotient_faces == 2 * n
        assert report.euler_characteristic == 0

    @pytest.mark.parametrize("n", range(4, 9))
    def test_closed_orientable_with_sphere_link(self, n):
        report = verify_closed_manifold(assemble_fibonacci(n))
        assert report.ok, f"Y({n}) assembly must verify: {report.problems}"
        (link,) = report.vertex_links
        assert link.disks == 2 * n + 2, "the single link collects every corner"
        assert link.is_sphere

    @pytest.mark.parametrize("n", (4, 5, 7))
    def test_cycles_length_three_with_the_expected_pattern(self, n):
        """The edge class of {apex, P(i+1)} consists of {apex, P(i+1)},
        {P(i+2), P(i+3)}, {P(i), P(i+2)} and is traversed by s_i once against
        s_(i-1), s_(i-2) used the other way around."""
        m = 2 * n
        cycles = edge_cycles(assemble_fibonacci(n))
        assert len(cycles) == m and {c.length for c in cycles} == {3}
        by_edge = {}
        for cyc in cycles:
            for _, (u, v) in cyc.edges:
                by_edge[frozenset((u, v))] = cyc

        def P(k: int) -> str:
            return f"P{wrap(k, m)}"

        for i in range(1, m + 1):
            apex = "Q" if i % 2 == 1 else "R"
            expected_edges = {
                frozenset((apex, P(i + 1))),
                frozenset((P(i + 2), P(i + 3))),
                frozenset((P(i), P(i + 2))),
            }
            cyc = by_edge[frozenset((apex, P(i + 1)))]
            assert {frozenset(e) for _, e in cyc.edges} == expected_edges, (
                f"edge class of s{i} has wrong support"
            )
            signs = dict(cyc.maps)
            assert set(signs) == {f"s{i}", f"s{wrap(i - 1, m)}", f"s{wrap(i - 2, m)}"}, (
                f"edge class of s{i} must be traversed by s{i}, s{i - 1}, s{i - 2}"
            )
            assert signs[f"s{wrap(i - 1, m)}"] == signs[f"s{wrap(i - 2, m)}"] == -signs[f"s{i}"], (
                f"s{i - 1} and s{i - 2} must run against s{i} around the class"
            )

    def test_first_cycle_starts_at_least_edge(self):
        cycles = edge_cycles(assemble_fibonacci(4))
        assert cycles[0].edges[0] == (0, ("Q", "P2"))


class TestBrokenStructures:
    """Verification reports (or traversal raises on) deliberate damage."""

    def test_corrupted_vertex_map_breaks_edge_cycles(self):
        gc = assemble_fibonacci(4)
        gc.pairing.matches[0].vertex_map["Q"] = "P1"  # P1 is not on F1*
        with pytest.raises(StructureError):
            edge_cycles(gc)

    def test_corrupted_vertex_map_reported_by_verify(self):
        gc = assemble_fibonacci(4)
        gc.pairing.matches[0].vertex_map["Q"] = "P1"
        report = verify_closed_manifold(gc)
        assert not report.ok
        assert any("bijection" in p or "cyclic" in p for p in report.problems)

    def test_missing_pairing_reported_as_unmatched(self):
        p = build_fibonacci_polytope(4)
        report = verify_closed_manifold(GluedComplex([p], [1], FacePairing([])))
        assert not report.closed and not report.ok
        assert any("unmatched" in problem for problem in report.problems)
        assert not any(link.closed for link in report.vertex_links)

    def test_wrong_copy_sign_breaks_orientability(self):
        gc = assemble_lobell(known_lobell6_coloring())
        flipped = GluedComplex(gc.polytopes, [-s for s in gc.signs], gc.pairing)
        report = verify_closed_manifold(flipped)
        assert report.ok, "flipping every sign preserves compatibility"
        bad = GluedComplex(gc.polytopes, [-gc.signs[0]] + gc.signs[1:], gc.pairing)
        report = verify_closed_manifold(bad)
        assert not report.orientable and not report.ok
        assert any("orientation" in p for p in report.problems)

    def test_slot_matched_twice_rejected(self):
        p = build_fibonacci_polytope(4)
        face = p.faces[0]
        m = FaceMatch("m", (0, 0), (0, 8), {v: w for v, w in zip(face, p.faces[8])})
        with pytest.raises(StructureError, match="matched more than once"):
            FacePairing([m, m])

    def test_unmatched_face_on_cycle_raises(self):
        p = build_fibonacci_polytope(4)
        with pytest.raises(StructureError, match="unmatched"):
            edge_cycles(GluedComplex([p], [1], FacePairing([])))

    @pytest.mark.parametrize(
        "target", ((1, 8), (-1, 8), (0, 99), (0, -1)),
        ids=("copy-1", "copy-minus-1", "face-99", "face-minus-1"),
    )
    def test_match_to_a_missing_slot_raises(self, target):
        """A copy or face index outside Y(4), negative ones included (Python
        would read them from the end), names no slot for edge_cycles to
        walk into."""
        gc = assemble_fibonacci(4)
        s1, *rest = gc.pairing.matches
        moved = FaceMatch(s1.name, s1.source, target, s1.vertex_map)
        gc = GluedComplex(gc.polytopes, gc.signs, FacePairing([moved, *rest]))
        with pytest.raises(StructureError, match="^match s1 references a missing face slot$"):
            edge_cycles(gc)

    @pytest.mark.parametrize("signs", ([], [1, 1], [0], [2]))
    def test_signs_other_than_one_unit_per_copy_rejected(self, signs):
        gc = assemble_fibonacci(4)
        with pytest.raises(StructureError, match="not one \\+-1 per copy"):
            GluedComplex(gc.polytopes, signs, gc.pairing)


class TestFibonacciPairingMaps:
    """Each s_i is the map of the paper, written out here, in the insertion
    order of its vertex map (which orders the vertex unions of
    verify_closed_manifold)."""

    @pytest.mark.parametrize("n", range(4, 13))
    def test_s_i_as_in_the_paper(self, n):
        m = 2 * n
        p = build_fibonacci_polytope(n)
        matches = fibonacci_pairing(p).matches

        def P(k: int) -> str:
            return f"P{wrap(k, m)}"

        assert [match.name for match in matches] == [f"s{i}" for i in range(1, m + 1)]
        for i, match in enumerate(matches, 1):
            apex = "Q" if i % 2 == 1 else "R"
            # s_i : (Q or R, P(i+1), P(i+3)) -> (P(i+2), P(i+3), P(i+4))
            expected = [(apex, P(i + 2)), (P(i + 1), P(i + 3)), (P(i + 3), P(i + 4))]
            assert list(match.vertex_map.items()) == expected, f"s{i} of Y({n})"
            assert match.source == (0, p.face_labels[f"F{i}"])
            assert match.target == (0, p.face_labels[f"F{i}*"])


def assembly_digest(complexes) -> str:
    """sha256 over repr((signs, [(name, source, target, vertex map items)]))
    of each complex in turn, one line each."""
    digest = hashlib.sha256()
    for gc in complexes:
        matches = [
            (m.name, m.source, m.target, list(m.vertex_map.items())) for m in gc.pairing.matches
        ]
        digest.update(repr((gc.signs, matches)).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "complexes, digest",
    (
        pytest.param(
            lambda: (
                assemble_lobell(c)
                for n in (5, 6)
                for c in enumerate_colorings(build_lobell_polytope(n))
            ),
            "6b21930fb0693e300cece8a838d39d52ca71f5d26077b20cb7647ea5cc7d7537",
            id="lobell5-6-every-coloring",
        ),
        pytest.param(
            lambda: (
                assemble_lobell(canonical_coloring(build_lobell_polytope(n)))
                for n in range(7, 13)
            ),
            "e653a71e7c0b28c817bd93510df9c9564a0a409a4d6bbca803aeb0100dcf64b6",
            id="lobell7-12-canonical",
        ),
        pytest.param(
            lambda: (assemble_fibonacci(n) for n in range(4, 41)),
            "629101fcd7dee9006b1a5cce556a31a72ebde14f16bb7196450f9086009d2759",
            id="fibonacci4-40",
        ),
    ),
)
def test_assembly_is_frozen(complexes, digest):
    """Copy signs, and every match's name, slots and vertex map in insertion
    order."""
    assert assembly_digest(complexes()) == digest
