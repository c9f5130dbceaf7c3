"""Face pairings, glued complexes, edge cycles, and manifold verification.

A GluedComplex is a finite list of polytope copies plus a face pairing: a
fixed-point-free involution on the boundary faces of the copies, each match
carrying a vertex bijection between the two faces.  The quotient space is a
closed connected 3-manifold exactly when the matches join the copies into
one component, every face is matched, the Euler characteristic of the
quotient cell structure vanishes, and the link of every quotient vertex is a
2-sphere; it is orientable when the copies can be oriented so that every
match reverses the induced boundary orientation.
verify_closed_manifold checks all of that and reports per-item results,
naming every edge glued to itself in reverse.  Both verifiers count their
components with polytope._signed_components and end in the one report
builder _manifold_report, which runs flat-list union-finds over integer
vertex and dart (directed edge) ids and builds the ManifoldReport.  Dart d
reverses to d ^ 1: here each copy numbers its vertices and darts from
offsets into the dart table of its polytope, built once per polytope
object, and verify_triangulation numbers tetrahedron t's darts 12t + k.  A
dart is also the corner of its tail's link disk, so one union-find gives
the link vertices and the quotient edges, an edge being the pair {class of
d, class of d ^ 1}.  A link's disks are one vertex class, so it is
connected by construction.  Orientability comes from the same tables: a
match's turn is +1 if it carries its source face's cycle along its target
face's and -1 if against it, and with s the face's sign in its copy's
boundary orientation times the copy's sign, the match is
orientation-incompatible iff turn * s(source) == s(target).

Two assemblies are provided.

assemble_lobell takes a valid coloring of R(n) and glues 8 copies of R(n)
indexed by the elements of (Z/2)^3: the face F of copy g is matched with the
same face of copy g + color(F) by the identity on vertices.  Copies are
addressed by coloring.group_index, under which + is ^ on the indices.  Every
edge of R(n) then closes up in a cycle of length 4 (the four right angles
around the edge make a full turn), and copy g gets orientation sign
(-1)^(g1+g2+g3), the parity of its index.

assemble_fibonacci glues the 4n triangles of a single copy of Y(n) in pairs

    s_i : F_i -> F_i*,  (Q or R, P(i+1), P(i+3)) |-> (P(i+2), P(i+3), P(i+4)),

each map sending the vertices of F_i, in the order the polytope stores
them, onto those of F_i*.  It identifies the edges in cycles of length 3,
for example

    Q P(i+1) --s_i--> P(i+2) P(i+3) --s_(i-1)^-1--> P_i P(i+2)
             --s_(i-2)^-1--> Q P(i+1)          (i odd; R for even i).

edge_cycles walks the same dart tables: each edge of a copy is its even dart
d (edge d >> 1), the faces on it are those running along d or d ^ 1, and a
match carries the dart (u, v) to the dart of its image pair.  The traversal
is deterministic: it starts each class at its least (copy, sorted vertex
indices) and leaves the starting edge through its smaller-indexed face.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

from .coloring import FaceColoring, _label_by_index, group_index, validate_coloring
from .polytope import (
    CombinatorialPolytope,
    _face_signs,
    _faces_along,
    _root,
    _signed_components,
    build_fibonacci_polytope,
    build_lobell_polytope,
    dart_table,
)


class StructureError(ValueError):
    """A gluing structure is internally inconsistent (a vertex bijection does
    not carry edges to edges, or an edge cycle fails to close)."""


# ---------------------------------------------------------------------------
# pairings and complexes
# ---------------------------------------------------------------------------

Slot = tuple[int, int]  # (copy index, face index)


@dataclass
class FaceMatch:
    """One identification between two boundary faces."""

    name: str
    source: Slot
    target: Slot
    vertex_map: dict[str, str]

    def inverse_map(self) -> dict[str, str]:
        return {w: v for v, w in self.vertex_map.items()}


@dataclass
class FacePairing:
    """A set of face matches, at most one per face slot."""

    matches: list[FaceMatch]
    _by_slot: dict[Slot, tuple[FaceMatch, bool]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._by_slot = {}
        for m in self.matches:
            for slot, forward in ((m.source, True), (m.target, False)):
                if slot in self._by_slot:
                    raise StructureError(f"face slot {slot} matched more than once")
                self._by_slot[slot] = (m, forward)

    def has(self, slot: Slot) -> bool:
        return slot in self._by_slot

    def opposite(self, slot: Slot) -> Slot:
        m, forward = self._by_slot[slot]
        return m.target if forward else m.source

    def transport(self, slot: Slot) -> tuple[Slot, dict[str, str], str, int]:
        """(partner slot, vertex map in traversal direction, match name, +-1)."""
        m, forward = self._by_slot[slot]
        if forward:
            return m.target, dict(m.vertex_map), m.name, 1
        return m.source, m.inverse_map(), m.name, -1

    def slots(self) -> list[Slot]:
        return list(self._by_slot.keys())


@dataclass
class GluedComplex:
    """Polytope copies (with orientation signs) plus a face pairing."""

    polytopes: list[CombinatorialPolytope]
    signs: list[int]
    pairing: FacePairing

    def __post_init__(self) -> None:
        if len(self.signs) != self.copies or any(s not in (1, -1) for s in self.signs):
            raise StructureError(f"signs {self.signs} are not one +-1 per copy")

    @property
    def copies(self) -> int:
        return len(self.polytopes)

    def all_slots(self) -> list[Slot]:
        return [
            (ci, fi)
            for ci, p in enumerate(self.polytopes)
            for fi in range(len(p.faces))
        ]


# ---------------------------------------------------------------------------
# the two assemblies
# ---------------------------------------------------------------------------

def assemble_lobell(c: FaceColoring) -> GluedComplex:
    """Glue 8 copies of R(n) along the coloring c.

    Copy g is the element of (Z/2)^3 with group_index g, so face F of copy g
    is identified with face F of copy g ^ group_index(color(F)) by the
    identity vertex map, and copy g's sign is the parity of g.  Raises
    ValueError when c is not a valid coloring.
    """
    p = build_lobell_polytope(c.n)
    report = validate_coloring(p, c)
    if not report.ok:
        detail = "; ".join(d for _, passed, d in report.checks if not passed)
        raise ValueError(f"coloring of R({c.n}) is not valid: fails {report.failed()} ({detail})")

    label_of = _label_by_index(p)
    matches: list[FaceMatch] = []
    for fi, face in enumerate(p.faces):
        color = group_index(c.colors[label_of[fi]])
        identity = {v: v for v in face}
        for g in range(8):
            h = g ^ color
            if g < h:
                matches.append(FaceMatch(f"f{label_of[fi]}:{g}<->{h}", (g, fi), (h, fi), identity))
    return GluedComplex(
        polytopes=[p] * 8,
        signs=[(-1) ** g.bit_count() for g in range(8)],
        pairing=FacePairing(matches),
    )


def fibonacci_pairing(p: CombinatorialPolytope) -> FacePairing:
    """The pairing s_1..s_2n on the faces of Y(n): s_i carries the vertices
    of F_i, in the face's cyclic order, onto those of F_i*."""
    assert p.n is not None
    matches = []
    for i in range(1, 2 * p.n + 1):
        fi, fj = p.face_labels[f"F{i}"], p.face_labels[f"F{i}*"]
        matches.append(FaceMatch(f"s{i}", (0, fi), (0, fj), dict(zip(p.faces[fi], p.faces[fj]))))
    return FacePairing(matches)


def assemble_fibonacci(n: int) -> GluedComplex:
    """Close up a single copy of Y(n) along the pairing s_1..s_2n."""
    p = build_fibonacci_polytope(n)
    return GluedComplex(polytopes=[p], signs=[1], pairing=fibonacci_pairing(p))


# ---------------------------------------------------------------------------
# edge cycles
# ---------------------------------------------------------------------------

@dataclass
class EdgeCycle:
    """One quotient edge class: the polytope edges traversed in order, and
    the matches used to step between them (name, +1 forward / -1 inverse)."""

    edges: list[tuple[int, tuple[str, str]]]
    maps: list[tuple[str, int]]

    @property
    def length(self) -> int:
        return len(self.edges)


def edge_cycles(gc: GluedComplex) -> list[EdgeCycle]:
    """All quotient edge classes of the complex.

    Raises StructureError when a match names a slot outside the complex,
    when a vertex bijection fails to carry an edge to an edge, or when a
    cycle closes with its endpoints exchanged.
    """
    tables = _once_each(dart_table, gc.polytopes)
    runs = _once_each(_faces_along, tables)
    order = []  # (copy, sorted vertex indices, even dart) per edge of each copy
    for ci, (p, (_, ends, _)) in enumerate(zip(gc.polytopes, tables)):
        for d in range(0, len(ends), 2):
            order.append((ci, sorted(map(p.vertex_index, ends[d])), d))
    order.sort()

    visited: set[tuple[int, int]] = set()  # (copy, even dart)
    cycles: list[EdgeCycle] = []

    for ci0, _, d0 in order:
        if (ci0, d0) in visited:
            continue
        incident = runs[ci0][d0] + runs[ci0][d0 + 1]
        if len(incident) != 2 or incident[0] == incident[1]:
            raise StructureError(
                f"edge {tuple(sorted(tables[ci0][1][d0]))} of copy {ci0} "
                f"lies in {len(incident)} faces"
            )
        u0, v0 = sorted(tables[ci0][1][d0], key=gc.polytopes[ci0].vertex_index)
        edges = [(ci0, (u0, v0))]
        maps: list[tuple[str, int]] = []
        visited.add((ci0, d0))

        ci, u, v = ci0, u0, v0
        leave_face = min(incident)
        while True:  # each step closes, raises, or visits a new (copy, edge)
            slot = (ci, leave_face)
            if not gc.pairing.has(slot):
                raise StructureError(
                    f"face slot {slot} on the cycle through {edges[0]} is unmatched"
                )
            (cj, fj), vmap, name, direction = gc.pairing.transport(slot)
            _check_slot(gc, (cj, fj), name)
            try:
                u2, v2 = vmap[u], vmap[v]
            except KeyError as missing:
                raise StructureError(
                    f"match {name} has no image for vertex {missing} of face slot {slot}"
                ) from None
            d2 = tables[cj][0].get((u2, v2))
            faces2 = [] if d2 is None else runs[cj][d2] + runs[cj][d2 ^ 1]
            if fj not in faces2:
                raise StructureError(
                    f"match {name} does not carry edge {(u, v)} to an edge of face {fj}"
                )
            maps.append((name, direction))
            key = (cj, d2 & ~1)
            if key == (ci0, d0):
                if (u2, v2) != (u0, v0):
                    raise StructureError(
                        f"edge cycle through {edges[0]} closes with endpoints "
                        f"exchanged: {(u2, v2)} != {(u0, v0)}"
                    )
                break
            if key in visited:
                raise StructureError(
                    f"edge cycle through {edges[0]} re-enters {(cj, tuple(sorted((u2, v2))))} "
                    "before closing"
                )
            visited.add(key)
            edges.append((cj, (u2, v2)))
            other = [f for f in faces2 if f != fj]
            if len(faces2) != 2 or not other:
                raise StructureError(
                    f"edge {tuple(sorted((u2, v2)))} of copy {cj} lies in {len(faces2)} faces"
                )
            ci, u, v = cj, u2, v2
            leave_face = other[0]
        cycles.append(EdgeCycle(edges, maps))
    return cycles


# ---------------------------------------------------------------------------
# manifold verification
# ---------------------------------------------------------------------------

@dataclass
class VertexLinkReport:
    """Surface assembled from the vertex's corner disks, one per cell."""

    representative: tuple
    disks: int
    euler: int
    connected: bool
    closed: bool

    @property
    def is_sphere(self) -> bool:
        return self.connected and self.closed and self.euler == 2

    def __repr__(self) -> str:
        kind = "sphere" if self.is_sphere else "NOT a sphere"
        return (
            f"<link at {self.representative}: {self.disks} disks, chi={self.euler}, "
            f"connected={self.connected}, closed={self.closed} -> {kind}>"
        )


@dataclass
class ManifoldReport:
    """Everything verify checks about a quotient: cell counts, Euler
    characteristic, vertex links, and orientability."""

    cells: int
    quotient_vertices: int
    quotient_edges: int
    quotient_faces: int
    euler_characteristic: int
    closed: bool
    orientable: bool
    vertex_links: list[VertexLinkReport]
    problems: list[str]

    @property
    def links_all_spheres(self) -> bool:
        return all(link.is_sphere for link in self.vertex_links)

    @property
    def ok(self) -> bool:
        return (
            self.closed
            and self.orientable
            and self.euler_characteristic == 0
            and self.links_all_spheres
            and not self.problems
        )

    def summary(self) -> str:
        lines = [
            f"closed orientable: {'yes' if self.ok else 'no'}; tetrahedra: {self.cells}",
            f"quotient cells: V={self.quotient_vertices} E={self.quotient_edges} "
            f"F={self.quotient_faces} T={self.cells}",
            f"euler characteristic: {self.euler_characteristic}",
            f"vertex links: {sum(link.is_sphere for link in self.vertex_links)}"
            f"/{len(self.vertex_links)} spheres",
            f"orientable: {'yes' if self.orientable else 'no'}",
        ]
        lines.extend(f"problem: {p}" for p in self.problems)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": self.cells,
            "quotientVertices": self.quotient_vertices,
            "quotientEdges": self.quotient_edges,
            "quotientFaces": self.quotient_faces,
            "eulerCharacteristic": self.euler_characteristic,
            "closed": self.closed,
            "orientable": self.orientable,
            "linksAllSpheres": self.links_all_spheres,
            "vertexLinks": [
                {
                    "representative": list(link.representative),
                    "disks": link.disks,
                    "euler": link.euler,
                    "connected": link.connected,
                    "closed": link.closed,
                    "isSphere": link.is_sphere,
                }
                for link in self.vertex_links
            ],
            "problems": list(self.problems),
        }


def _manifold_report(
    sides_at: list[int], dart_tail: list[int], identifications: list[tuple],
    loose_sides: list[int], open_vertices: list[int],
    cells: int, faces: int, closed: bool, orientable: bool, components: int,
    problems: list[str],
    link_vertex: Callable[[int], tuple], reversed_edge: Callable[[int], str],
) -> ManifoldReport:
    """The report of both verifiers, from flat-list union-finds over vertex
    and dart ids.  Vertex v's link disk has sides_at[v] sides, and dart d
    leaves vertex dart_tail[d] and reverses to d ^ 1.  Each identification
    (vertex offset, vertex offset, dart offset, dart offset, vertex pairs,
    dart pairs) unions its pairs of local ids in order, the root of the
    second id going under the root of the first, and a dart pair (x, y) also
    x ^ 1 with y ^ 1, so every dart offset is even.  loose_sides holds the
    vertex of each link side glued to nothing or to itself, open_vertices
    each vertex with a side glued to nothing.  Links come in the order of
    their class roots, named by link_vertex(least vertex id).  problems,
    found so far, gains the line of an empty or disconnected quotient, then
    one line per edge glued to itself in reverse, named by
    reversed_edge(least dart), in the order of those darts."""
    vparent = list(range(len(sides_at)))
    dparent = list(range(len(dart_tail)))
    for va, vb, da, db, vertex_pairs, dart_pairs in identifications:
        for x, y in vertex_pairs:
            x, y = _root(vparent, va + x), _root(vparent, vb + y)
            if x != y:
                vparent[y] = x
        for x, y in dart_pairs:
            x, y = da + x, db + y
            rx, ry = _root(dparent, x), _root(dparent, y)
            if rx != ry:
                dparent[ry] = rx
            rx, ry = _root(dparent, x ^ 1), _root(dparent, y ^ 1)
            if rx != ry:
                dparent[ry] = rx

    vroot = [_root(vparent, v) for v in range(len(vparent))]
    droot = [_root(dparent, d) for d in range(len(dparent))]
    count = len(vroot)
    disks, least, sides, corners = [0] * count, [0] * count, [0] * count, [0] * count
    for v, r in enumerate(vroot):
        if not disks[r]:
            least[r] = v
        disks[r] += 1
        sides[r] += sides_at[v]
    for v in loose_sides:  # a loose side is a link edge on its own
        sides[vroot[v]] += 1

    dart_classes = 0
    invalid: dict[int, int] = {}  # root -> least dart, for each collapsed class
    for d, r in enumerate(droot):
        if r == d:
            dart_classes += 1
            corners[vroot[dart_tail[d]]] += 1
        if droot[d ^ 1] == r:
            invalid.setdefault(r, d)
    edges = (dart_classes + len(invalid)) // 2

    opened = {vroot[v] for v in open_vertices}
    links = [
        VertexLinkReport(
            link_vertex(least[r]), disks[r], disks[r] - sides[r] // 2 + corners[r],
            True, r not in opened,
        )
        for r in range(count)
        if vroot[r] == r
    ]
    if components == 0:
        problems.append("quotient is empty")
    elif components > 1:
        problems.append(f"quotient is disconnected: {components} components")
    problems += [f"{reversed_edge(d)} is glued to itself in reverse" for d in invalid.values()]
    return ManifoldReport(
        cells=cells,
        quotient_vertices=len(links),
        quotient_edges=edges,
        quotient_faces=faces,
        euler_characteristic=len(links) - edges + faces - cells,
        closed=closed,
        orientable=orientable,
        vertex_links=links,
        problems=problems,
    )


def _check_slot(gc: GluedComplex, slot: Slot, name: str) -> None:
    """Raise StructureError unless slot, named by match name, is a face of a
    copy of gc."""
    ci, fi = slot
    if not (0 <= ci < gc.copies and 0 <= fi < len(gc.polytopes[ci].faces)):
        raise StructureError(f"match {name} references a missing face slot")


def _match_turn(gc: GluedComplex, m: FaceMatch) -> int:
    """+1 if m carries its source face's cycle along its target face's, -1
    if against it, 0 if both (as on faces of fewer than 3 vertices); raises
    StructureError when m is no cycle-preserving bijection of two faces."""
    _check_slot(gc, m.source, m.name)
    _check_slot(gc, m.target, m.name)
    src = gc.polytopes[m.source[0]].faces[m.source[1]]
    tgt = gc.polytopes[m.target[0]].faces[m.target[1]]
    if set(m.vertex_map.keys()) != set(src) or set(m.vertex_map.values()) != set(tgt):
        raise StructureError(f"match {m.name} is not a vertex bijection between its two faces")
    image = tuple(m.vertex_map[v] for v in src)
    rotations = [tgt[k:] + tgt[:k] for k in range(len(tgt))] or [()]
    along, against = image in rotations, image[::-1] in rotations
    if not (along or against):
        raise StructureError(f"match {m.name} does not respect the cyclic edge structure")
    return along - against


def _once_each(build, items) -> list:
    """[build(x) for x in items], calling build once per distinct object."""
    cache: dict[int, object] = {}
    for x in items:
        if id(x) not in cache:
            cache[id(x)] = build(x)
    return [cache[id(x)] for x in items]


def verify_closed_manifold(gc: GluedComplex) -> ManifoldReport:
    """Check that the quotient of the complex is a closed connected orientable
    3-manifold; every condition is reported rather than raised."""
    problems: list[str] = []

    slots = gc.all_slots()
    slot_set = set(slots)
    unmatched = [s for s in slots if not gc.pairing.has(s)]
    alien = [s for s in gc.pairing.slots() if s not in slot_set]
    closed = not unmatched and not alien
    if unmatched:
        problems.append(f"unmatched faces: {unmatched}")
    if alien:
        problems.append(f"pairing references faces outside the complex: {alien}")

    turns = []  # (match, turn) for every match fit to glue
    for m in gc.pairing.matches:
        try:
            turns.append((m, _match_turn(gc, m)))
        except StructureError as exc:
            problems.append(str(exc))

    # copy ci numbers its vertices from voff[ci] and its darts from doff[ci];
    # every offset is even, so dart d of the complex reverses to d ^ 1
    tables = _once_each(dart_table, gc.polytopes)
    voff, doff, dart_tail = [0], [0], []
    for p, (_, ends, _) in zip(gc.polytopes, tables):
        dart_tail += [voff[-1] + p.vertex_index(u) for u, _ in ends]
        voff.append(voff[-1] + len(p.vertices))
        doff.append(doff[-1] + len(ends))
    sides_at = [0] * voff[-1]
    for ci, fi in slots:
        for d in tables[ci][2][fi]:  # a side of the face is a side of its tail's link disk
            sides_at[dart_tail[doff[ci] + d]] += 1
    identifications = []
    for m, _ in turns:
        (ci, fi), (cj, fj) = m.source, m.target
        (_, ends, sides), dart2, vmap = tables[ci], tables[cj][0], m.vertex_map
        dart_pairs = [(d, dart2[vmap[ends[d][0]], vmap[ends[d][1]]]) for d in sides[fi]]
        vertex_of, vertex2_of = gc.polytopes[ci].vertex_index, gc.polytopes[cj].vertex_index
        vertex_pairs = [(vertex_of(v), vertex2_of(w)) for v, w in vmap.items()]
        identifications.append(
            (voff[ci], voff[cj], doff[ci], doff[cj], vertex_pairs, dart_pairs)
        )
    glued = {slot for m, _ in turns for slot in (m.source, m.target)}
    loose = [
        dart_tail[doff[ci] + d]
        for ci, fi in slots
        if (ci, fi) not in glued
        for d in tables[ci][2][fi]
    ]

    # orientability with the given copy signs: a match must reverse the
    # induced boundary orientation, and keeps it iff turn * s(src) == s(tgt)
    orientable = True
    try:
        orientations = _once_each(_face_signs, tables)
    except ValueError as exc:
        problems.append(f"copy boundary not orientable: {exc}")
        orientable = False
    else:
        def sign(slot: Slot) -> int:
            return orientations[slot[0]][slot[1]] * gc.signs[slot[0]]

        bad = [m.name for m, turn in turns if turn * sign(m.source) == sign(m.target)]
        if bad:
            orientable = False
            problems.append(f"orientation-incompatible matches: {bad}")
    _, components = _signed_components(
        gc.copies, ((m.source[0], m.target[0], 0) for m, _ in turns)
    )

    def link_vertex(v: int) -> tuple:
        ci = bisect_right(voff, v) - 1
        return ci, gc.polytopes[ci].vertices[v - voff[ci]]

    def reversed_edge(d: int) -> str:
        ci = bisect_right(doff, d) - 1
        u, w = tables[ci][1][d - doff[ci]]
        return f"edge {u}-{w} of copy {ci}"

    return _manifold_report(
        sides_at, dart_tail, identifications, loose, loose,
        gc.copies, (len(slots) - len(unmatched)) // 2 + len(unmatched),
        closed, orientable, components, problems, link_vertex, reversed_edge,
    )
