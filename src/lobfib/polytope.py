"""Combinatorial models of the two polytope families.

Both families are encoded purely combinatorially: a polytope is a list of
faces, each face a cyclic sequence of vertex labels.  dart_table is the one
edge structure derived from those cycles: it numbers the directed edges
(darts) in order of first appearance, dart d reversing to d ^ 1 and lying on
edge d >> 1.  The edge queries of CombinatorialPolytope, validate_polytope,
boundary_orientation, and the edge cycles and manifold verifier of the
gluing module all read that one numbering.

Lobell family R(n), n >= 5.  A right-angled "drum": two n-gonal bases and a
belt of 2n pentagons arranged in two interleaved rings.  R(5) is the regular
right-angled dodecahedron.  The vertex set splits into four rings of n:

    a1..an   upper basis ring
    b1..bn   upper middle ring (bi below ai)
    c1..cn   lower middle ring (ci between bi and b(i+1))
    d1..dn   lower basis ring (di below ci)

Faces carry the numbering used by the reflection-group presentation:
upper pentagons 1..n (pentagon i sits on the basis edge ai-a(i+1)), lower
pentagons n+1..2n cyclically in the same verse with pentagon n+1 adjacent to
pentagons 1 and n, upper basis 2n+1, lower basis 2n+2.  The builder lists
each ring's names once and the faces in this order, so the labels are
"1".."2n+2" in face order.  Counts: 4n vertices, 6n edges, 2n+2 faces,
every vertex trivalent.

Fibonacci family Y(n), n >= 4.  An antiprism over a 2n-gon capped by two
pyramids: apexes Q (joined to the even-indexed rim vertices) and R (joined to
the odd-indexed ones), rim P1..P2n.  All 4n faces are triangles:

    Fi  = (Q, P(i+1), P(i+3))   for odd i
    Fi  = (R, P(i+1), P(i+3))   for even i
    Fi* = (P(i+2), P(i+3), P(i+4))

with rim subscripts taken mod 2n into 1..2n.  The builder lists the rim
names once and the faces F1..F2n then F1*..F2n*, labelled in that order.
Counts: 2n+2 vertices, 6n edges, 4n faces; every rim vertex has degree 5,
the apexes have degree n.  Y(5) is the regular icosahedron.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

LOBELL = "lobell"
FIBONACCI = "fibonacci"


# ---------------------------------------------------------------------------
# core type
# ---------------------------------------------------------------------------

@dataclass
class CombinatorialPolytope:
    """A 3-polytope given by its faces as cyclic vertex sequences.

    ``face_labels`` maps the external face label (the numbering used in
    presentations and colorings) to the index into ``faces``.  Construction
    raises ValueError on a face naming a vertex missing from ``vertices``
    and checks nothing else, so deliberately broken instances can be built
    and fed to :func:`validate_polytope`.
    """

    family: Optional[str]
    n: Optional[int]
    vertices: list[str]
    faces: list[tuple[str, ...]]
    face_labels: dict[str, int]
    _vertex_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.faces = [tuple(f) for f in self.faces]
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        for fi, face in enumerate(self.faces):
            for v in face:
                if v not in self._vertex_index:
                    raise ValueError(f"face {fi} {face} names vertex {v!r}, not in vertices")

    # -- derived structure --------------------------------------------------

    def vertex_index(self, v: str) -> int:
        return self._vertex_index[v]

    def edges(self) -> list[frozenset[str]]:
        """Edges as unordered vertex pairs, edge k being darts 2k and 2k + 1
        of dart_table."""
        return [frozenset(ends) for ends in dart_table(self)[1][::2]]

    def vertex_degree(self, v: str) -> int:
        return sum(v in ends for ends in dart_table(self)[1][::2])

    def adjacent_face_pairs(self) -> set[frozenset[int]]:
        """Unordered pairs of face indices sharing an edge."""
        runs = dart_table(self)[3]
        on_edges = (along + against for along, against in zip(runs[::2], runs[1::2]))
        return {frozenset(fs) for fs in on_edges if len(fs) == 2 and fs[0] != fs[1]}

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "faces": [list(f) for f in self.faces],
            "faceLabels": dict(self.face_labels),
        }


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_lobell_polytope(n: int) -> CombinatorialPolytope:
    """The drum R(n): two n-gonal bases and 2n pentagons, right-angled
    combinatorics (trivalent vertices, all faces with >= 5 sides)."""
    if n < 5:
        raise ValueError("Andreev condition fails below n=5")
    a, b, c, d = rings = [[f"{ring}{i}" for i in range(1, n + 1)] for ring in "abcd"]
    # a[i] is a(i+1): upper pentagon i+1 hangs from basis edge a(i+1)-a(i+2),
    # lower pentagon n+1+j from dj-d(j+1) (d[-1] is dn), so that pentagon n+1
    # is the one adjacent to upper pentagons 1 and n; then the two bases
    faces = [(a[i], a[(i + 1) % n], b[(i + 1) % n], c[i], b[i]) for i in range(n)]
    faces += [(d[j - 1], d[j], c[j], b[j], c[j - 1]) for j in range(n)]
    faces += [tuple(a), tuple(d)]
    labels = {str(fi + 1): fi for fi in range(len(faces))}
    return CombinatorialPolytope(LOBELL, n, [v for ring in rings for v in ring], faces, labels)


def build_fibonacci_polytope(n: int) -> CombinatorialPolytope:
    """The capped antiprism Y(n): 4n triangles over rim P1..P2n with apexes
    Q (even rim) and R (odd rim)."""
    if n < 4:
        raise ValueError("capped antiprism needs n >= 4")
    rim = [f"P{k}" for k in range(1, 2 * n + 1)]
    p = rim + rim[:4]  # p[k - 1] is P(k) for k <= 2n + 4
    faces = [("Q" if i % 2 else "R", p[i], p[i + 2]) for i in range(1, 2 * n + 1)]
    faces += [(p[i + 1], p[i + 2], p[i + 3]) for i in range(1, 2 * n + 1)]
    names = [f"F{i}" for i in range(1, 2 * n + 1)]
    labels = {name: fi for fi, name in enumerate(names + [name + "*" for name in names])}
    return CombinatorialPolytope(FIBONACCI, n, ["Q", "R"] + rim, faces, labels)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of validate_polytope or validate_coloring: one (name, passed,
    detail) row per check."""

    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]

    def __repr__(self) -> str:
        rows = ", ".join(f"{name}={'ok' if passed else 'FAIL'}" for name, passed, _ in self.checks)
        return f"<CheckReport {rows}>"


def _root(parent: list[int], x: int) -> int:
    """Root of x in a flat-list union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _signed_components(count: int, triples: Iterable[tuple[int, int, int]]) -> tuple[bool, int]:
    """Whether 0..count-1 admit signs in Z/2 with sign(x) - sign(y) = parity
    for every triple (x, y, parity), and how many connected components the
    triples join them into: a flat union-find with a Z/2 weight, weight[x]
    being the sign of x minus the sign of parent[x]."""
    parent, weight, size = list(range(count)), [0] * count, [1] * count
    consistent, components = True, count
    for x, y, d in triples:
        while parent[x] != x:
            x, d = parent[x], d ^ weight[x]
        while parent[y] != y:
            y, d = parent[y], d ^ weight[y]
        if x != y:
            if size[x] < size[y]:
                x, y = y, x
            parent[y], weight[y], size[x] = x, d, size[x] + size[y]
            components -= 1
        elif d:
            consistent = False
    return consistent, components


def validate_polytope(p: CombinatorialPolytope) -> CheckReport:
    """Check the structural invariants of a polytope boundary.

    Generic checks: every face is a simple cycle, every edge lies in exactly
    two faces, Euler characteristic V - E + F = 2, and the face-adjacency
    graph is connected.  When p.family is Lobell the combinatorial Andreev
    conditions used downstream are added (all vertices trivalent, all faces
    with at least 5 sides); when it is Fibonacci all faces must be triangles.
    """
    checks: list[tuple[str, bool, str]] = []

    bad_faces = [fi for fi, f in enumerate(p.faces) if len(set(f)) != len(f) or len(f) < 3]
    checks.append(("faces_simple", not bad_faces, f"degenerate faces: {bad_faces}"))

    _, ends, _, runs = dart_table(p)
    edges = [set(pair) for pair in ends[::2]]
    on_edges = [along + against for along, against in zip(runs[::2], runs[1::2])]
    bad_edges = {tuple(sorted(edge)): len(fs) for edge, fs in zip(edges, on_edges) if len(fs) != 2}
    checks.append(("edge_two_faces", not bad_edges, f"edges with face count != 2: {bad_edges}"))

    v, e, f = len(p.vertices), len(edges), len(p.faces)
    checks.append(("euler", v - e + f == 2, f"V-E+F = {v}-{e}+{f} = {v - e + f}"))

    joined = ((*fs, 0) for fs in on_edges if len(fs) == 2)
    checks.append(("face_graph_connected", _signed_components(len(p.faces), joined)[1] <= 1, ""))

    if p.family == LOBELL:
        degs = Counter(w for edge in edges for w in edge)
        nontriv = {w: degs[w] for w in p.vertices if degs[w] != 3}
        checks.append(("trivalent", not nontriv, f"non-trivalent: {nontriv}"))
        small = [fi for fi, fc in enumerate(p.faces) if len(fc) < 5]
        checks.append(("faces_at_least_pentagons", not small, f"faces with < 5 sides: {small}"))
    elif p.family == FIBONACCI:
        nontri = [fi for fi, fc in enumerate(p.faces) if len(fc) != 3]
        checks.append(("faces_triangles", not nontri, f"non-triangles: {nontri}"))

    return CheckReport(checks)


def dart_table(
    p: CombinatorialPolytope,
) -> tuple[dict[tuple[str, str], int], list[tuple[str, str]], list[list[int]], list[list[int]]]:
    """(ids, ends, sides, runs): ids maps (tail, head) to its dart, ends[d] is
    the (tail, head) of dart d, sides[f] lists face f's darts in cycle order,
    and runs[d] the faces whose cycles run along dart d, in face order, a
    face listed as often as its cycle does so; the faces on edge d >> 1 are
    runs[d] + runs[d ^ 1].  Darts are numbered in order of first appearance
    on the face cycles, dart d reversing to d ^ 1; a loop (v, v) takes the
    odd id of its pair."""
    ids, ends, sides, runs = {}, [], [], []
    for fi, face in enumerate(p.faces):
        darts = []
        for k, v in enumerate(face):
            w = face[k + 1 - len(face)]
            if (v, w) not in ids:
                ids[v, w] = len(ends)
                ends.append((v, w))
                ids[w, v] = len(ends)
                ends.append((w, v))
                runs += [], []
            d = ids[v, w]
            darts.append(d)
            runs[d].append(fi)
        sides.append(darts)
    return ids, ends, sides, runs


def boundary_orientation(p: CombinatorialPolytope) -> list[int]:
    """Coherent orientation of the boundary sphere.

    Returns one sign per face: +1 keeps the stored cycle, -1 reverses it,
    such that every edge is traversed once in each direction by its two
    incident faces.  Raises ValueError if no coherent choice exists.
    """
    return _face_signs(dart_table(p))


def _face_signs(table) -> list[int]:
    """boundary_orientation on the dart table of the polytope."""
    _, ends, sides, runs = table
    signs = [0] * len(sides)
    for start in range(len(sides)):
        if signs[start]:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            fi = stack.pop()
            for d in sides[fi]:
                along, against = runs[d], runs[d ^ 1]
                if len(along) + len(against) != 2:
                    raise ValueError(f"edge {tuple(sorted(set(ends[d])))} not shared by two faces")
                # the face across keeps its cycle if it runs against fi's
                if against:
                    gi, need = against[0], signs[fi]
                else:
                    gi, need = along[0] if along[1] == fi else along[1], -signs[fi]
                if signs[gi] == 0:
                    signs[gi] = need
                    stack.append(gi)
                elif signs[gi] != need:
                    raise ValueError("boundary surface is not orientable")
    return signs
