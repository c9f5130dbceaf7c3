"""Independent oracles used to freeze expected values in the test suite.

Each oracle deliberately takes a different computational route from the
library so that agreement is evidence, not tautology:

* lobachevsky_oracle integrates -log|2 sin t| directly, pulling the
  endpoint singularity to -infinity with the substitution t = e^u (the
  library instead subtracts the singularity in closed form);
* lobachevsky_clausen goes through mpmath's Clausen function Cl_2, and
  lobell_volume_clausen / fibonacci_volume_clausen evaluate the volume
  formulas, angles included, at 30 digits on the same route;
* edge_faces, face_cycle_edges, adjacent_face_pairs, validate_polytope and
  edge_cycles are the library's edge queries as they were before the dart
  table became the one edge structure, with edges keyed by frozensets of
  vertex labels;
* coloring_count_oracle brute-forces colorings in reverse face order with
  its own adjacency and rank computations;
* enumerate_colorings is the library's coloring search as it was before
  forward checking: plain backtracking with validate_coloring at each leaf;
* boundary_orientation and match_is_orientation_reversing are the
  library's orientation path as it was before the dart table, walking
  edges keyed by frozensets and comparing rotated vertex cycles;
* verify_triangulation and verify_closed_manifold are the library's
  verifiers as they were before the integer-id core, with one union-find
  per kind of cell keyed by tuples and frozensets, and orientability read
  from that old orientation path;
* triangulate_lobell and triangulate_fibonacci are the library's two
  bespoke triangulators as they were before the one triangulate, with
  their family-specific wall and slot bookkeeping.
* export_triangulation_oracle is the library's export as it was before
  the fixed template: json's own indenting writer.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

import mpmath
from scipy.integrate import quad

from lobfib.coloring import (
    COLORS,
    GROUP8,
    FaceColoring,
    _label_by_index,
    group_index,
    validate_coloring,
)
from lobfib.gluing import (
    EdgeCycle,
    FaceMatch,
    GluedComplex,
    ManifoldReport,
    Slot,
    StructureError,
    VertexLinkReport,
    fibonacci_pairing,
)
from lobfib.polytope import (
    FIBONACCI,
    LOBELL,
    CheckReport,
    CombinatorialPolytope,
    build_fibonacci_polytope,
    build_lobell_polytope,
)
from lobfib.triangulation import Gluing, Triangulation


def lobachevsky_oracle(x: float) -> float:
    """Lobachevskii function via -integral of log(2 sin t), t = e^u."""
    r = math.remainder(x, math.pi)
    sign = 1.0 if r >= 0 else -1.0
    r = abs(r)
    if r == 0.0:
        return 0.0

    def integrand(u: float) -> float:
        t = math.exp(u)
        if t == 0.0:  # exp underflows for u < -745; the integrand tends to 0
            return 0.0
        return math.log(2.0 * math.sin(t)) * t

    val, _ = quad(
        integrand,
        -math.inf,
        math.log(r),
        epsabs=1e-12,
        epsrel=1e-12,
        limit=400,
    )
    return -sign * val


def lobachevsky_clausen_mp(x) -> mpmath.mpf:
    """Lobachevskii function as half the Clausen function of order 2, at
    the working precision (x is taken exactly)."""
    return mpmath.clsin(2, 2 * mpmath.mpf(x)) / 2


def lobachevsky_clausen(x: float) -> float:
    """lobachevsky_clausen_mp at 30 digits, rounded to a float."""
    with mpmath.workdps(30):
        return float(lobachevsky_clausen_mp(x))


def v3_clausen() -> mpmath.mpf:
    """v3 = 2 Lambda(pi/6) at 30 digits."""
    with mpmath.workdps(30):
        return 2 * lobachevsky_clausen_mp(mpmath.pi / 6)


def lobell_volume_clausen(n: int) -> mpmath.mpf:
    """The Lobell volume formula with every angle and Lambda at 30 digits."""
    with mpmath.workdps(30):
        step = mpmath.pi / n
        th = mpmath.pi / 2 - mpmath.acos(1 / (2 * mpmath.cos(step)))
        lam = lobachevsky_clausen_mp
        return 4 * n * (
            2 * lam(th) + lam(th + step) + lam(th - step) - lam(2 * th - mpmath.pi / 2)
        )


def fibonacci_volume_clausen(n: int) -> mpmath.mpf:
    """The Fibonacci volume formula with every angle and Lambda at 30 digits."""
    with mpmath.workdps(30):
        b = mpmath.pi / n
        a = mpmath.acos(mpmath.cos(2 * b) - mpmath.mpf(1) / 2) / 2
        return 2 * n * (lobachevsky_clausen_mp(a + b) + lobachevsky_clausen_mp(a - b))


# ---------------------------------------------------------------------------
# brute-force coloring counter
# ---------------------------------------------------------------------------

_VECTORS = {
    "alpha": 0b100,
    "beta": 0b010,
    "gamma": 0b001,
    "delta": 0b111,
}


def _rank3(bit_vectors) -> int:
    rank = 0
    basis: list[int] = []
    for v in bit_vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            rank += 1
    return rank


def coloring_count_oracle(polytope) -> int:
    """Number of valid colorings, counted by an independent brute force.

    Adjacency is recomputed from shared vertex pairs, faces are assigned in
    reverse index order, and validity is checked with local bit arithmetic:
    faces sharing two vertices differ, the colors of the faces at every
    vertex are independent (a face counted as often as its cycle passes the
    vertex, so a vertex on four or more faces always fails, and a vertex on
    no face passes), and the colors used have rank 3.
    """
    faces = [set(face) for face in polytope.faces]
    count_faces = len(faces)
    adjacent = [[False] * count_faces for _ in range(count_faces)]
    for i in range(count_faces):
        for j in range(i + 1, count_faces):
            if len(faces[i] & faces[j]) >= 2:
                adjacent[i][j] = adjacent[j][i] = True

    at_vertex: dict[str, list[int]] = {}
    for fi, face in enumerate(polytope.faces):
        for v in face:
            at_vertex.setdefault(v, []).append(fi)

    palette = list(_VECTORS.values())
    assignment = [0] * count_faces
    total = 0

    def valid_leaf() -> bool:
        for incident in at_vertex.values():
            if _rank3(assignment[f] for f in incident) != len(incident):
                return False
        return _rank3(set(assignment)) == 3

    def recurse(k: int) -> None:
        nonlocal total
        if k < 0:
            if valid_leaf():
                total += 1
            return
        for vec in palette:
            if all(
                not adjacent[k][j] or assignment[j] != vec
                for j in range(k + 1, count_faces)
            ):
                assignment[k] = vec
                recurse(k - 1)
        assignment[k] = 0

    recurse(count_faces - 1)
    return total


# ---------------------------------------------------------------------------
# the frozenset-keyed edge map
# ---------------------------------------------------------------------------
# The polytope edge queries, validate_polytope and edge_cycles as they stood
# before lobfib read every edge from the dart table, kept verbatim (edges
# keyed by frozensets of vertex labels) as free functions, so that
# tests/test_dart_edges.py can require identical results from the old and
# the new code.  The other oracles of this module read edges from here.


def face_cycle_edges(p: CombinatorialPolytope, face_index: int) -> list[frozenset[str]]:
    """Edges of one face, as unordered vertex pairs, in cycle order."""
    cyc = p.faces[face_index]
    return [frozenset((cyc[k], cyc[(k + 1) % len(cyc)])) for k in range(len(cyc))]


def edge_faces(p: CombinatorialPolytope) -> dict[frozenset[str], list[int]]:
    """Map each edge to the (multi)set of faces whose boundary uses it."""
    out: dict[frozenset[str], list[int]] = {}
    for fi in range(len(p.faces)):
        for e in face_cycle_edges(p, fi):
            out.setdefault(e, []).append(fi)
    return out


def adjacent_face_pairs(p: CombinatorialPolytope) -> set[frozenset[int]]:
    """Unordered pairs of face indices sharing an edge."""
    pairs: set[frozenset[int]] = set()
    for incident in edge_faces(p).values():
        if len(incident) == 2 and incident[0] != incident[1]:
            pairs.add(frozenset(incident))
    return pairs


def _connected(count: int, neighbor_pairs: Iterable[frozenset[int]]) -> bool:
    if count == 0:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(count)}
    for pair in neighbor_pairs:
        x, y = tuple(pair)
        adj[x].add(y)
        adj[y].add(x)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == count


def validate_polytope(p: CombinatorialPolytope, family: Optional[str] = None) -> CheckReport:
    """Check the structural invariants of a polytope boundary.

    Generic checks: every face is a simple cycle, every edge lies in exactly
    two faces, Euler characteristic V - E + F = 2, and the face-adjacency
    graph is connected.  In Lobell mode the combinatorial Andreev conditions
    used downstream are added (all vertices trivalent, all faces with at
    least 5 sides); in Fibonacci mode all faces must be triangles.
    """
    fam = family if family is not None else p.family
    checks: list[tuple[str, bool, str]] = []

    bad_faces = [fi for fi, f in enumerate(p.faces) if len(set(f)) != len(f) or len(f) < 3]
    checks.append(("faces_simple", not bad_faces, f"degenerate faces: {bad_faces}"))

    ef = edge_faces(p)
    bad_edges = {tuple(sorted(e)): len(fs) for e, fs in ef.items() if len(fs) != 2}
    checks.append(("edge_two_faces", not bad_edges, f"edges with face count != 2: {bad_edges}"))

    v, e, f = len(p.vertices), len(ef), len(p.faces)
    checks.append(("euler", v - e + f == 2, f"V-E+F = {v}-{e}+{f} = {v - e + f}"))

    checks.append(
        ("face_graph_connected", _connected(len(p.faces), adjacent_face_pairs(p)), "")
    )

    if fam == LOBELL:
        degs = {w: 0 for w in p.vertices}
        for edge in ef:
            for w in edge:
                if w in degs:
                    degs[w] += 1
        nontriv = {w: k for w, k in degs.items() if k != 3}
        checks.append(("trivalent", not nontriv, f"non-trivalent: {nontriv}"))
        small = [fi for fi, fc in enumerate(p.faces) if len(fc) < 5]
        checks.append(("faces_at_least_pentagons", not small, f"faces with < 5 sides: {small}"))
    elif fam == FIBONACCI:
        nontri = [fi for fi, fc in enumerate(p.faces) if len(fc) != 3]
        checks.append(("faces_triangles", not nontri, f"non-triangles: {nontri}"))

    return CheckReport(checks)


def _edge_key(p: CombinatorialPolytope, e: frozenset[str]) -> tuple[int, int]:
    i, j = sorted(p.vertex_index(v) for v in e)
    return (i, j)


def edge_cycles(gc: GluedComplex) -> list[EdgeCycle]:
    """All quotient edge classes of the complex.

    Raises StructureError when a vertex bijection fails to carry an edge to
    an edge or when a cycle closes with its endpoints exchanged.
    """
    edge_faces_of = [edge_faces(p) for p in gc.polytopes]
    order: list[tuple[int, tuple[int, int], frozenset[str]]] = []
    for ci, p in enumerate(gc.polytopes):
        for e in edge_faces_of[ci]:
            order.append((ci, _edge_key(p, e), e))
    order.sort(key=lambda t: (t[0], t[1]))

    visited: set[tuple[int, frozenset[str]]] = set()
    cycles: list[EdgeCycle] = []
    budget = len(order) + 1

    for ci0, _, e0 in order:
        if (ci0, e0) in visited:
            continue
        p0 = gc.polytopes[ci0]
        incident = edge_faces_of[ci0][e0]
        if len(incident) != 2 or incident[0] == incident[1]:
            raise StructureError(
                f"edge {tuple(sorted(e0))} of copy {ci0} lies in {len(incident)} faces"
            )
        u0, v0 = sorted(e0, key=p0.vertex_index)
        edges = [(ci0, (u0, v0))]
        maps: list[tuple[str, int]] = []
        visited.add((ci0, e0))

        ci, u, v = ci0, u0, v0
        leave_face = min(incident)
        for _ in range(budget):
            slot = (ci, leave_face)
            if not gc.pairing.has(slot):
                raise StructureError(
                    f"face slot {slot} on the cycle through {edges[0]} is unmatched"
                )
            (cj, fj), vmap, name, direction = gc.pairing.transport(slot)
            try:
                u2, v2 = vmap[u], vmap[v]
            except KeyError as missing:
                raise StructureError(
                    f"match {name} has no image for vertex {missing} of face slot {slot}"
                ) from None
            e2 = frozenset((u2, v2))
            faces2 = edge_faces_of[cj].get(e2)
            if faces2 is None or fj not in faces2:
                raise StructureError(
                    f"match {name} does not carry edge {(u, v)} to an edge of face {fj}"
                )
            maps.append((name, direction))
            if (cj, e2) == (ci0, e0):
                if (u2, v2) != (u0, v0):
                    raise StructureError(
                        f"edge cycle through {edges[0]} closes with endpoints "
                        f"exchanged: {(u2, v2)} != {(u0, v0)}"
                    )
                break
            if (cj, e2) in visited:
                raise StructureError(
                    f"edge cycle through {edges[0]} re-enters {(cj, tuple(sorted(e2)))} "
                    "before closing"
                )
            visited.add((cj, e2))
            edges.append((cj, (u2, v2)))
            other = [f for f in faces2 if f != fj]
            if len(faces2) != 2 or not other:
                raise StructureError(
                    f"edge {tuple(sorted(e2))} of copy {cj} lies in {len(faces2)} faces"
                )
            ci, u, v = cj, u2, v2
            leave_face = other[0]
        else:
            raise StructureError(f"edge cycle through {edges[0]} did not close")
        cycles.append(EdgeCycle(edges, maps))
    return cycles


# ---------------------------------------------------------------------------
# the leaf-checked coloring search
# ---------------------------------------------------------------------------
# lobfib's enumerate_colorings as it stood before forward checking, kept
# verbatim so that tests/test_coloring.py can require the same colorings in
# the same order from the old and the new search.


def enumerate_colorings(
    p: CombinatorialPolytope, limit: Optional[int] = None
) -> list[FaceColoring]:
    """All valid colorings of p, in the canonical backtracking order.

    Faces are colored in increasing face-index order and colors tried in the
    fixed order alpha, beta, gamma, delta; the first completion is therefore
    the canonical coloring of p.  ``limit`` truncates the enumeration
    (limit=0 gives the empty list).  Iterative search, so large n is fine.
    """
    if limit is not None and limit <= 0:
        return []
    lab = _label_by_index(p)
    nbrs: dict[int, set[int]] = {fi: set() for fi in range(len(p.faces))}
    for pair in adjacent_face_pairs(p):
        x, y = tuple(pair)
        nbrs[x].add(y)
        nbrs[y].add(x)

    count_faces = len(p.faces)
    chosen: list[int] = []  # color index per face, in face order
    results: list[FaceColoring] = []

    def admissible(fi: int, ci: int) -> bool:
        return all(chosen[g] != ci for g in nbrs[fi] if g < fi)

    ci = 0
    while True:
        fi = len(chosen)
        if fi == count_faces:
            coloring = FaceColoring(
                p.n if p.n is not None else 0,
                {lab[k]: COLORS[chosen[k]] for k in range(count_faces)},
            )
            if validate_coloring(p, coloring).ok:
                results.append(coloring)
                if limit is not None and len(results) >= limit:
                    return results
            # backtrack
            ci = chosen.pop() + 1 if chosen else 4
            if not chosen and ci >= 4:
                return results
            continue
        while ci < 4 and not admissible(fi, ci):
            ci += 1
        if ci < 4:
            chosen.append(ci)
            ci = 0
        else:
            if not chosen:
                return results
            ci = chosen.pop() + 1


# ---------------------------------------------------------------------------
# the frozenset-keyed orientation path
# ---------------------------------------------------------------------------
# boundary_orientation and the per-match structure and orientation checks as
# they stood before lobfib read orientability from the dart table, kept
# verbatim (edges keyed by frozensets, one rotation test per question) so
# that tests/test_verifier_core.py can require identical signs and reports.


def boundary_orientation(p: CombinatorialPolytope) -> list[int]:
    """Coherent orientation of the boundary sphere.

    Returns one sign per face: +1 keeps the stored cycle, -1 reverses it,
    such that every edge is traversed once in each direction by its two
    incident faces.  Raises ValueError if no coherent choice exists.
    """
    directed: list[dict[frozenset[str], tuple[str, str]]] = []
    for fi, cyc in enumerate(p.faces):
        d = {}
        for k in range(len(cyc)):
            u, w = cyc[k], cyc[(k + 1) % len(cyc)]
            d[frozenset((u, w))] = (u, w)
        directed.append(d)

    ef = edge_faces(p)
    signs: list[int] = [0] * len(p.faces)
    for start in range(len(p.faces)):
        if signs[start]:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            fi = stack.pop()
            for e, (u, w) in directed[fi].items():
                incident = ef.get(e, [])
                if len(incident) != 2:
                    raise ValueError(f"edge {tuple(sorted(e))} not shared by two faces")
                gi = incident[0] if incident[1] == fi else incident[1]
                # face fi traverses e as (u, w) under sign +1; the neighbor
                # must traverse it as (w, u)
                gu, gw = directed[gi][e]
                need = 1 if (gu, gw) == ((w, u) if signs[fi] == 1 else (u, w)) else -1
                if signs[gi] == 0:
                    signs[gi] = need
                    stack.append(gi)
                elif signs[gi] != need:
                    raise ValueError("boundary surface is not orientable")
    return signs


def _is_rotation(seq: list, target: list) -> bool:
    if len(seq) != len(target):
        return False
    if not seq:
        return True
    doubled = target + target
    return any(doubled[k : k + len(seq)] == seq for k in range(len(target)))


def _match_structure_problem(gc: GluedComplex, m: FaceMatch) -> Optional[str]:
    (ci, fi), (cj, fj) = m.source, m.target
    try:
        src = gc.polytopes[ci].faces[fi]
        tgt = gc.polytopes[cj].faces[fj]
    except IndexError:
        return f"match {m.name} references a missing face slot"
    if set(m.vertex_map.keys()) != set(src) or set(m.vertex_map.values()) != set(tgt):
        return f"match {m.name} is not a vertex bijection between its two faces"
    image = [m.vertex_map[v] for v in src]
    if not (_is_rotation(image, list(tgt)) or _is_rotation(image, list(reversed(tgt)))):
        return f"match {m.name} does not respect the cyclic edge structure"
    return None


def _oriented_cycle(gc, orientations, slot: Slot) -> list[str]:
    ci, fi = slot
    cyc = list(gc.polytopes[ci].faces[fi])
    if orientations[ci][fi] * gc.signs[ci] == -1:
        cyc.reverse()
    return cyc


def match_is_orientation_reversing(gc: GluedComplex, m: FaceMatch, orientations=None) -> bool:
    """Whether a match reverses the induced boundary orientation, taking the
    copies' orientation signs into account."""
    if orientations is None:
        orientations = _copy_orientations(gc)
    src = _oriented_cycle(gc, orientations, m.source)
    tgt = _oriented_cycle(gc, orientations, m.target)
    image = [m.vertex_map[v] for v in src]
    return _is_rotation(image, list(reversed(tgt)))


def _per_polytope(gc: GluedComplex, build) -> list:
    """build(p) for every copy, called once per polytope object."""
    cache: dict[int, object] = {}
    for p in gc.polytopes:
        if id(p) not in cache:
            cache[id(p)] = build(p)
    return [cache[id(p)] for p in gc.polytopes]


def _copy_orientations(gc: GluedComplex) -> list[list[int]]:
    return _per_polytope(gc, boundary_orientation)


# ---------------------------------------------------------------------------
# the dict-keyed manifold verifiers
# ---------------------------------------------------------------------------
# The two verifiers as they stood before lobfib moved them onto flat-list
# union-finds over integer ids, kept verbatim (cells keyed by tuples and
# frozensets) so that tests/test_verifier_core.py can require identical
# reports from the old and the new code.


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x, p = p, self.parent[p]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def class_count(self, keys) -> int:
        return len({self.find(k) for k in keys})


def _perm_is_odd(perm: tuple[int, int, int, int]) -> bool:
    swaps = sum(
        1
        for i in range(4)
        for j in range(i + 1, 4)
        if perm[i] > perm[j]
    )
    return swaps % 2 == 1


class _ParityUnionFind:
    """Union-find with a Z/2 weight; union(x, y, d) asserts
    weight(x) - weight(y) = d and reports whether that is consistent."""

    def __init__(self) -> None:
        self.parent: dict = {}
        self.offset: dict = {}

    def find(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.offset[x] = 0
            return x, 0
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        parity = 0
        for y in reversed(path):
            parity ^= self.offset[y]
            self.parent[y] = x
            self.offset[y] = parity
        return x, self.offset[path[0]] if path else 0

    def union(self, x, y, d: int) -> bool:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == d
        self.parent[ry] = rx
        self.offset[ry] = px ^ py ^ d
        return True


def verify_triangulation(tri: Triangulation) -> ManifoldReport:
    """Check the gluing axioms and that the quotient is a closed orientable
    3-manifold; every failed condition is reported, nothing is raised."""
    problems: list[str] = []
    count = tri.tet_count

    unglued = [(t, f) for t in range(count) for f in range(4) if tri.gluings[t][f] is None]
    closed = not unglued
    if unglued:
        shown = ", ".join(map(str, unglued[:8])) + ("..." if len(unglued) > 8 else "")
        problems.append(f"unglued faces: {shown}")

    usable: dict[tuple[int, int], Gluing] = {}
    for t in range(count):
        for f in range(4):
            entry = tri.gluings[t][f]
            if entry is None:
                continue
            t2, f2, perm = entry
            if not (0 <= t2 < count):
                problems.append(f"gluing of tet {t} face {f} references tetrahedron {t2}")
                continue
            if sorted(perm) != [0, 1, 2, 3]:
                problems.append(
                    f"gluing of tet {t} face {f}: {perm} is not a permutation of 0..3"
                )
                continue
            if perm[f] != f2:
                problems.append(
                    f"gluing of tet {t} face {f}: perm {perm} sends face {f} "
                    f"to {perm[f]}, not to face {f2}"
                )
                continue
            back = tri.gluings[t2][f2]
            if (
                back is None
                or back[0] != t
                or back[1] != f
                or any(back[2][perm[i]] != i for i in range(4))
            ):
                problems.append(
                    f"gluing of tet {t} face {f} is not mirrored by tet {t2} face {f2}"
                )
                continue
            usable[(t, f)] = entry

    vertex_uf = UnionFind()
    edge_uf = UnionFind()
    side_uf = UnionFind()
    corner_uf = UnionFind()
    parity = _ParityUnionFind()

    all_vertices = [(t, i) for t in range(count) for i in range(4)]
    all_edges = [
        (t, frozenset((i, j))) for t in range(count) for i in range(4) for j in range(i + 1, 4)
    ]
    for tv in all_vertices:
        vertex_uf.find(tv)
    for te in all_edges:
        edge_uf.find(te)
    for t in range(count):
        for i in range(4):
            for f in range(4):
                if f != i:
                    side_uf.find((t, i, f))
            for j in range(4):
                if j != i:
                    corner_uf.find((t, i, j))

    orientable = True
    for (t, f), (t2, f2, perm) in usable.items():
        on_face = [i for i in range(4) if i != f]
        for i in on_face:
            vertex_uf.union((t, i), (t2, perm[i]))
            side_uf.union((t, i, f), (t2, perm[i], f2))
        for a in range(3):
            for b in range(a + 1, 3):
                i, j = on_face[a], on_face[b]
                edge_uf.union((t, frozenset((i, j))), (t2, frozenset((perm[i], perm[j]))))
        for i in on_face:
            for j in on_face:
                if i != j:
                    corner_uf.union((t, i, j), (t2, perm[i], perm[j]))
        if not parity.union(t, t2, 0 if _perm_is_odd(perm) else 1):
            orientable = False
    if not orientable:
        problems.append(
            "no assignment of tetrahedron orientations makes every gluing compatible"
        )

    quotient_vertices = vertex_uf.class_count(all_vertices)
    quotient_edges = edge_uf.class_count(all_edges)
    face_orbits = {frozenset(((t, f), entry[:2])) for (t, f), entry in usable.items()}
    quotient_faces = len(face_orbits) + len(unglued)
    euler = quotient_vertices - quotient_edges + quotient_faces - count

    classes: dict = {}
    for tv in all_vertices:
        classes.setdefault(vertex_uf.find(tv), []).append(tv)
    links: list[VertexLinkReport] = []
    for root in sorted(classes):
        members = classes[root]
        disks = len(members)
        link_edges = len(
            {side_uf.find((t, i, f)) for t, i in members for f in range(4) if f != i}
        )
        link_vertices = len(
            {corner_uf.find((t, i, j)) for t, i in members for j in range(4) if j != i}
        )
        link_closed = all(
            (t, f) in usable for t, i in members for f in range(4) if f != i
        )
        connected = vertex_uf.class_count(members) == 1
        euler_link = disks - link_edges + link_vertices
        links.append(
            VertexLinkReport(min(members), disks, euler_link, connected, link_closed)
        )

    return ManifoldReport(
        cells=count,
        quotient_vertices=quotient_vertices,
        quotient_edges=quotient_edges,
        quotient_faces=quotient_faces,
        euler_characteristic=euler,
        closed=closed,
        orientable=orientable,
        vertex_links=links,
        problems=problems,
    )


def verify_closed_manifold(gc: GluedComplex) -> ManifoldReport:
    """Check that the quotient of the complex is a closed orientable
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

    match_problems = [_match_structure_problem(gc, m) for m in gc.pairing.matches]
    problems.extend(p for p in match_problems if p)

    # quotient cells by union-find over the identifications
    vertex_uf = UnionFind()
    edge_uf = UnionFind()
    all_vertices = [
        (ci, v) for ci, p in enumerate(gc.polytopes) for v in p.vertices
    ]
    all_edges = [
        (ci, e) for ci, p in enumerate(gc.polytopes) for e in edge_faces(p)
    ]
    for ci, v in all_vertices:
        vertex_uf.find((ci, v))
    for ci, e in all_edges:
        edge_uf.find((ci, e))

    usable_matches = [
        m for m, problem in zip(gc.pairing.matches, match_problems) if problem is None
    ]
    for m in usable_matches:
        (ci, fi), (cj, fj) = m.source, m.target
        for v, w in m.vertex_map.items():
            vertex_uf.union((ci, v), (cj, w))
        for e in face_cycle_edges(gc.polytopes[ci], fi):
            image = frozenset(m.vertex_map[v] for v in e)
            edge_uf.union((ci, e), (cj, image))

    quotient_vertices = vertex_uf.class_count(all_vertices)
    quotient_edges = edge_uf.class_count(all_edges)
    matched_slots = sum(1 for s in slots if gc.pairing.has(s))
    quotient_faces = matched_slots // 2 + len(unmatched)
    cells = gc.copies
    euler = quotient_vertices - quotient_edges + quotient_faces - cells

    # vertex links: one polygonal disk per (copy, vertex); sides indexed by
    # the face corners at the vertex, corners by the edges at the vertex
    at_vertex_cache: dict[int, dict[str, list[int]]] = {}
    for ci, p in enumerate(gc.polytopes):
        if id(p) not in at_vertex_cache:
            table: dict[str, list[int]] = {v: [] for v in p.vertices}
            for fi, f in enumerate(p.faces):
                for v in f:
                    table[v].append(fi)
            at_vertex_cache[id(p)] = table

    side_uf = UnionFind()
    corner_uf = UnionFind()
    disk_uf = UnionFind()
    disk_sides: dict[tuple[int, str], list[tuple]] = {}
    side_matched: dict[tuple, bool] = {}

    def face_neighbors(p: CombinatorialPolytope, fi: int, v: str) -> tuple[str, str]:
        cyc = p.faces[fi]
        k = cyc.index(v)
        return cyc[(k - 1) % len(cyc)], cyc[(k + 1) % len(cyc)]

    for ci, p in enumerate(gc.polytopes):
        table = at_vertex_cache[id(p)]
        for v in p.vertices:
            disk = (ci, v)
            disk_uf.find(disk)
            sides = []
            for fi in table[v]:
                side = (ci, v, fi)
                sides.append(side)
                side_uf.find(side)
                prev_v, next_v = face_neighbors(p, fi, v)
                corner_uf.find((ci, v, frozenset((v, prev_v))))
                corner_uf.find((ci, v, frozenset((v, next_v))))
                side_matched.setdefault(side, False)
            disk_sides[disk] = sides

    for m in usable_matches:
        (ci, fi), (cj, fj) = m.source, m.target
        p = gc.polytopes[ci]
        for v in p.faces[fi]:
            w = m.vertex_map[v]
            side_a, side_b = (ci, v, fi), (cj, w, fj)
            side_uf.union(side_a, side_b)
            side_matched[side_a] = True
            side_matched[side_b] = True
            disk_uf.union((ci, v), (cj, w))
            prev_v, next_v = face_neighbors(p, fi, v)
            for nb in (prev_v, next_v):
                corner_uf.union(
                    (ci, v, frozenset((v, nb))),
                    (cj, w, frozenset((w, m.vertex_map[nb]))),
                )

    links: list[VertexLinkReport] = []
    classes: dict = {}
    for ci, v in all_vertices:
        classes.setdefault(vertex_uf.find((ci, v)), []).append((ci, v))
    for root in sorted(classes, key=lambda r: (r[0], gc.polytopes[r[0]].vertex_index(r[1]))):
        members = classes[root]
        disks = len(members)
        sides = [s for d in members for s in disk_sides[d]]
        corners = set()
        for ci, v, fi in sides:
            prev_v, next_v = face_neighbors(gc.polytopes[ci], fi, v)
            corners.add(corner_uf.find((ci, v, frozenset((v, prev_v)))))
            corners.add(corner_uf.find((ci, v, frozenset((v, next_v)))))
        link_edges = len({side_uf.find(s) for s in sides})
        link_closed = all(side_matched[s] for s in sides)
        connected = disk_uf.class_count(members) == 1
        euler_link = disks - link_edges + len(corners)
        rep = min(members, key=lambda d: (d[0], gc.polytopes[d[0]].vertex_index(d[1])))
        links.append(VertexLinkReport(rep, disks, euler_link, connected, link_closed))

    # orientability with the given copy signs
    orientable = True
    try:
        orientations = _copy_orientations(gc)
    except ValueError as exc:
        problems.append(f"copy boundary not orientable: {exc}")
        orientable = False
    else:
        bad = [
            m.name
            for m in usable_matches
            if not match_is_orientation_reversing(gc, m, orientations)
        ]
        if bad:
            orientable = False
            problems.append(f"orientation-incompatible matches: {bad}")

    return ManifoldReport(
        cells=cells,
        quotient_vertices=quotient_vertices,
        quotient_edges=quotient_edges,
        quotient_faces=quotient_faces,
        euler_characteristic=euler,
        closed=closed,
        orientable=orientable,
        vertex_links=links,
        problems=problems,
    )


# ---------------------------------------------------------------------------
# the two bespoke triangulators
# ---------------------------------------------------------------------------
# The triangulators as they stood before lobfib.triangulate replaced them,
# kept verbatim so that tests/test_triangulate.py can require identical
# gluing tables and tetrahedron vertices from the old and the new code.

def _set_glue(
    tets: list[list[str]],
    gluings: list[list[Optional[Gluing]]],
    slot_a: tuple[int, int],
    slot_b: tuple[int, int],
    face_map: dict[str, str],
) -> None:
    """Record the gluing of slot_a onto slot_b given the bijection between
    the two triangles' vertices; also records the inverse gluing."""
    inverse = {w: v for v, w in face_map.items()}
    for (ta, fa), (tb, fb), vmap in (
        (slot_a, slot_b, face_map),
        (slot_b, slot_a, inverse),
    ):
        perm = [0, 0, 0, 0]
        for k, v in enumerate(tets[ta]):
            perm[k] = fb if k == fa else tets[tb].index(vmap[v])
        gluings[ta][fa] = (tb, fb, tuple(perm))


def _identity_on(vertices) -> dict[str, str]:
    return {v: v for v in vertices}


def triangulate_fibonacci(n: int) -> Triangulation:
    """Cone Y(n) from Q and glue along the pairing s_1..s_2n (3n tetrahedra)."""
    p = build_fibonacci_polytope(n)
    pairing = fibonacci_pairing(p)
    edge_to_faces = edge_faces(p)
    has_apex = ["Q" in face for face in p.faces]
    name_of = {fi: name for name, fi in p.face_labels.items()}

    tets: list[list[str]] = []
    labels: list[dict] = []
    tet_of_base: dict[int, int] = {}
    for fi, face in enumerate(p.faces):
        if has_apex[fi]:
            continue
        k = min(range(3), key=lambda j: p.vertex_index(face[j]))
        base = face[k:] + face[:k]
        tet_of_base[fi] = len(tets)
        labels.append({"base": name_of[fi], "vertices": ["Q", *base]})
        tets.append(["Q", *base])

    # where each tetrahedron face sits: its own base triangle, a polytope
    # face containing Q, or an internal cone wall over a base edge
    face_slot: dict[int, tuple[int, int]] = {}
    walls: dict[frozenset, list[tuple[int, int]]] = {}
    for fi, t in tet_of_base.items():
        face_slot[fi] = (t, 0)
        base = tets[t][1:]
        for f in (1, 2, 3):
            e = frozenset(base[j] for j in range(3) if j != f - 1)
            other = next(g for g in edge_to_faces[e] if g != fi)
            if has_apex[other]:
                face_slot[other] = (t, f)
            else:
                walls.setdefault(e, []).append((t, f))

    gluings: list[list[Optional[Gluing]]] = [[None] * 4 for _ in tets]
    for e, slots in walls.items():
        a, b = slots
        _set_glue(tets, gluings, a, b, _identity_on({"Q", *e}))
    for m in pairing.matches:
        (_, fi), (_, fj) = m.source, m.target
        _set_glue(tets, gluings, face_slot[fi], face_slot[fj], m.vertex_map)
    return Triangulation(gluings, labels=labels)


def triangulate_lobell(c: FaceColoring) -> Triangulation:
    """Fan-and-cone subdivision of the 8-copy assembly of R(n), glued across
    copies by the coloring (32(2n - 1) tetrahedra)."""
    p = build_lobell_polytope(c.n)
    report = validate_coloring(p, c)
    if not report.ok:
        bad = [name for name, passed, _ in report.checks if not passed]
        raise ValueError(f"coloring of R({c.n}) is not valid: fails {bad}")
    label_of = {fi: int(lab) for lab, fi in p.face_labels.items()}

    fans: list[list[tuple[str, str, str]]] = []
    for face in p.faces:
        k = min(range(len(face)), key=lambda j: p.vertex_index(face[j]))
        cyc = face[k:] + face[:k]
        fans.append([(cyc[0], cyc[j], cyc[j + 1]) for j in range(1, len(cyc) - 1)])

    tets: list[list[str]] = []
    labels: list[dict] = []
    tet_index: dict[tuple[int, int, int], int] = {}
    for cid in range(8):
        apex = f"apex{cid}"
        for fi, fan in enumerate(fans):
            for k, tri in enumerate(fan):
                tet_index[(cid, fi, k)] = len(tets)
                labels.append(
                    {"copy": cid, "face": fi, "fan": k, "vertices": [apex, *tri]}
                )
                tets.append([apex, *tri])

    gluings: list[list[Optional[Gluing]]] = [[None] * 4 for _ in tets]

    # cone walls inside each copy, over polytope edges and fan diagonals
    walls: dict[tuple[int, frozenset], list[tuple[int, int]]] = {}
    for (cid, fi, k), t in tet_index.items():
        tri = tets[t][1:]
        for f in (1, 2, 3):
            e = frozenset(tri[j] for j in range(3) if j != f - 1)
            walls.setdefault((cid, e), []).append((t, f))
    for (cid, e), slots in walls.items():
        a, b = slots
        _set_glue(tets, gluings, a, b, _identity_on({f"apex{cid}", *e}))

    # boundary triangles glued across copies by the coloring
    for fi, fan in enumerate(fans):
        color = c.colors[label_of[fi]]
        for g in GROUP8:
            gi, hi = group_index(g), group_index(g + color)
            if gi < hi:
                for k in range(len(fan)):
                    ta, tb = tet_index[(gi, fi, k)], tet_index[(hi, fi, k)]
                    gluings[ta][0] = (tb, 0, (0, 1, 2, 3))
                    gluings[tb][0] = (ta, 0, (0, 1, 2, 3))
    return Triangulation(gluings, labels=labels)


# ---------------------------------------------------------------------------
# the json.dumps export
# ---------------------------------------------------------------------------

def export_triangulation_oracle(tri: Triangulation) -> str:
    """The gluing table as json.dumps writes it with indent=2, plus a newline."""
    return json.dumps({"tetCount": tri.tet_count, "gluings": tri.gluings}, indent=2) + "\n"
