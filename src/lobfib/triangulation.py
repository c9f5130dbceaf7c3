"""Singular triangulations of the glued manifolds, and their verification.

A triangulation is a list of tetrahedra, each with its four faces glued to
faces of other tetrahedra.  Face f of a tetrahedron is the one opposite
vertex f.  A gluing entry (t', f', perm) at face f of tetrahedron t says
that face is identified with face f' of t'; perm is a permutation of
(0, 1, 2, 3) sending each vertex of t to a vertex of t', with perm[f] = f'.
Gluings must be mutually inverse.  The JSON serialization is

    {"tetCount": N, "gluings": [[[t', f', [p0, p1, p2, p3]], ...x4], ...xN]}

with an entry of null for an unglued face.  export_triangulation writes it
from one fixed template per entry, and its bytes equal those of
json.dumps(..., indent=2) plus a newline; import_triangulation reads it with
json.loads.

triangulate fans every face of a GluedComplex and cones each copy from the
vertex apex, or from a fresh vertex apex<copy>: one tetrahedron [cone,
*triangle] per fan triangle of each face avoiding the cone, ordered by copy,
face and fan.  A face through the cone is fanned from it, any other from its
least-index vertex, except that a match carries the fan of its face through
the cone, or else of its source, to its partner; triangles run in their
face's cyclic order from their least-index vertex, so a carried triangle's
image is reversed when the match's turn is against the partner's cycle.
Cone walls are glued by the identity, matched triangles by the match's
vertex map.  Fresh apexes give 8n - 4 tetrahedra per copy of R(n),
32(2n - 1) in all; Y(n) coned from Q, 3n.

verify_triangulation checks the gluing axioms, the quotient cell counts and
Euler characteristic, that every vertex link is a sphere (connected by
construction), orientability (tetrahedra admit signs such that same-sign
gluings are odd permutations) and that the quotient is neither empty nor
disconnected, naming faces glued to themselves and edges glued to
themselves in reverse.  Signs and components come from one pass of
polytope._signed_components, each usable gluing weighted by _WEIGHT[perm].
Like verify_closed_manifold it ends in the one report builder
gluing._manifold_report, handing it each usable gluing once in the ids
4t + i for vertex i of tetrahedron t and 12t + k for its darts: darts 2k
and 2k + 1 run from i to j and back along the k-th edge ij, i < j, in
lexicographic order, so dart d reverses to d ^ 1 as every dart id in the
package does.  The dart from i to j is also the corner of vertex i's link
towards j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations
from typing import Optional

from .coloring import FaceColoring
from .gluing import (
    GluedComplex,
    ManifoldReport,
    Slot,
    StructureError,
    _manifold_report,
    _match_turn,
    assemble_fibonacci,
    assemble_lobell,
)
from .polytope import _signed_components

Gluing = tuple[int, int, tuple[int, int, int, int]]


class TriangulationFormatError(ValueError):
    """A serialized triangulation does not fit the expected shape."""


@dataclass
class Triangulation:
    """Face-gluing table: gluings[t][f] describes face f of tetrahedron t.

    The constructor turns entries and perms given as lists into tuples, and
    raises TriangulationFormatError unless every row holds 4 entries, each
    None or (t', f', perm) with 4 items in perm, all of type int."""

    gluings: list[list[Optional[Gluing]]]
    labels: Optional[list[dict]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        rows = self.gluings
        if _writable(rows):  # as triangulate and import_triangulation build them
            return
        for t, row in enumerate(rows):
            try:  # entries and perms given as lists become tuples, of any length
                if len(row) != 4:
                    raise TriangulationFormatError(
                        f"tetrahedron {t} has {len(row)} face entries instead of 4"
                    )
                rows[t] = [None if e is None else (*e[:-1], tuple(e[-1])) for e in row]
            except (TypeError, IndexError, KeyError):  # a row, entry or perm that is no sequence
                break
        if not _writable(rows):
            raise TriangulationFormatError(f"gluings are malformed: {_SHAPE}")

    @property
    def tet_count(self) -> int:
        return len(self.gluings)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# the export's fixed templates: a glued entry and an unglued one, indented
# as json.dumps(..., indent=2) indents them at depth 3
_ENTRY = (
    "      [\n        %d,\n        %d,\n        [\n"
    "          %d,\n          %d,\n          %d,\n          %d\n        ]\n      ]"
)
_NULL = "      null"
_SHAPE = (  # what the constructor takes and the writer writes
    "each tetrahedron needs 4 entries, each None or (tet, face, perm) "
    "with 4 items in perm, all of type int"
)


def _writable(rows: list) -> bool:
    """Whether rows have the shape the constructor ensures: lists of 4
    entries, each None or a (t', f', perm) tuple with a 4-tuple perm, all of
    type int.  The templates write exactly these as json does; %d would write
    a bool or a float as another number.  Checked a layer at a time with
    set(map(...)), so no Python code runs per int."""
    if not {*map(type, rows)} <= {list} or not {*map(len, rows)} <= {4}:
        return False
    glued = [entry for row in rows for entry in row if entry is not None]
    if not {*map(type, glued)} <= {tuple} or not {*map(len, glued)} <= {3}:
        return False
    items = list(chain.from_iterable(glued))  # t', f', perm of each entry in turn
    perms = items[2::3]
    if not {*map(type, perms)} <= {tuple} or not {*map(len, perms)} <= {4}:
        return False
    return {
        *map(type, items[0::3]), *map(type, items[1::3]), *map(type, chain.from_iterable(perms))
    } <= {int}


def export_triangulation(tri: Triangulation) -> str:
    """The JSON form, written from the fixed templates _ENTRY and _NULL; its
    bytes equal json.dumps({"tetCount": N, "gluings": ...}, indent=2) + "\\n".

    Raises TriangulationFormatError, and writes nothing, unless every row
    holds 4 entries, each None or a (t', f', perm) tuple with a 4-tuple perm,
    all of type int.
    """
    rows = tri.gluings
    if not _writable(rows):
        raise TriangulationFormatError(f"cannot write gluings: {_SHAPE}")
    if not rows:
        return '{\n  "tetCount": 0,\n  "gluings": []\n}\n'
    body = ",\n".join([
        "    [\n%s\n    ]" % ",\n".join([
            _NULL if entry is None else _ENTRY % (entry[0], entry[1], *entry[2])
            for entry in row
        ])
        for row in rows
    ])
    # join sizes the text once; % would grow its buffer while copying the
    # megabytes of body in (Löbell pipeline peak RSS +4 %)
    return "".join(('{\n  "tetCount": %d,\n  "gluings": [\n' % len(rows), body, "\n  ]\n}\n"))


def import_triangulation(text: str) -> Triangulation:
    """Parse and shape-check the JSON form; raises TriangulationFormatError
    with the offending location on any malformed entry."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise TriangulationFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise TriangulationFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise TriangulationFormatError("top level must be an object")
    for key in ("tetCount", "gluings"):
        if key not in data:
            raise TriangulationFormatError(f"missing key {key!r}")
    count = data["tetCount"]
    if type(count) is not int or count < 0:
        raise TriangulationFormatError(f"tetCount must be a non-negative integer, got {count!r}")
    rows = data["gluings"]
    if not isinstance(rows, list):
        raise TriangulationFormatError("gluings must be a list")
    if len(rows) != count:
        raise TriangulationFormatError(
            f"tetCount is {count} but gluings lists {len(rows)} tetrahedra"
        )
    # JSON numbers load as int, bool or float, and True == 1 == 1.0, so every
    # index is type-tested; a permutation is tested before it is hashed
    for t, row in enumerate(rows):
        if type(row) is not list or len(row) != 4:
            raise TriangulationFormatError(f"gluings[{t}] must list 4 face gluings")
        for f, entry in enumerate(row):
            if entry is None:
                continue
            if type(entry) is not list or len(entry) != 3:
                raise TriangulationFormatError(f"gluings[{t}][{f}] must be [tet, face, perm] or null")
            t2, f2, perm = entry
            if type(t2) is not int or not 0 <= t2 < count:
                raise TriangulationFormatError(
                    f"gluings[{t}][{f}] references tetrahedron {t2!r} of {count}"
                )
            if type(f2) is not int or not 0 <= f2 < 4:
                raise TriangulationFormatError(f"gluings[{t}][{f}] references face {f2!r} of 4")
            if (
                type(perm) is not list
                or not all(type(x) is int for x in perm)
                or tuple(perm) not in _INVERSE
            ):
                raise TriangulationFormatError(
                    f"gluings[{t}][{f}] permutation {perm!r} is not a permutation of 0..3"
                )
            row[f] = (t2, f2, tuple(perm))
    return Triangulation(rows)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _glue(tets: list[list[str]], gluings: list, a: Slot, b: Slot, vmap: Optional[dict]) -> None:
    """Glue slot a onto slot b, carrying the vertices of a's triangle by vmap
    (the identity when None), and b back onto a by the inverse."""
    (ta, fa), (tb, fb) = a, b
    image = tets[tb]
    perm = tuple([
        fb if k == fa else image.index(v if vmap is None else vmap[v])
        for k, v in enumerate(tets[ta])
    ])
    gluings[ta][fa] = (tb, fb, perm)
    gluings[tb][fb] = (ta, fa, _INVERSE[perm])


def triangulate(gc: GluedComplex, apex: Optional[str] = None) -> Triangulation:
    """Fan the faces of every copy of gc and cone each copy from the vertex
    apex, or from a fresh vertex apex<copy> when apex is None.  The
    tetrahedron over fan triangle k of face fi of copy c is labelled
    {"copy": c, "face": fi, "fan": k, "vertices": [cone, *triangle]}.

    Raises StructureError naming a match whose vertex map does not carry
    the fan of one of its faces onto triangles of the other.
    """
    cones = [f"apex{c}" if apex is None else apex for c in range(gc.copies)]
    through = [[cone in face for face in p.faces] for cone, p in zip(cones, gc.polytopes)]
    fans = {}  # (copy, face) -> triangles
    for c, p in enumerate(gc.polytopes):
        for fi, face in enumerate(p.faces):
            k = face.index(cones[c] if through[c][fi] else min(face, key=p.vertex_index))
            cyc = face[k:] + face[:k]
            fans[c, fi] = [(cyc[0], cyc[j], cyc[j + 1]) for j in range(1, len(cyc) - 1)]

    # each match glues the fan of one face (a) onto its image in the other
    # (b), which takes that fan unless b is fanned from the cone vertex itself;
    # the match's turn says whether an image triangle runs along b's cycle
    carried = []
    for m in gc.pairing.matches:
        turn = _match_turn(gc, m)  # raises StructureError on a malformed match
        a, b, vmap = m.source, m.target, m.vertex_map
        if through[b[0]][b[1]] and not through[a[0]][a[1]]:
            a, b, vmap = b, a, m.inverse_map()
        if not through[b[0]][b[1]]:
            index = gc.polytopes[b[0]].vertex_index
            fans[b] = []
            for tri in fans[a]:
                img = [vmap[v] for v in (tri if turn > 0 else tri[::-1])]
                k = img.index(min(img, key=index))
                fans[b].append((*img[k:], *img[:k]))
        carried.append((a, b, vmap, m.name))

    tets: list[list[str]] = []
    labels: list[dict] = []
    first: dict[Slot, int] = {}  # fan triangle k of a face is tetrahedron first + k
    for (c, fi), fan in fans.items():
        if through[c][fi]:
            continue
        first[c, fi] = len(tets)
        for k, (x, y, z) in enumerate(fan):
            tets.append([cones[c], x, y, z])
            labels.append({"copy": c, "face": fi, "fan": k, "vertices": tets[-1]})
    # a pass of its own: wall keys allocated between the labels would pin
    # their memory after the walls are freed (Löbell pipeline peak RSS +3 %)
    walls: dict[tuple[int, str, str], list[Slot]] = {}  # (copy, u, v) with u < v
    for t, (_, x, y, z) in enumerate(tets):
        c = labels[t]["copy"]
        for f, (u, v) in ((1, (y, z)), (2, (x, z)), (3, (x, y))):
            walls.setdefault((c, u, v) if u < v else (c, v, u), []).append((t, f))

    gluings: list[list[Optional[Gluing]]] = [[None] * 4 for _ in tets]
    for slots in walls.values():
        if len(slots) == 2:
            _glue(tets, gluings, slots[0], slots[1], None)

    def slot(s: Slot, k: int, tri) -> Optional[Slot]:
        """Where triangle k of the fan of face s lies: on the base of a cone
        tetrahedron, or, through the cone vertex, on the one wall over the
        opposite edge."""
        if not through[s[0]][s[1]]:
            return first[s] + k, 0
        wall = walls.get((s[0], *sorted(v for v in tri if v != cones[s[0]])), ())
        return wall[0] if len(wall) == 1 else None

    for a, b, vmap, name in carried:
        for k, tri in enumerate(fans[a]):
            image = slot(b, k, map(vmap.__getitem__, tri))
            if image is None:
                raise StructureError(
                    f"match {name} does not carry the fan of face slot {a} "
                    f"onto triangles of face slot {b}"
                )
            _glue(tets, gluings, slot(a, k, tri), image, vmap)
    return Triangulation(gluings, labels=labels)


def triangulate_fibonacci(n: int) -> Triangulation:
    """Cone Y(n) from Q and glue along the pairing s_1..s_2n (3n tetrahedra)."""
    return triangulate(assemble_fibonacci(n), apex="Q")


def triangulate_lobell(c: FaceColoring) -> Triangulation:
    """Fan-and-cone subdivision of the 8-copy assembly of R(n), glued across
    copies by the coloring (32(2n - 1) tetrahedra)."""
    return triangulate(assemble_lobell(c))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_INVERSE = {
    perm: tuple(perm.index(i) for i in range(4)) for perm in permutations(range(4))
}
# sign(t) - sign(t2) mod 2 that a gluing by perm asks for: 0 iff perm is odd
_WEIGHT = {
    perm: 1 - sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)) % 2
    for perm in _INVERSE
}
_ON_FACE = tuple(tuple(i for i in range(4) if i != f) for f in range(4))
# the ends (i, j) of the darts 0..11 of a tetrahedron
_TET_DARTS = tuple(dart for i, j in combinations(range(4), 2) for dart in ((i, j), (j, i)))
# what gluing face f by perm identifies, in tetrahedron-local ids: the
# vertex pairs (i, perm[i]) and, per edge i < j of the face, the dart pairs
# ((i, j), (perm[i], perm[j]))
_IDENTIFIED = {
    (f, p): (
        tuple((i, p[i]) for i in _ON_FACE[f]),
        tuple(
            (_TET_DARTS.index((i, j)), _TET_DARTS.index((p[i], p[j])))
            for i, j in combinations(_ON_FACE[f], 2)
        ),
    )
    for f in range(4)
    for p in _INVERSE
}


def verify_triangulation(tri: Triangulation) -> ManifoldReport:
    """Check the gluing axioms and that the quotient is a closed connected
    orientable 3-manifold; every failed condition is reported.  Raises
    TriangulationFormatError, as the constructor does, only when tri.gluings
    was edited after construction into a shape the constructor refuses and
    that shape stops the check."""
    problems: list[str] = []
    rows, count = tri.gluings, tri.tet_count

    # the unglued faces; the usable gluings (t, f, t2, perm), each taken once,
    # from (t, f) <= (t2, f2); the vertex ids of link sides glued to nothing,
    # and of those a face glued to itself fixes
    unglued: list[tuple[int, int]] = []
    glued: list[tuple[int, int, int, tuple]] = []
    opened: list[int] = []
    fixed: list[int] = []
    try:  # a table edited after construction may be out of shape
        for t, row in enumerate(rows):
            for f, entry in zip(range(4), row, strict=True):
                if entry is None:
                    unglued.append((t, f))
                    opened.extend(4 * t + i for i in _ON_FACE[f])
                    continue
                # usable: it references a tetrahedron, its perm sends face f
                # to the face it names, and the inverse perm mirrors it there
                t2, f2, perm = entry
                if not 0 <= t2 < count:
                    problem = f" references tetrahedron {t2}"
                elif perm not in _INVERSE:
                    problem = f": {perm} is not a permutation of 0..3"
                elif perm[f] != f2:
                    problem = f": perm {perm} sends face {f} to {perm[f]}, not to face {f2}"
                elif rows[t2][f2] != (t, f, _INVERSE[perm]):
                    problem = f" is not mirrored by tet {t2} face {f2}"
                else:
                    if (t2, f2) == (t, f):
                        problems.append(f"face {f} of tet {t} is glued to itself")
                        fixed.extend(4 * t + i for i in _ON_FACE[f] if perm[i] == i)
                    if (t, f) <= (t2, f2):
                        glued.append((t, f, t2, perm))
                    continue
                problems.append(f"gluing of tet {t} face {f}{problem}")
                opened.extend(4 * t + i for i in _ON_FACE[f])
    except (TypeError, ValueError, IndexError):
        if _writable(rows):
            raise
        raise TriangulationFormatError(f"gluings are malformed: {_SHAPE}") from None
    closed = not unglued
    if unglued:
        shown = ", ".join(map(str, unglued[:8])) + ("..." if len(unglued) > 8 else "")
        problems.insert(0, f"unglued faces: {shown}")

    orientable, components = _signed_components(
        count, ((t, t2, _WEIGHT[perm]) for t, _, t2, perm in glued)
    )
    if not orientable:
        problems.append(
            "no assignment of tetrahedron orientations makes every gluing compatible"
        )
    return _manifold_report(
        [3] * (4 * count),
        [4 * t + i for t in range(count) for i, _ in _TET_DARTS],
        [(4 * t, 4 * t2, 12 * t, 12 * t2, *_IDENTIFIED[f, perm]) for t, f, t2, perm in glued],
        fixed + opened, opened,
        count, len(glued) + len(unglued), closed, orientable, components, problems,
        lambda v: (v >> 2, v & 3),
        lambda d: "edge %d%d of tet %d" % (*_TET_DARTS[d % 12], d // 12),
    )
