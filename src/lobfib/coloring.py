"""Face colorings of R(n) over (Z/2)^3 and the associated presentations.

A coloring assigns to every face of R(n) one of the four vectors

    alpha = (1,0,0)   beta = (0,1,0)   gamma = (0,0,1)   delta = (1,1,1)

of (Z/2)^3.  It is valid when it is proper (faces sharing an edge get
different colors), the colors of the three faces around every vertex are
linearly independent over Z/2, and the used colors generate all of (Z/2)^3.
A valid coloring defines a surjection of the right-angled reflection group
G(n) of R(n) onto (Z/2)^3 (reflection in a face goes to the face's color)
whose kernel is torsion free and orientation preserving of index 8; gluing
8 copies of R(n) along that recipe closes them up into a manifold.

The module also carries the two finitely presented groups that appear
alongside the constructions: G(n), generated by the 2n+2 face reflections
with one involution per face and one commutator per edge, and the cyclically
presented groups F(2, m) with relators x_i x_(i+1) = x_(i+2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .polytope import CheckReport, CombinatorialPolytope


# ---------------------------------------------------------------------------
# colors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Z2Vector3:
    """A vector of (Z/2)^3, the coloring alphabet and the gluing group."""

    bits: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.bits) != 3 or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"not a (Z/2)^3 vector: {self.bits!r}")

    def __add__(self, other: "Z2Vector3") -> "Z2Vector3":
        return Z2Vector3(tuple((a + b) % 2 for a, b in zip(self.bits, other.bits)))

    @property
    def name(self) -> str:
        return _NAME_OF[self]

    @staticmethod
    def from_name(name: str) -> "Z2Vector3":
        try:
            return _COLOR_OF[name]
        except KeyError:
            raise ValueError(f"unknown color name: {name!r}") from None


ALPHA = Z2Vector3((1, 0, 0))
BETA = Z2Vector3((0, 1, 0))
GAMMA = Z2Vector3((0, 0, 1))
DELTA = Z2Vector3((1, 1, 1))
COLORS = (ALPHA, BETA, GAMMA, DELTA)

_COLOR_OF = {"alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "delta": DELTA}
_NAME_OF = {v: k for k, v in _COLOR_OF.items()}

GROUP8 = tuple(
    Z2Vector3((b0, b1, b2)) for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)
)


def group_index(g: Z2Vector3) -> int:
    """Position of g in the fixed enumeration of (Z/2)^3 (bit0 weighs 4)."""
    return g.bits[0] * 4 + g.bits[1] * 2 + g.bits[2]


def z2_rank(vectors) -> int:
    """Rank over Z/2 of a collection of Z2Vector3, by Gaussian elimination."""
    basis: list[int] = []
    for v in vectors:
        x = v.bits[0] * 4 + v.bits[1] * 2 + v.bits[2]
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

@dataclass
class FaceColoring:
    """Assignment of one color to every face of R(n), keyed by face label."""

    n: int
    colors: dict[int, Z2Vector3]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "colors": {str(lab): col.name for lab, col in sorted(self.colors.items())},
        }

    @staticmethod
    def from_json(text: str) -> "FaceColoring":
        try:
            # objects as tuples of (key, value) pairs, keeping repeated keys
            doc = json.loads(text, object_pairs_hook=tuple)
        except RecursionError:
            raise ValueError("coloring document is nested too deeply") from None
        doc = dict(doc) if isinstance(doc, tuple) else {}
        if "n" not in doc or "colors" not in doc:
            raise ValueError("coloring document needs fields 'n' and 'colors'")
        n = doc["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("coloring field 'n' must be an integer")
        if not isinstance(doc["colors"], tuple):
            raise ValueError("coloring field 'colors' must map face labels to color names")
        colors = {}
        for key, name in doc["colors"]:
            if not isinstance(name, str):
                raise ValueError(f"color of face {key} must be a color name, got {name!r}")
            try:
                label = int(key)
            except ValueError:
                raise ValueError(f"face label {key!r} must be an integer") from None
            if label in colors:
                raise ValueError(f"face {label} is given twice")
            colors[label] = Z2Vector3.from_name(name)
        return FaceColoring(n, colors)


def _label_by_index(p: CombinatorialPolytope) -> dict[int, int]:
    """face index -> integer face label (labels of R(n) are '1'..'2n+2')."""
    return {fi: int(lab) for lab, fi in p.face_labels.items()}


def _faces_at_vertex(p: CombinatorialPolytope) -> dict[str, list[int]]:
    """vertex -> indices of the faces through it, in increasing order, a face
    as often as its cycle passes the vertex."""
    at_vertex: dict[str, list[int]] = {v: [] for v in p.vertices}
    for fi, f in enumerate(p.faces):
        for v in f:
            at_vertex[v].append(fi)
    return at_vertex


def validate_coloring(p: CombinatorialPolytope, c: FaceColoring) -> CheckReport:
    """Check the four validity conditions of a coloring of p.

    total:              the colored labels are exactly the face labels of p
    proper:             faces sharing an edge receive different colors
    vertex_independent: the colors around each vertex are independent in (Z/2)^3
    surjective:         the used colors generate all of (Z/2)^3
    """
    checks: list[tuple[str, bool, str]] = []
    lab = _label_by_index(p)

    labels = set(lab.values())
    missing = sorted(labels - c.colors.keys())
    extra = [label for label in c.colors if label not in labels]
    total = not missing and not extra
    checks.append(
        ("total", total, f"colored labels must be the faces: missing {missing}, extra {extra}")
    )
    if not total:
        return CheckReport(checks)

    improper = []
    for pair in p.adjacent_face_pairs():
        x, y = tuple(pair)
        if c.colors[lab[x]] == c.colors[lab[y]]:
            improper.append((lab[x], lab[y]))
    checks.append(("proper", not improper, f"equal colors across an edge: {sorted(improper)}"))

    at_vertex = _faces_at_vertex(p)
    dependent = []
    for v in p.vertices:
        around = [c.colors[lab[fi]] for fi in at_vertex[v]]
        if z2_rank(around) != len(around):
            dependent.append(v)
    checks.append(("vertex_independent", not dependent, f"dependent corners at: {dependent}"))

    used = set(c.colors.values())
    checks.append(
        ("surjective", z2_rank(used) == 3, f"colors used span rank {z2_rank(used)} != 3")
    )
    return CheckReport(checks)


# rank over Z/2 of the set of COLORS whose indices are the set bits of a mask
_RANK_OF_MASK = tuple(
    z2_rank(COLORS[ci] for ci in range(4) if mask >> ci & 1) for mask in range(16)
)


def enumerate_colorings(
    p: CombinatorialPolytope, limit: Optional[int] = None
) -> list[FaceColoring]:
    """All valid colorings of p, in the canonical backtracking order.

    Faces are colored in increasing face-index order and colors tried in the
    fixed order alpha, beta, gamma, delta; the first completion is therefore
    the canonical coloring of p.  ``limit`` truncates the enumeration
    (limit=0 gives the empty list).

    The search is forward-checked: every uncolored face keeps a bitmask of
    the colors its colored neighbours leave it, and a branch is abandoned as
    soon as one of those masks empties, not when the search reaches that
    face.  Each condition of :func:`validate_coloring` is enforced where it
    becomes decidable:

    total               by construction, one color per face index;
    proper              by the masks, a face only takes a color still allowed;
    vertex_independent  when the last face around a vertex (highest index,
                        counted with multiplicity) is colored; a vertex on
                        no face passes;
    surjective          at each leaf, on the set of colors used.

    The results are therefore exactly the valid colorings, and exactly in the
    order of a plain backtracking search with a final validity check.  The
    search keeps an explicit stack, so large n is fine.
    """
    if limit is not None and limit <= 0:
        return []
    lab = _label_by_index(p)
    count_faces = len(p.faces)
    later: list[list[int]] = [[] for _ in range(count_faces)]
    for pair in p.adjacent_face_pairs():
        x, y = sorted(pair)
        later[x].append(y)

    # the faces around each vertex, filed under the last of them
    closes: list[list[list[int]]] = [[] for _ in range(count_faces)]
    for around in _faces_at_vertex(p).values():
        if around:
            closes[around[-1]].append(around)

    allowed = [0b1111] * count_faces  # bit ci: color ci still possible
    bit = [0] * count_faces  # 1 << color index, per colored face
    undo: list[tuple[int, int]] = []  # (face, its mask before a clear)
    marks: list[int] = []  # len(undo) when each colored face took its color
    results: list[FaceColoring] = []

    def restore(mark: int) -> None:
        while len(undo) > mark:
            g, old = undo.pop()
            allowed[g] = old

    fi = ci = 0
    while True:
        if fi == count_faces:
            used = 0
            for b in bit:
                used |= b
            if _RANK_OF_MASK[used] == 3:
                results.append(FaceColoring(
                    p.n if p.n is not None else 0,
                    {lab[k]: COLORS[bit[k].bit_length() - 1] for k in range(count_faces)},
                ))
                if limit is not None and len(results) >= limit:
                    return results
            ci = 4
        else:
            rest = allowed[fi] >> ci  # the colors from ci on still allowed
            ci = ci + (rest & -rest).bit_length() - 1 if rest else 4
        if ci == 4:  # nothing left to try here: backtrack
            if fi == 0:
                return results
            fi -= 1
            restore(marks.pop())
            ci = bit[fi].bit_length()  # the color after the one it had
            continue

        b = 1 << ci
        mark = len(undo)
        ok = True
        for g in later[fi]:
            old = allowed[g]
            if old & b:
                undo.append((g, old))
                allowed[g] = old ^ b
                if old == b:
                    ok = False
                    break
        if ok:
            bit[fi] = b
            for around in closes[fi]:
                used = 0
                for g in around:
                    used |= bit[g]
                if _RANK_OF_MASK[used] != len(around):
                    ok = False
                    break
        if ok:
            marks.append(mark)
            fi += 1
            ci = 0
        else:
            restore(mark)
            ci += 1


def canonical_coloring(p: CombinatorialPolytope) -> FaceColoring:
    """First valid coloring in the fixed enumeration order."""
    found = enumerate_colorings(p, limit=1)
    if not found:
        raise ValueError(f"no valid coloring exists for this polytope (n={p.n})")
    return found[0]


def known_lobell6_coloring() -> FaceColoring:
    """A hand-checked valid coloring of R(6), kept as a regression fixture.

    Both bases get alpha; the upper pentagon ring runs beta, gamma, delta
    twice and the lower ring the same pattern shifted by one.
    """
    ring_upper = [BETA, GAMMA, DELTA, BETA, GAMMA, DELTA]
    ring_lower = [GAMMA, DELTA, BETA, GAMMA, DELTA, BETA]
    colors = {i + 1: ring_upper[i] for i in range(6)}
    colors.update({i + 7: ring_lower[i] for i in range(6)})
    colors[13] = ALPHA
    colors[14] = ALPHA
    return FaceColoring(6, colors)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

Word = list[tuple[str, int]]


@dataclass
class GroupPresentation:
    """Finite presentation: generator names and relator words.

    A relator is a list of (generator, exponent) pairs with exponent +-1.
    """

    generators: list[str]
    relators: list[Word]

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [[[g, e] for g, e in w] for w in self.relators],
        }

    def as_text(self) -> str:
        def word(w: Word) -> str:
            if len(w) == 2 and w[0] == w[1] and w[0][1] == 1:
                return f"{w[0][0]}^2"
            if (
                len(w) == 4
                and w[0][1] == 1 and w[1][1] == 1 and w[2][1] == -1 and w[3][1] == -1
                and w[0][0] == w[2][0] and w[1][0] == w[3][0]
            ):
                return f"[{w[0][0]},{w[1][0]}]"
            return " ".join(g if e == 1 else f"{g}^-1" for g, e in w)

        gens = ", ".join(self.generators)
        rels = ", ".join(word(w) for w in self.relators)
        return f"< {gens} : {rels} >"


def _commutator(a: str, b: str) -> Word:
    return [(a, 1), (b, 1), (a, -1), (b, -1)]


def presentation_G(n: int) -> GroupPresentation:
    """Reflection group of R(n): one involution per face, one commutator per
    edge of R(n) (2n+2 involutions and 6n commutators)."""
    if n < 5:
        raise ValueError("Andreev condition fails below n=5")
    gens = [f"g{i}" for i in range(1, 2 * n + 3)]

    def g(i: int) -> str:
        return f"g{i}"

    relators: list[Word] = [[(x, 1), (x, 1)] for x in gens]
    for i in range(1, n + 1):
        relators.append(_commutator(g(2 * n + 1), g(i)))
    for i in range(1, n + 1):
        relators.append(_commutator(g(2 * n + 2), g(n + i)))
    for i in range(1, 2 * n):
        relators.append(_commutator(g(i), g(i + 1)))
    relators.append(_commutator(g(1), g(n)))
    for i in range(1, n + 1):
        relators.append(_commutator(g(i), g(n + i)))
    relators.append(_commutator(g(n + 1), g(2 * n)))
    for i in range(1, n):
        relators.append(_commutator(g(i), g(n + 1 + i)))
    return GroupPresentation(gens, relators)


def presentation_F2(m: int) -> GroupPresentation:
    """Cyclic presentation F(2, m): generators x1..xm, relators
    x_i x_(i+1) x_(i+2)^-1 with indices mod m."""
    if m < 3:
        raise ValueError("cyclic presentation needs at least 3 generators")

    def x(i: int) -> str:
        return f"x{(i - 1) % m + 1}"

    gens = [x(i) for i in range(1, m + 1)]
    relators: list[Word] = [
        [(x(i), 1), (x(i + 1), 1), (x(i + 2), -1)] for i in range(1, m + 1)
    ]
    return GroupPresentation(gens, relators)
