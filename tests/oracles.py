"""Independent oracles used to freeze expected values in the test suite.

Each oracle deliberately takes a different computational route from the
library so that agreement is evidence, not tautology:

* lobachevsky_oracle integrates -log|2 sin t| directly, pulling the
  endpoint singularity to -infinity with the substitution t = e^u (the
  library instead subtracts the singularity in closed form);
* lobachevsky_clausen goes through mpmath's Clausen function Cl_2, and
  lobell_volume_clausen / fibonacci_volume_clausen evaluate the volume
  formulas, angles included, at 30 digits on the same route;
* coloring_count_oracle brute-forces colorings in reverse face order with
  its own adjacency and rank computations.
"""

from __future__ import annotations

import math

import mpmath
from scipy.integrate import quad


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
    reverse index order, and validity (properness, rank-3 triples at every
    vertex, rank-3 image) is checked with local bit arithmetic.
    """
    faces = [set(face) for face in polytope.faces]
    count_faces = len(faces)
    adjacent = [[False] * count_faces for _ in range(count_faces)]
    for i in range(count_faces):
        for j in range(i + 1, count_faces):
            if len(faces[i] & faces[j]) >= 2:
                adjacent[i][j] = adjacent[j][i] = True

    at_vertex: dict[str, list[int]] = {}
    for fi, face in enumerate(faces):
        for v in face:
            at_vertex.setdefault(v, []).append(fi)

    palette = list(_VECTORS.values())
    assignment = [0] * count_faces
    total = 0

    def valid_leaf() -> bool:
        for incident in at_vertex.values():
            if len(incident) == 3 and _rank3(assignment[f] for f in incident) != 3:
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
