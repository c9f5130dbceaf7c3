"""Hyperbolic volumes of the two families, via the Lobachevskii function

    L(x) = -Integral_0^x log|2 sin t| dt.

L is odd, pi-periodic, and attains its maximum at pi/6.  Every evaluation is
range-reduced to [0, pi/2] and computed there from Milnor's series (Bull.
AMS 6, 1982), in which the endpoint singularity is a closed-form term:

    L(r) = r - r*log(2r) + sum_{k>=1} c_k * r^(2k+1),
    c_k  = |B_2k| * 4^k / (2k * (2k+1)!) = T_k / ((4^k - 1) * (2k+1)!),

with B_2k the Bernoulli and T_k the tangent numbers (tan x = sum T_k
x^(2k-1)/(2k-1)!).  The exact rational c_k are rounded once at import; the
series is summed by Horner's rule in r^2 to K = 30 terms.  Since
|B_2k| < 4 (2k)! / (2 pi)^(2k), term k is at most 2r * 4^-k / (k (2k+1)) on
[0, pi/2], and each term is below a quarter of the one before.  So every
value comes with a rigorous error bound: the series tail, the rounding of
the c_k, and the floating-point rounding of the evaluation.  No quadrature and
no library outside the standard one is used; the test suite checks the values
against an independent quadrature of the defining integral, against mpmath's
Clausen function, and against the duplication identity
L(2x) = 2 L(x) + 2 L(x + pi/2).

Volume formulas (v3 = 2 L(pi/6) is the volume of the regular ideal
tetrahedron, 1.014941...):

Lobell manifolds, built from 8 colored copies of R(n):

    ell(n) = 4n * (2 L(th) + L(th + pi/n) + L(th - pi/n) - L(2 th - pi/2)),
    th(n)  = pi/2 - arccos(1 / (2 cos(pi/n))),

with th decreasing to pi/6, so ell(n) ~ 10n * v3 (always from below).

Fibonacci manifolds M(n), the closed-up capped antiprisms Y(n):

    vol M(n) = 2n * (L(a + b) + L(a - b)),
    b(n) = pi/n,   a(n) = arccos(cos(2 b(n)) - 1/2) / 2,

with a decreasing to pi/6, so vol M(n) ~ 2n * v3, again from below.
At n = 4 the angle a is exactly pi/3 and the volume collapses to 4 L(pi/6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# the Lobachevskii function
# ---------------------------------------------------------------------------

_TERMS = 30


def _series_coefficients(count: int) -> tuple[float, ...]:
    """c_1..c_count, each the correctly rounded value of the exact rational."""
    # tangent numbers T_1..T_count by the integer recurrence of Brent and
    # Zimmermann (Modern Computer Arithmetic, algorithm TangentNumbers)
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    # int / int is correctly rounded
    return tuple(
        t[k] / ((4**k - 1) * math.factorial(2 * k + 1)) for k in range(1, count + 1)
    )


_COEFFICIENTS = _series_coefficients(_TERMS)
# the terms 2r * 4^-k / (k (2k+1)) over k > K, summed as a geometric series
# of ratio 1/4 from the first, per unit of r
_TAIL = 2.0 * 4.0 ** -(_TERMS + 1) / ((_TERMS + 1) * (2 * _TERMS + 3)) * 4.0 / 3.0
# rounding of log, of the c_k and of every product and sum, in units of
# r + |r log 2r| + series (at most 10 units of 2^-53 by a term-by-term count)
_ROUNDING = 16 * 2.0**-53
# pi - math.pi, divided by math.pi: the drift of the reduced argument per
# unit of |x - r|, rounded up
_PI_DRIFT = 3.9e-17


def _core(r: float) -> tuple[float, float]:
    """(value, error bound) of L on the reduced range [0, pi/2].

    The bound covers every error against the true L at the double r: the
    series tail, the rounded coefficients, and the rounding of the
    evaluation.
    """
    if r == 0.0:
        return 0.0, 0.0
    y = r * r
    s = 0.0
    for c in reversed(_COEFFICIENTS):
        s = s * y + c
    series = s * y * r
    closed = r * math.log(2.0 * r)
    value = (r - closed) + series
    return value, r * _TAIL + _ROUNDING * (r + abs(closed) + series)


def lobachevsky_with_error(x: float) -> tuple[float, float]:
    """L(x) together with a rigorous absolute error bound for L at the
    double x."""
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    r = math.remainder(x, math.pi)  # periodicity: L(x) = L(r), r in [-pi/2, pi/2]
    sign = -1.0 if r < 0.0 else 1.0
    value, err = _core(abs(r))
    # x - r is a multiple of math.pi, not of pi, so the true reduced argument
    # lies within h of r; |L'| = |log|2 sin t|| integrates to at most
    # h (1 + log(pi / h)) over any interval of length h <= pi/2, and no two
    # values of L differ by more than 2 L(pi/6) < 1.1
    h = abs(x - r) * _PI_DRIFT
    if h:
        err += h * (1.0 + math.log(math.pi / h)) if h < 0.5 else 1.1
    return sign * value, err


def lobachevsky(x: float) -> float:
    """The Lobachevskii function L(x) = -Integral_0^x log|2 sin t| dt."""
    return lobachevsky_with_error(x)[0]


_V3, _V3_ERROR = (2.0 * part for part in _core(math.pi / 6.0))
# v3 is the maximum of 2 L, so 2 L at the double nearest pi/6 lies below it
# and the lower end needs no term for the rounding of pi/6
V3_LOWER = math.nextafter(_V3 - _V3_ERROR, 0.0)
"""A rigorous lower bound for v3, computed once at import."""


def v3() -> float:
    """Volume of the regular ideal tetrahedron, 2 L(pi/6) = 1.014941..."""
    return _V3


# ---------------------------------------------------------------------------
# volume formulas
# ---------------------------------------------------------------------------

@dataclass
class VolumeResult:
    """A volume value with a conservative error bound and the intermediate
    angles that produced it."""

    value: float
    error_bound: float
    parameters: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "errorBound": self.error_bound,
            "parameters": dict(self.parameters),
        }


# the volume stays below 16 n, so it cannot overflow while n is at most
# 2^1020, about a sixteenth of the largest float
_N_MAX = 2**1020


def _pi_over(n: int) -> float:
    if n > _N_MAX:
        raise ValueError("n is too large for a floating-point volume")
    return math.pi / n


def theta(n: int) -> float:
    """Dihedral-angle parameter of the Lobell volume formula; decreases
    strictly to pi/6 as n grows."""
    if n < 5:
        raise ValueError("Andreev condition fails below n=5")
    return _HALF_PI - math.acos(1.0 / (2.0 * math.cos(_pi_over(n))))


def lobell_volume(n: int) -> VolumeResult:
    """Volume ell(n) shared by every manifold glued from 8 colored copies of
    R(n); equals 8 times the volume of the right-angled R(n) itself."""
    th = theta(n)
    step = math.pi / n
    t1, e1 = lobachevsky_with_error(th)
    t2, e2 = lobachevsky_with_error(th + step)
    t3, e3 = lobachevsky_with_error(th - step)
    t4, e4 = lobachevsky_with_error(2.0 * th - _HALF_PI)
    value = 4.0 * n * (2.0 * t1 + t2 + t3 - t4)
    err = 4.0 * n * (2.0 * e1 + e2 + e3 + e4) + 8e-16 * (abs(value) + 1.0)
    return VolumeResult(value, err, {"theta": th})


def fibonacci_parameters(n: int) -> tuple[float, float]:
    """The angle pair (a, b) of the Fibonacci volume formula."""
    if n < 4:
        raise ValueError("capped antiprism needs n >= 4")
    b = _pi_over(n)
    a = 0.5 * math.acos(math.cos(2.0 * b) - 0.5)
    return a, b


def fibonacci_volume(n: int) -> VolumeResult:
    """Volume of the Fibonacci manifold M(n)."""
    a, b = fibonacci_parameters(n)
    t1, e1 = lobachevsky_with_error(a + b)
    t2, e2 = lobachevsky_with_error(a - b)
    value = 2.0 * n * (t1 + t2)
    err = 2.0 * n * (e1 + e2) + 8e-16 * (abs(value) + 1.0)
    return VolumeResult(value, err, {"a": a, "b": b})
