"""Two-sided bounds on Matveev complexity from volume and triangulation size.

For a closed orientable hyperbolic 3-manifold M the volume satisfies
vol(M) < c(M) * v3, where c(M) is the Matveev complexity and
v3 = 2 Lambda(pi/6) = 1.0149... is the maximal tetrahedron volume; hence the
least integer k with k * v3 > vol(M) is a lower bound for c(M).  The
library computes k from the upper end of vol / v3, taken from the volume's
error bound and the lower end of v3's own interval with every floating-point
step rounded up.  Where that interval of vol / v3 contains no
integer, which holds for every n <= 3000 except M(4), k is certified; M(4)
has vol = 2 v3 exactly, so k = 3 there rests on that identity.
Any concrete triangulation with t tetrahedra gives the upper bound
c(M) <= t.  The upper bound reported here is the size of the paper's
fan-and-cone construction, taken from its closed formula
(`lobell_tet_count`, `fibonacci_tet_count`) without building it.
`triangulation.triangulate` builds that construction, and
`tests/test_bounds.py::TestWitness` builds it, verifies it with
`verify_triangulation` and requires its tetrahedron count to equal the
reported upper bound.  For the two families this produces

    Loebell:    lower(n) <= c <= 32(2n - 1), with vol = l(n) ~ 10n * v3,
    Fibonacci:  lower(n) <= c <= 3n,         with vol(M(n)) ~ 2n * v3,

so the complexity grows linearly in n and the lower bound approaches the
asymptotic coefficients 10n resp. 2n from below.  Because the approach is
from below, lower(n) >= 10n (resp. 2n) only from some finite n onward;
each report carries the asymptotic value and a flag saying whether it is
attained at that specific n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .polytope import FIBONACCI, LOBELL
from .volume import V3_LOWER, VolumeResult, fibonacci_volume, lobell_volume, v3


def lobell_tet_count(n: int) -> int:
    """Closed formula for the size of the fan-and-cone triangulation."""
    return 32 * (2 * n - 1)


def fibonacci_tet_count(n: int) -> int:
    """Closed formula for the size of the apex-cone triangulation."""
    return 3 * n


def lower_bound_from_volume(volume: VolumeResult) -> int:
    """Least integer k with k * v3 strictly above every volume in the
    interval value +- error bound.

    The error bound is added to the value and the sum is divided by the
    lower end of v3's own interval, each step rounded up.
    """
    top = math.nextafter(volume.value + volume.error_bound, math.inf)
    return math.floor(math.nextafter(top / V3_LOWER, math.inf)) + 1


@dataclass
class BoundsReport:
    """Certified complexity window for one manifold of a family."""

    family: str
    n: int
    volume: VolumeResult
    lower_bound: int
    upper_bound: int
    asymptotic_lower: int
    asymptotic_attained: bool

    @property
    def ratios(self) -> dict[str, float]:
        # volume and upper bound scaled by 2^-64, which changes no rounding,
        # so that v3 * upper stays finite up to n = 2^1020
        volume, upper = self.volume.value / 2**64, self.upper_bound / 2**64
        return {
            "volumeOverV3Upper": volume / (v3() * upper),
            "lowerOverUpper": self.lower_bound / self.upper_bound,
        }

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "volume": self.volume.to_json_dict(),
            "lowerBound": self.lower_bound,
            "upperBound": self.upper_bound,
            "asymptoticLower": self.asymptotic_lower,
            "asymptoticAttained": self.asymptotic_attained,
            "ratios": self.ratios,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def as_text(self) -> str:
        ratios = self.ratios
        rows = [
            ("family", self.family),
            ("n", str(self.n)),
            ("volume", f"{self.volume.value:.9f}"),
            ("volume error bound", f"{self.volume.error_bound:.9e}"),
            ("lower bound", str(self.lower_bound)),
            ("upper bound", str(self.upper_bound)),
            ("asymptotic lower", str(self.asymptotic_lower)),
            ("asymptotic attained", "yes" if self.asymptotic_attained else "no"),
            ("volume / (v3 * upper)", f"{ratios['volumeOverV3Upper']:.9f}"),
            ("lower / upper", f"{ratios['lowerOverUpper']:.9f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {val}" for k, val in rows)


def bounds_report(family: str, n: int) -> BoundsReport:
    """Volume, certified lower bound, and witnessed upper bound for one n.

    The upper bound is the size of the paper's fan-and-cone construction,
    given by its closed formula; no triangulation is built here.
    `triangulate` builds that construction, and
    `tests/test_bounds.py::TestWitness` builds, verifies and counts it.
    """
    if family == LOBELL:
        volume = lobell_volume(n)
        upper = lobell_tet_count(n)
        asymptotic = 10 * n
    elif family == FIBONACCI:
        volume = fibonacci_volume(n)
        upper = fibonacci_tet_count(n)
        asymptotic = 2 * n
    else:
        raise ValueError(f"unknown family {family!r}")
    lower = lower_bound_from_volume(volume)
    return BoundsReport(
        family=family,
        n=n,
        volume=volume,
        lower_bound=lower,
        upper_bound=upper,
        asymptotic_lower=asymptotic,
        asymptotic_attained=lower >= asymptotic,
    )
