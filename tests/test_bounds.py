"""Two-sided complexity bounds: certified volume lower bounds, witnessed
triangulation upper bounds, asymptotic attainment, and the ratio trends."""

import json
import math

import mpmath
import pytest

from lobfib.bounds import (
    BoundsReport,
    bounds_report,
    fibonacci_tet_count,
    lobell_tet_count,
    lower_bound_from_volume,
)
from lobfib.coloring import canonical_coloring
from lobfib.polytope import build_lobell_polytope
from lobfib.triangulation import (
    triangulate_fibonacci,
    triangulate_lobell,
    verify_triangulation,
)
from lobfib.volume import VolumeResult, fibonacci_volume, lobell_volume, v3

from oracles import fibonacci_volume_clausen, lobell_volume_clausen, v3_clausen


class TestLowerBoundFromVolume:
    """lower = least integer k with k * v3 strictly above value + error."""

    def test_small_volume(self):
        assert lower_bound_from_volume(VolumeResult(0.5, 0.0, {})) == 1

    def test_exact_multiple_needs_the_next_integer(self):
        assert lower_bound_from_volume(VolumeResult(v3(), 0.0, {})) == 2, (
            "vol = v3 exactly: k = 1 does not satisfy the strict inequality"
        )

    def test_error_bound_is_added_conservatively(self):
        value = 3.0 * v3() - 1e-12
        assert lower_bound_from_volume(VolumeResult(value, 0.0, {})) == 3
        assert lower_bound_from_volume(VolumeResult(value, 1e-11, {})) == 4, (
            "a value certified only up to 1e-11 cannot exclude k = 3"
        )


class TestLowerBoundsAgainstClausen:
    """For every n <= 200 the certified lower bound is exactly the least k
    with k * v3 > vol, with vol and v3 both taken from mpmath's Clausen
    function at 30 digits: the error bounds are tight enough to decide."""

    @pytest.mark.parametrize(
        "family, first, library, oracle",
        (
            ("lobell", 5, lobell_volume, lobell_volume_clausen),
            ("fibonacci", 4, fibonacci_volume, fibonacci_volume_clausen),
        ),
    )
    def test_least_k(self, family, first, library, oracle):
        exact_v3 = v3_clausen()
        for n in range(first, 201):
            with mpmath.workdps(30):
                ratio = oracle(n) / exact_v3
                nearest = int(mpmath.nint(ratio))
                if abs(ratio - nearest) < 1e-20:
                    # only vol(M(4)) = 2 v3 is an exact multiple; the strict
                    # inequality then needs the next integer
                    assert (family, n) == ("fibonacci", 4), f"{family} n={n}: ratio {ratio}"
                    expected = nearest + 1
                else:
                    expected = int(mpmath.floor(ratio)) + 1
            assert lower_bound_from_volume(library(n)) == expected, (
                f"{family} n={n}: vol / v3 = {mpmath.nstr(ratio, 20)}"
            )


class TestFrozenLowerBounds:
    """Certified lower bounds at reference values of n."""

    @pytest.mark.parametrize(
        "n, lower",
        ((5, 34), (6, 48), (50, 499), (67, 669), (68, 680), (100, 1000), (500, 5000)),
    )
    def test_lobell(self, n, lower):
        report = bounds_report("lobell", n)
        assert report.lower_bound == lower, (
            f"R({n}): expected lower bound {lower}, got {report.lower_bound}"
        )

    @pytest.mark.parametrize(
        "n, lower",
        ((4, 3), (5, 5), (33, 65), (34, 68), (50, 100), (100, 200), (500, 1000)),
    )
    def test_fibonacci(self, n, lower):
        report = bounds_report("fibonacci", n)
        assert report.lower_bound == lower, (
            f"M({n}): expected lower bound {lower}, got {report.lower_bound}"
        )

    def test_fibonacci_4_needs_the_strict_inequality(self):
        """vol(M(4)) = 2 v3 exactly, so the strict bound vol < c * v3
        already excludes c = 2 and certifies complexity at least 3."""
        report = bounds_report("fibonacci", 4)
        assert report.volume.value == pytest.approx(2.0 * v3(), abs=1e-12)
        assert report.lower_bound == 3


class TestReportContents:
    """Upper bounds match the closed formulas of the construction (which
    TestWitness ties to built triangulations); the window is consistent at
    every n."""

    @pytest.mark.parametrize("n", range(5, 51))
    def test_lobell_window(self, n):
        report = bounds_report("lobell", n)
        assert report.upper_bound == lobell_tet_count(n) == 32 * (2 * n - 1)
        assert report.lower_bound <= report.upper_bound
        assert report.volume.value < report.upper_bound * v3()
        assert report.asymptotic_lower == 10 * n
        assert report.asymptotic_attained == (report.lower_bound >= 10 * n)

    @pytest.mark.parametrize("n", range(4, 51))
    def test_fibonacci_window(self, n):
        report = bounds_report("fibonacci", n)
        assert report.upper_bound == fibonacci_tet_count(n) == 3 * n
        assert report.lower_bound <= report.upper_bound
        assert report.volume.value < report.upper_bound * v3()
        assert report.asymptotic_lower == 2 * n
        assert report.asymptotic_attained == (report.lower_bound >= 2 * n)

    def test_lobell_reference_report(self):
        report = bounds_report("lobell", 6)
        assert report.volume.value == pytest.approx(48.184368160377511, abs=1e-9)
        assert report.lower_bound == 48
        assert report.upper_bound == 352
        assert report.asymptotic_lower == 60
        assert not report.asymptotic_attained

    def test_fibonacci_reference_report(self):
        report = bounds_report("fibonacci", 4)
        assert report.upper_bound == 12
        assert report.asymptotic_lower == 8
        assert not report.asymptotic_attained

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            bounds_report("cube", 5)


class TestWitness:
    """The reported upper bound is the size of a triangulation that is
    actually built and verified as a closed orientable manifold."""

    @pytest.mark.parametrize("n", range(5, 21))
    def test_lobell(self, n):
        tri = triangulate_lobell(canonical_coloring(build_lobell_polytope(n)))
        assert bounds_report("lobell", n).upper_bound == tri.tet_count
        assert verify_triangulation(tri).ok

    @pytest.mark.parametrize("n", range(4, 31))
    def test_fibonacci(self, n):
        tri = triangulate_fibonacci(n)
        assert bounds_report("fibonacci", n).upper_bound == tri.tet_count
        assert verify_triangulation(tri).ok


class TestAsymptoticAttainment:
    """The lower bound approaches 10n (resp. 2n) from below, reaching the
    asymptotic value for the first time at n = 68 (resp. n = 34)."""

    def test_lobell_first_attainment(self):
        assert not bounds_report("lobell", 67).asymptotic_attained
        assert bounds_report("lobell", 68).asymptotic_attained
        assert bounds_report("lobell", 68).lower_bound == 680

    def test_fibonacci_first_attainment(self):
        assert not bounds_report("fibonacci", 33).asymptotic_attained
        assert bounds_report("fibonacci", 34).asymptotic_attained
        assert bounds_report("fibonacci", 34).lower_bound == 68

    def test_attainment_is_equality_not_excess(self):
        """At n = 100 the lower bound equals the asymptotic value exactly;
        it never exceeds it."""
        assert bounds_report("lobell", 100).lower_bound == 1000
        assert bounds_report("fibonacci", 100).lower_bound == 200


class TestRatioTrends:
    """lower/upper drifts toward 10/64 for the Löbell family and sits at
    exactly 2/3 for the Fibonacci family."""

    def test_lobell_ratio_decreases_toward_10_64(self):
        frozen = {
            50: 0.157512626263,
            100: 0.157035175879,
            500: 0.156406406406,
        }
        values = {}
        for n, expected in frozen.items():
            r = bounds_report("lobell", n).ratios
            assert r["lowerOverUpper"] == pytest.approx(expected, abs=1e-12)
            assert r["volumeOverV3Upper"] < 1.0
            values[n] = r["lowerOverUpper"]
        assert values[50] > values[100] > values[500] > 10 / 64
        assert values[500] - 10 / 64 < 1e-3

    @pytest.mark.parametrize(
        "n", (2**1018 - 2**1011, 2**1018, 2**1019, 2**1020),
        ids=("2^1018-2^1011", "2^1018", "2^1019", "2^1020"),
    )
    def test_lobell_volume_ratio_near_the_float_limit(self, n):
        """v3 * (64n - 32) is no finite float here (at 2^1018 - 2^1011 the
        product overflows; from 2^1018 on, 64n - 32 itself is past the
        largest float), but the volume ratio is."""
        report = bounds_report("lobell", n)
        assert report.ratios["volumeOverV3Upper"] == pytest.approx(10 / 64, rel=1e-12)
        assert "volume / (v3 * upper)  0.156250000" in report.as_text().splitlines()
        doc = json.loads(json.dumps(report.to_json_dict(), indent=2))
        assert doc["ratios"]["volumeOverV3Upper"] == pytest.approx(10 / 64, rel=1e-12)

    def test_fibonacci_ratio_is_two_thirds(self):
        for n in (50, 100, 500):
            r = bounds_report("fibonacci", n).ratios
            assert abs(r["lowerOverUpper"] - 2 / 3) < 1e-15, (
                f"M({n}): lower/upper must be exactly 2/3"
            )
            assert r["volumeOverV3Upper"] < 1.0


class TestSerializationAndText:
    def test_json_keys(self):
        doc = bounds_report("fibonacci", 4).to_json_dict()
        assert set(doc) == {
            "family",
            "n",
            "volume",
            "lowerBound",
            "upperBound",
            "asymptoticLower",
            "asymptoticAttained",
            "ratios",
        }
        assert doc["family"] == "fibonacci" and doc["n"] == 4
        assert doc["lowerBound"] == 3 and doc["upperBound"] == 12
        assert doc["asymptoticLower"] == 8 and doc["asymptoticAttained"] is False
        assert set(doc["volume"]) == {"value", "errorBound", "parameters"}
        assert set(doc["ratios"]) == {"volumeOverV3Upper", "lowerOverUpper"}

    def test_text_rendering(self):
        text = bounds_report("lobell", 6).as_text()
        rows = {
            line[:21].rstrip(): line[23:] for line in text.splitlines()
        }  # keys padded to the widest, "volume / (v3 * upper)"
        assert rows["volume"].startswith("48.184368160")
        assert rows["lower bound"] == "48"
        assert rows["upper bound"] == "352"
        assert rows["asymptotic lower"] == "60"
        assert rows["asymptotic attained"] == "no"
        assert rows["volume / (v3 * upper)"].startswith("0.134")
        assert rows["lower / upper"].startswith("0.136")

    def test_report_is_a_plain_dataclass(self):
        report = bounds_report("fibonacci", 5)
        clone = BoundsReport(
            family=report.family,
            n=report.n,
            volume=report.volume,
            lower_bound=report.lower_bound,
            upper_bound=report.upper_bound,
            asymptotic_lower=report.asymptotic_lower,
            asymptotic_attained=report.asymptotic_attained,
        )
        assert clone == report and clone.ratios == report.ratios
