"""The Lobachevskii function and the closed-form volumes of both families.

Expected numbers were frozen from two independent oracles (a direct
quadrature with the singularity pulled to -infinity, and the Clausen
function at 30 digits) before being compared against the library.
"""

import math

import mpmath
import pytest

from lobfib.volume import (
    fibonacci_parameters,
    fibonacci_volume,
    lobachevsky,
    lobachevsky_with_error,
    lobell_volume,
    theta,
    v3,
)

from oracles import lobachevsky_clausen, lobachevsky_clausen_mp, lobachevsky_oracle

PI = math.pi


class TestLobachevskyFunction:
    """Lambda is odd, pi-periodic, maximal at pi/6, and satisfies the
    duplication identity Lambda(2x) = 2 Lambda(x) + 2 Lambda(x + pi/2)."""

    @pytest.mark.parametrize(
        "x,frozen",
        [
            (PI / 6, 0.5074708032048268),
            (PI / 12, 0.43218956552694637),
            (5 * PI / 12, 0.17845416392453297),
            (PI / 2, 0.0),
            (PI / 4, 0.45798279708860951),
        ],
    )
    def test_frozen_values(self, x, frozen):
        assert lobachevsky(x) == pytest.approx(frozen, abs=1e-12), (
            f"Lambda({x}) must match the frozen oracle value {frozen}"
        )

    def test_matches_quadrature_oracle(self):
        for k in range(1, 40):
            x = k * PI / 40
            assert lobachevsky(x) == pytest.approx(lobachevsky_oracle(x), abs=1e-11), (
                f"Lambda({x}) disagrees with the substitution quadrature"
            )

    def test_matches_clausen_oracle(self):
        for k in range(-12, 13):
            x = 0.37 * k
            assert lobachevsky(x) == pytest.approx(lobachevsky_clausen(x), abs=1e-12), (
                f"Lambda({x}) disagrees with the Clausen function route"
            )

    def test_odd(self):
        for k in range(1, 160):
            x = -2.0 + 0.025 * k
            assert lobachevsky(-x) == pytest.approx(-lobachevsky(x), abs=1e-12), (
                f"Lambda must be odd, fails at x={x}"
            )

    def test_pi_periodic(self):
        for k in range(160):
            x = -2.0 + 0.025 * k
            assert lobachevsky(x + PI) == pytest.approx(lobachevsky(x), abs=1e-12), (
                f"Lambda must be pi-periodic, fails at x={x}"
            )

    def test_zero_at_multiples_of_half_pi(self):
        for k in range(-4, 5):
            assert lobachevsky(k * PI / 2) == pytest.approx(0.0, abs=1e-13)

    def test_maximum_at_pi_over_six(self):
        peak = lobachevsky(PI / 6)
        for k in range(1, 200):
            x = k * PI / 400
            if abs(x - PI / 6) > 1e-9:
                assert lobachevsky(x) < peak, f"Lambda({x}) must stay below Lambda(pi/6)"

    def test_duplication_identity(self):
        for k in range(1, 120):
            x = 0.013 * k
            lhs = lobachevsky(2 * x)
            rhs = 2 * lobachevsky(x) + 2 * lobachevsky(x + PI / 2)
            assert lhs == pytest.approx(rhs, abs=1e-11), (
                f"duplication identity fails at x={x}: {lhs} vs {rhs}"
            )

    def test_error_bounds_small_and_honest(self):
        """The bound is rigorous: the error against Cl_2 at 30 digits never
        exceeds it, on a 2000-point grid of (0, pi/2] and at arguments that
        need range reduction.  Far out, reducing by the double math.pi
        instead of pi costs digits, and the bound has to say so."""
        grid = [k * (PI / 2) / 2000 for k in range(1, 2001)]
        far = [1e4, -3e5, 1e6]
        with mpmath.workdps(30):
            for x in grid + [0.1, PI / 6, 1.0, PI / 2, 2.9, 12.34, -7.5] + far:
                value, err = lobachevsky_with_error(x)
                assert x in far or 0 <= err < 1e-12, (
                    f"error bound at {x} must be tiny, got {err}"
                )
                assert abs(value - lobachevsky_clausen_mp(x)) <= err, (
                    f"true error at {x} must not exceed the reported bound {err}"
                )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lobachevsky(math.inf)
        with pytest.raises(ValueError):
            lobachevsky(math.nan)


class TestVolumeConstant:
    """v3 = 2 Lambda(pi/6) is the volume of the regular ideal tetrahedron."""

    def test_frozen_value(self):
        assert v3() == pytest.approx(1.0149416064096536, abs=1e-12)

    def test_agrees_with_oracle(self):
        assert v3() == pytest.approx(2 * lobachevsky_oracle(PI / 6), abs=1e-10)

    def test_printed_digits(self):
        assert f"{v3():.3f}" == "1.015" and f"{v3():.9f}".startswith("1.014941606")


class TestLobellVolumes:
    """l(n) = 4n (2 Lambda(theta) + Lambda(theta + pi/n) + Lambda(theta - pi/n)
    - Lambda(2 theta - pi/2)) with theta = pi/2 - arccos(1/(2 cos(pi/n)))."""

    @pytest.mark.parametrize(
        "n,frozen",
        [(5, 34.449660805846469), (6, 48.184368160377511), (7, 60.505992731544418)],
    )
    def test_frozen_values(self, n, frozen):
        result = lobell_volume(n)
        assert result.value == pytest.approx(frozen, abs=1e-9), (
            f"l({n}) must match the frozen oracle value"
        )

    def test_theta_frozen_value(self):
        assert theta(6) == pytest.approx(0.61547970867038734, abs=1e-14)

    def test_theta_decreases_to_pi_over_six(self):
        values = [theta(n) for n in range(5, 200)]
        assert all(a > b for a, b in zip(values, values[1:])), (
            "theta(n) must be strictly decreasing in n"
        )
        assert all(v > PI / 6 for v in values), "theta(n) must stay above pi/6"
        assert theta(100000) == pytest.approx(PI / 6, abs=1e-4)

    def test_error_bound_scales(self):
        assert lobell_volume(6).error_bound < 1e-10
        assert lobell_volume(10000).error_bound < 1e-9

    def test_parameters_reported(self):
        result = lobell_volume(8)
        assert set(result.parameters) == {"theta"}
        assert result.parameters["theta"] == pytest.approx(theta(8), abs=0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            lobell_volume(4)
        with pytest.raises(ValueError):
            theta(4)


class TestFibonacciVolumes:
    """vol(M(n)) = 2n (Lambda(a+b) + Lambda(a-b)) with b = pi/n and
    a = arccos(cos(2b) - 1/2) / 2; M(4) has exactly twice the volume of the
    regular ideal tetrahedron."""

    @pytest.mark.parametrize(
        "n,frozen",
        [(4, 2.0298832128193072), (5, 4.6860342738026125), (6, 7.3277247534177521)],
    )
    def test_frozen_values(self, n, frozen):
        assert fibonacci_volume(n).value == pytest.approx(frozen, abs=1e-9)

    def test_smallest_is_twice_v3(self):
        assert fibonacci_volume(4).value == pytest.approx(2 * v3(), abs=1e-12), (
            "vol(M(4)) must equal 2 v3 exactly (duplication identity)"
        )

    def test_parameters(self):
        a, b = fibonacci_parameters(4)
        assert b == pytest.approx(PI / 4, abs=0)
        assert a == pytest.approx(PI / 3, abs=1e-14), (
            "at n=4 the edge parameter collapses to a = pi/3"
        )
        result = fibonacci_volume(4)
        assert set(result.parameters) == {"a", "b"}

    def test_parameter_a_decreases_to_pi_over_six(self):
        values = [fibonacci_parameters(n)[0] for n in range(4, 200)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert all(x > PI / 6 for x in values)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            fibonacci_volume(3)


class TestAsymptotics:
    """l(n) approaches 10n v3 and vol(M(n)) approaches 2n v3 from below; the
    relative gap shrinks by orders of magnitude between n=100 and n=10000."""

    def test_lobell_ratio_tends_to_ten_n(self):
        gap100 = abs(lobell_volume(100).value / (1000 * v3()) - 1)
        gap10000 = abs(lobell_volume(10000).value / (100000 * v3()) - 1)
        assert gap100 == pytest.approx(6.7394e-4, rel=1e-3)
        assert gap10000 < 1e-2 and gap10000 < gap100

    def test_fibonacci_ratio_tends_to_two_n(self):
        gap100 = abs(fibonacci_volume(100).value / (200 * v3()) - 1)
        gap10000 = abs(fibonacci_volume(10000).value / (20000 * v3()) - 1)
        assert gap100 == pytest.approx(1.68319e-3, rel=1e-3)
        assert gap10000 < 1e-2 and gap10000 < gap100

    def test_volumes_stay_below_asymptote(self):
        for n in (5, 6, 20, 100, 1000):
            assert lobell_volume(n).value < 10 * n * v3(), (
                f"l({n}) must stay strictly below 10n v3"
            )
        for n in (4, 5, 20, 100, 1000):
            assert fibonacci_volume(n).value < 2 * n * v3(), (
                f"vol(M({n})) must stay strictly below 2n v3"
            )
