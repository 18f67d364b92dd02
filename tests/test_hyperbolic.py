"""Tests for the half-plane/disc geometry, in Kobayashi normalization, and
the exact factor that converts it to the Poincare one."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholo.covering import CIRCLE_GRID, TWO_PI
from biholo.hyperbolic import (
    GRID_BLOCK,
    MetricMode,
    _geomspace_blocks,
    _linspace_blocks,
    disc_distance,
    halfplane_distance,
    halfplane_distance_acosh,
    halfplane_metric_circle,
    vertical_line_distance,
)
from biholo.domains import Ball, UpperHalfPlane
from biholo.maps import Mobius
from biholo.metrics import kobayashi_distance

halfplane_points = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=5.0),
)
disc_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)


class TestHalfplaneDistance:
    """Tests for the asinh closed form."""

    def test_coincident_points(self):
        assert halfplane_distance(1j, 1j) == 0.0

    def test_vertical_pair(self):
        """d(i, 2i) = log(2) / 2."""
        assert halfplane_distance(1j, 2j) == pytest.approx(0.6931471805599453 / 2, abs=5e-16)

    def test_diagonal_pair(self):
        """d(i, 1+i) = log((sqrt5 + 1)/(sqrt5 - 1)) / 2."""
        expected = 0.5 * math.log((math.sqrt(5) + 1) / (math.sqrt(5) - 1))
        assert halfplane_distance(1j, 1 + 1j) == pytest.approx(expected, abs=5e-16)
        assert expected == pytest.approx(0.9624236501192069 / 2, abs=5e-16)

    def test_rejects_lower_halfplane(self):
        with pytest.raises(ValueError):
            halfplane_distance(1j, 1 - 1j)
        with pytest.raises(ValueError):
            halfplane_distance(complex(2.0, 0.0), 1j)

    @given(z=halfplane_points, w=halfplane_points)
    @settings(max_examples=300)
    def test_agrees_with_acosh_oracle(self, z, w):
        """The asinh form equals arccosh(1 + |z-w|^2/(2 Im z Im w)) / 2."""
        assert abs(halfplane_distance(z, w) - halfplane_distance_acosh(z, w)) <= 5e-13

    @pytest.mark.parametrize(
        "z, w, expected",
        [(1e-170j, 2e-170j, 0.5 * math.log(2.0)), (1e200j, 1e200 + 1e200j, 0.9624236501192069 / 2)],
        ids=["underflow", "overflow"],
    )
    def test_acosh_oracle_is_scale_invariant(self, z, w, expected):
        """The oracle forms its ratio before squaring it, so ``Im z Im w``
        cannot underflow to 0 nor ``|z - w|^2`` overflow: at these scales it
        raised ZeroDivisionError and OverflowError."""
        d = halfplane_distance(z, w)
        assert d == pytest.approx(expected, rel=1e-15)
        assert halfplane_distance_acosh(z, w) == pytest.approx(d, rel=1e-15)

    def test_acosh_oracle_takes_arrays(self):
        """Two arrays of pairs: one distance per entry, each within 1e-15
        relative of the scalar form; a point off the half-plane raises."""
        z = np.array([1j, 0.5 + 2j, -3 + 0.1j])
        w = np.array([2j, 1e-3j, 4 + 5j])
        pairs = [halfplane_distance_acosh(a, b) for a, b in zip(z.tolist(), w.tolist())]
        assert halfplane_distance_acosh(z, w) == pytest.approx(pairs, rel=1e-15, abs=0.0)
        with pytest.raises(ValueError, match="every point must lie in the open upper half-plane"):
            halfplane_distance_acosh(z, np.array([1j, -1j, 1j]))

    @given(z=halfplane_points, w=halfplane_points)
    @settings(max_examples=300)
    def test_mode_factor_is_exactly_two(self, z, w):
        """The POINCARE output is twice the Kobayashi distance, bit for bit."""
        d = halfplane_distance(z, w)
        assert kobayashi_distance(UpperHalfPlane(), z, w, MetricMode.POINCARE) == 2.0 * d
        assert kobayashi_distance(UpperHalfPlane(), z, w) == d

    @given(z=halfplane_points, w=halfplane_points, u=halfplane_points)
    @settings(max_examples=300)
    def test_triangle_inequality(self, z, w, u):
        slack = halfplane_distance(z, w) + halfplane_distance(w, u) - halfplane_distance(z, u)
        assert slack >= -5e-11

    def test_nearly_ideal_pair_is_stable(self):
        """The single form stays finite and accurate near the boundary."""
        z = complex(0.0, 1e-9)
        w = complex(50.0, 1e-9)
        d = halfplane_distance(z, w)
        assert math.isfinite(d)
        assert d == pytest.approx(halfplane_distance_acosh(z, w), abs=5e-13)

    @pytest.mark.parametrize(
        "z, w",
        [(1e-3j, complex(1e160, 1e-3)), (1j, complex(1e300, 1.0))],
        ids=["750", "1381"],
    )
    def test_far_pair_is_finite_and_accurate(self, z, w):
        """Poincare distances past about 709 (the ids), where exp overflows,
        stay finite and within 1e-14 relative of a 50-digit reference."""
        mpmath = pytest.importorskip("mpmath", reason="the 50-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        ref = mp.asinh(abs(mp.mpc(z) - mp.mpc(w)) / (2 * mp.sqrt(mp.mpf(z.imag) * mp.mpf(w.imag))))
        d = halfplane_distance(z, w)
        assert math.isfinite(d)
        assert abs(mp.mpf(d) - ref) <= 1e-14 * ref, (d, ref)

    def test_relative_accuracy_against_mpmath(self):
        """Relative error at most 1e-13 for separations from 1e-13 to 1e4 and
        heights from 1e-3 to 1e3, against ``asinh(|z - w| / (2 sqrt(Im z Im w)))``
        at 50 digits.  (The acosh(1 + s) reference loses its own digits once
        s is below about 1e-33.)"""
        mpmath = pytest.importorskip("mpmath", reason="the 50-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50

        def reference(z: complex, w: complex):
            dx = mp.mpf(z.real) - mp.mpf(w.real)
            dy = mp.mpf(z.imag) - mp.mpf(w.imag)
            return mp.asinh(mp.sqrt(dx * dx + dy * dy) / (2 * mp.sqrt(mp.mpf(z.imag) * mp.mpf(w.imag))))

        rng = np.random.default_rng(29)
        # the log-ratio form gave 0.0 here, against 1.16e-16
        pairs = [(complex(0.5, 860.0), complex(0.5 + 1e-13, 860.0))]
        for _ in range(5_000):
            z = complex(rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, 3.0))
            step = 10.0 ** rng.uniform(-13.0, 4.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            pairs.append((z, z + complex(step.real, abs(step.imag))))
        for z, w in pairs:
            d, ref = halfplane_distance(z, w), reference(z, w)
            assert abs(mp.mpf(d) - ref) <= 1e-13 * ref, (z, w, d, ref)
            # the distance is invariant under z -> 4^k z, and so is the form,
            # bit for bit, far beyond the range where Im z Im w is a float
            for k in (-300, 300):
                assert halfplane_distance(z * 4.0**k, w * 4.0**k) == d

    def test_mobius_invariance(self):
        """Real fractional linear maps with det 1 preserve distances."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            a = rng.uniform(0.5, 2.0)
            b, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
            d = (1.0 + b * c) / a
            mz = (a * z + b) / (c * z + d)
            mw = (a * w + b) / (c * w + d)
            assert halfplane_distance(z, w) == pytest.approx(
                halfplane_distance(mz, mw), abs=5e-11
            )


class TestDiscDistance:
    """Tests for the disc form of the metric."""

    def test_origin_zero(self):
        assert disc_distance(0j, 0j) == 0.0

    def test_tanh_radius(self):
        """d(0, tanh 1) = 1 in the Kobayashi normalization."""
        assert disc_distance(0.0, math.tanh(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pair(self):
        """d(0.3, -0.3) = artanh(0.6/1.09)."""
        assert disc_distance(0.3, -0.3) == pytest.approx(0.6190392084062233, abs=1e-15)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            disc_distance(1.2, 0.0)

    @pytest.mark.parametrize("bad", [1.0, 1.5j, complex("nan")], ids=["circle", "outside", "nan"])
    def test_array_rejects_a_point_off_the_disc(self, bad):
        with pytest.raises(ValueError, match="open unit disc"):
            disc_distance(0j, np.array([0.5, bad, 0.1j]))

    @given(a=disc_points, b=disc_points)
    @settings(max_examples=300)
    def test_mobius_invariance_under_automorphisms(self, a, b):
        """Distances survive the disc automorphism moving a to 0."""
        target = (a - b) / (1 - a.conjugate() * b)
        assert disc_distance(a, b) == pytest.approx(disc_distance(0j, target), abs=5e-11)

    @given(a=disc_points, b=disc_points)
    @settings(max_examples=300)
    def test_mode_factor_is_exactly_two(self, a, b):
        """The POINCARE output is twice the Kobayashi distance, bit for bit."""
        d = disc_distance(a, b)
        assert kobayashi_distance(Ball(1), a, b, MetricMode.POINCARE) == 2.0 * d
        assert kobayashi_distance(Ball(1), a, b) == d

    @pytest.mark.parametrize(
        "a, b",
        [
            (1 - 1e-9, -(1 - 1e-9)),
            (1 - 1e-12, complex(0.0, 1 - 1e-12)),
            (1 - 1e-8, -(1 - 1e-8)),
            (0.3, 0.3 + 1e-9),
        ],
        ids=["antipodal-1e-9", "quarter-turn-1e-12", "antipodal-1e-8", "nearly-equal"],
    )
    def test_relative_accuracy_against_mpmath(self, a, b):
        """Pairs near the circle, where the atanh form raised a math domain
        error or was 2% off, and a nearly equal pair: within 1e-12 relative
        of ``artanh(|a - b| / |1 - conj(a) b|)`` at 60 digits."""
        mpmath = pytest.importorskip("mpmath", reason="the 60-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        za, zb = mp.mpc(a), mp.mpc(b)
        ref = mp.atanh(abs(za - zb) / abs(1 - mp.conj(za) * zb))
        d = disc_distance(a, b)
        assert abs(mp.mpf(d) - ref) <= 1e-12 * ref, (d, ref)


class TestCayley:
    """Tests for the disc <-> half-plane equivalence."""

    cayley = Mobius.cayley_disc_to_halfplane()

    def test_origin_goes_to_i(self):
        assert self.cayley.apply(0j) == 1j

    def test_round_trip(self):
        z = 0.5 + 0.1j
        assert abs(self.cayley.unapply(self.cayley.apply(z)) - z) <= 1e-12

    @given(a=disc_points, b=disc_points)
    @settings(max_examples=300)
    def test_isometry_within_a_mode(self, a, b):
        dh = halfplane_distance(self.cayley.apply(a), self.cayley.apply(b))
        assert dh == pytest.approx(disc_distance(a, b), abs=5e-12)

    def test_specific_isometry_value(self):
        assert halfplane_distance(
            self.cayley.apply(0j), self.cayley.apply(0.5 + 0j)
        ) == pytest.approx(disc_distance(0j, 0.5 + 0j), abs=5e-13)


class TestVerticalLineDistance:
    """Tests for the distance to a vertical geodesic."""

    def test_known_value_at_unit_ratio(self):
        """d(i pi, {Re = pi}) = log(1 + sqrt 2) / 2."""
        assert vertical_line_distance(math.pi * 1j, math.pi) == pytest.approx(
            0.8813735870195429 / 2, abs=5e-13
        )

    def test_point_on_line(self):
        assert vertical_line_distance(1j, 0.0) == 0.0

    def test_matches_asinh_form(self):
        """The foot construction reduces to asinh(|Re z - c| / Im z) / 2."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
            c = rng.uniform(-4, 4)
            assert vertical_line_distance(z, c) == pytest.approx(
                0.5 * math.asinh(abs(z.real - c) / z.imag), abs=5e-13
            )

    def test_grid_minimization_oracle(self):
        """d(2i, {Re = 2}) = log(1 + sqrt 2) / 2, against 1e6 sampled line points."""
        z, c = 2j, 2.0
        ts = np.geomspace(1e-4, 100.0, 1_000_000)
        s = ((z.real - c) ** 2 + (z.imag - ts) ** 2) / (2.0 * z.imag * ts)
        grid_min = 0.5 * float(np.log1p(s + np.sqrt(s * (s + 2.0))).min())
        d = vertical_line_distance(z, c)
        assert d == pytest.approx(0.8813735870195429 / 2, abs=5e-13)
        assert d <= grid_min + 5e-13
        assert d == pytest.approx(grid_min, abs=5e-6)

    def test_foot_is_the_minimizer(self):
        z, c = complex(1.0, 0.7), -0.5
        d = vertical_line_distance(z, c)
        foot = complex(c, abs(z - c))
        assert halfplane_distance(z, foot) == pytest.approx(d, abs=5e-7)
        for t in np.linspace(0.01, 30.0, 500):
            assert d <= halfplane_distance(z, complex(c, t)) + 5e-13


class TestMetricCircle:
    def test_circle_points_are_equidistant(self):
        center = complex(0.3, 1.2)
        for w in halfplane_metric_circle(center, np.linspace(0, 2 * math.pi, 48, endpoint=False), 0.4):
            assert halfplane_distance(center, w) == pytest.approx(0.4, abs=5e-11)

    def test_kobayashi_radius_doubles(self):
        """The Kobayashi circle of radius 0.5 around i is the curvature -1
        circle of radius 1: its top is ``i e`` and its bottom ``i / e``."""
        top, bottom = halfplane_metric_circle(1j, np.array([0.5, 1.5]) * math.pi, 0.5)
        assert top == pytest.approx(1j * math.e, rel=1e-15)
        assert bottom == pytest.approx(1j / math.e, rel=1e-15)


class TestGridBlocks:
    """The oracles' grids, swept block by block, are numpy's grids bit for
    bit; a numpy whose ``linspace`` or ``geomspace`` rounds differently
    fails here, not in a suite's tolerance."""

    @staticmethod
    def _joined(blocks) -> np.ndarray:
        blocks = list(blocks)
        assert all(0 < len(b) <= GRID_BLOCK for b in blocks)
        return np.concatenate(blocks)

    @pytest.mark.parametrize(
        "num, endpoint",
        [(CIRCLE_GRID, False), (CIRCLE_GRID, True), (2 * GRID_BLOCK, True), (GRID_BLOCK + 1, True), (2, True)],
    )
    def test_linspace(self, num, endpoint):
        expected = np.linspace(0.0, TWO_PI, num, endpoint=endpoint)
        assert self._joined(_linspace_blocks(0.0, TWO_PI, num, endpoint)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "start, stop, num",
        [(1e-3, 100.0, 1_000_000), (1e-4, 100.0, 2 * GRID_BLOCK), (1e-4, 100.0, GRID_BLOCK + 1), (0.5, 3.0, 2)],
    )
    def test_geomspace(self, start, stop, num):
        expected = np.geomspace(start, stop, num)
        assert self._joined(_geomspace_blocks(start, stop, num)).tobytes() == expected.tobytes()
