"""Tests for the punctured-disc cover, its closed forms and the slit map."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholo import covering, hyperbolic
from biholo.covering import (
    TWO_PI,
    DeckRangeWarning,
    build_slit_map,
    circle_supremum,
    deck_minimum,
    deck_minimum_enumerated,
    grid_circle_supremum,
    grid_slit_distance,
    principal_lift,
    punctured_distance,
    punctured_distance_detail,
    slit_distance,
)
from biholo.domains import SlitDisc, contains
from biholo.hyperbolic import disc_distance
from biholo.invariants import WitnessValidationError, slit_embedding_of_disc
from biholo.maps import PrincipalSqrt, Square

P_UNIT = math.exp(-math.pi)  # the modulus with -pi / log p = 1

moduli = st.floats(min_value=0.01, max_value=0.99)


class TestPrincipalLift:
    def test_positive_real(self):
        assert principal_lift(P_UNIT) == pytest.approx(math.pi * 1j, abs=1e-15)

    def test_quarter_turn(self):
        q = math.exp(-1.0) * cmath.exp(1j * math.pi / 2)
        assert principal_lift(q) == pytest.approx(math.pi / 2 + 1j, abs=1e-12)

    def test_round_trip(self):
        q = 0.3 + 0.2j
        assert cmath.exp(1j * principal_lift(q)) == pytest.approx(q, abs=1e-12)

    @given(st.complex_numbers(max_magnitude=0.99, allow_infinity=False, allow_nan=False))
    @settings(max_examples=300)
    def test_round_trip_everywhere(self, q):
        if abs(q) < 1e-6:
            return
        lifted = principal_lift(q)
        assert 0.0 <= lifted.real < TWO_PI
        assert lifted.imag > 0
        assert abs(cmath.exp(1j * lifted) - q) <= 1e-12

    def test_rejects_puncture_and_outside(self):
        with pytest.raises(ValueError):
            principal_lift(0j)
        with pytest.raises(ValueError):
            principal_lift(1.5)


class TestPuncturedDistance:
    def test_coincident(self):
        assert punctured_distance(0.3, 0.3) == 0.0

    def test_antipodal_known_value(self):
        """d(p, -p) at -pi/log p = 1 is log((3 + sqrt 5)/2) / 2."""
        expected = 0.5 * math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert punctured_distance(P_UNIT, -P_UNIT) == pytest.approx(expected, abs=5e-13)
        assert expected == pytest.approx(0.9624236501192069 / 2, abs=5e-16)

    def test_closed_form_matches_enumeration_oracle(self):
        """The three-candidate deck selection equals the enumeration oracle
        bit for bit, at offsets within 1e-14 of pi (where the minimizing
        translate switches), nearly equal moduli and moduli up to 1 - 1e-6."""
        rng = np.random.default_rng(13)
        for i in range(1_000):
            m1 = 1.0 - 10.0 ** rng.uniform(-6.0, -0.01)
            if i % 2:
                m2 = m1 * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))
            else:
                m2 = 1.0 - 10.0 ** rng.uniform(-6.0, -0.01)
            offset = math.pi + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, 0.0)
            phase = rng.uniform(0.0, TWO_PI)
            p = m1 * cmath.exp(1j * phase)
            q = m2 * cmath.exp(1j * (phase + offset))
            assert punctured_distance(p, q) == punctured_distance_detail(p, q).value

    def test_metric_dominates_disc_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            q = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if min(abs(p), abs(q)) < 1e-3:
                continue
            assert punctured_distance(p, q) >= disc_distance(p, q) - 5e-13

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pts = []
            while len(pts) < 3:
                z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                if 1e-3 < abs(z) < 0.95:
                    pts.append(z)
            p, q, u = pts
            assert punctured_distance(p, q) == pytest.approx(punctured_distance(q, p), abs=5e-13)
            slack = punctured_distance(p, q) + punctured_distance(q, u) - punctured_distance(p, u)
            assert slack >= -5e-11

    def test_widening_warning_for_tiny_range(self):
        """With K=1 the argmin for a wrap-around offset sits on the boundary."""
        p = 0.9
        q = p * cmath.exp(1j * 6.0)
        with pytest.warns(DeckRangeWarning):
            detail = punctured_distance_detail(p, q, deck_range=1)
        assert detail.widened
        assert detail.deck_range > 1
        assert detail.value == pytest.approx(deck_minimum(p, TWO_PI - 6.0), abs=5e-13)

    def test_argmin_is_reported(self):
        detail = punctured_distance_detail(0.5, 0.5 * cmath.exp(1j * 3.0))
        assert detail.deck_index in (-1, 0)
        assert not detail.widened


class TestDeckMinimum:
    def test_zero_offset(self):
        assert deck_minimum(0.3, 0.0) == 0.0

    def test_relative_precision_at_tiny_offsets(self):
        """Values of asinh(theta / (2 |log p|)) from a 50-digit reference."""
        assert deck_minimum(0.5, 1e-12) == pytest.approx(1.4426950408889635e-12 / 2, rel=1e-14)
        assert deck_minimum(0.9, 1e-9) == pytest.approx(9.491221581029906e-09 / 2, rel=1e-14)

    def test_full_turn_value(self):
        """At -pi/log p = 1 the offset-2pi value is log(3 + 2 sqrt 2) / 2."""
        assert deck_minimum(P_UNIT, TWO_PI) == pytest.approx(1.762747174039086 / 2, abs=5e-13)

    def test_enumeration_oracle_on_the_valid_range(self):
        """Closed form = enumerated deck infimum for offsets up to pi."""
        rng = np.random.default_rng(8)
        for _ in range(300):
            p = float(rng.uniform(0.01, 0.99))
            theta = float(rng.uniform(0.0, math.pi))
            assert deck_minimum(p, theta) == pytest.approx(
                deck_minimum_enumerated(p, theta, 100), abs=5e-13
            )

    def test_enumeration_wraps_past_pi(self):
        """Beyond pi the infimum uses the deck translate; offsets wrap."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            theta = float(rng.uniform(math.pi, TWO_PI))
            assert deck_minimum_enumerated(p, theta, 100) == pytest.approx(
                deck_minimum(p, min(theta, TWO_PI - theta)), abs=5e-13
            )

    def test_specific_enumeration_match(self):
        assert deck_minimum(math.exp(-1.0), math.pi) == pytest.approx(
            deck_minimum_enumerated(math.exp(-1.0), math.pi, 200), abs=5e-13
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            deck_minimum(1.5, 1.0)
        with pytest.raises(ValueError):
            deck_minimum(0.5, -0.1)


class TestSlitDistance:
    def test_unit_ratio_value(self):
        """r(p) = log(1 + sqrt 2) / 2 when -pi/log p = 1."""
        assert slit_distance(P_UNIT) == pytest.approx(0.8813735870195429 / 2, abs=5e-13)

    def test_value_near_boundary(self):
        # frozen from the closed form; cross-checked against the grid oracle
        assert slit_distance(0.9) == pytest.approx(4.088525462714188 / 2, abs=5e-13)

    def test_grid_minimization_oracle(self):
        for p in (P_UNIT, 0.9, 0.4):
            assert grid_slit_distance(p, 100_000) == pytest.approx(slit_distance(p), abs=5e-5)

    def test_vanishes_toward_the_puncture(self):
        """r decays like pi / (2 log(1/p)), monotonically, as p -> 0."""
        values = [slit_distance(10.0**-k) for k in range(1, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert slit_distance(1e-300) < 2.5e-3

    def test_kobayashi_mode_halves(self):
        """The Kobayashi slit distance is half the curvature -1 one,
        ``asinh(-pi / log p)``, bit for bit."""
        assert 2.0 * slit_distance(0.5) == math.asinh(-math.pi / math.log(0.5))


class TestCircleSupremum:
    def test_unit_ratio_value(self):
        assert circle_supremum(P_UNIT) == pytest.approx(1.762747174039086 / 2, abs=5e-13)

    @given(p=moduli)
    @settings(max_examples=500)
    def test_twice_the_slit_distance(self, p):
        """The supremum closed form is exactly twice the slit distance."""
        assert abs(circle_supremum(p) - 2.0 * slit_distance(p)) <= 5e-13

    def test_relative_accuracy_against_mpmath(self):
        """Within 1e-15 relative of ``asinh(-pi / log p)`` at 50 digits,
        down to subnormal moduli, where the ``log(2 x^2 + 1 + ...)`` form
        was 2.3e-14 off."""
        mpmath = pytest.importorskip("mpmath", reason="the 50-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        for p in np.geomspace(1e-320, 0.999, 2_000).tolist() + [4.4e-323]:
            ref = mp.asinh(-mp.pi / mp.log(mp.mpf(p)))
            assert abs(mp.mpf(circle_supremum(p)) - ref) <= 1e-15 * ref, (p, circle_supremum(p), ref)

    def test_grid_supremum_oracle(self):
        for p in (P_UNIT, 0.5):
            sup, argmax = grid_circle_supremum(p, 1_000_000)
            assert sup == pytest.approx(circle_supremum(p), abs=5e-5)
            assert argmax > TWO_PI - 1e-3

    def test_matches_full_turn_deck_value(self):
        """The statement's sign typo is resolved toward the positive form,
        pinned here against the offset-2pi limit of the deck closed form."""
        for p in (0.1, 0.3, 0.7, 0.9):
            assert circle_supremum(p) == pytest.approx(deck_minimum(p, TWO_PI), abs=5e-13)

    def test_true_metric_supremum_is_antipodal(self):
        """The metric supremum over the circle sits at the antipode and is
        dominated by the closed-form supremum."""
        p = 0.3
        thetas = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        dists = [punctured_distance(p, p * cmath.exp(1j * t)) for t in thetas[1:]]
        assert max(dists) == pytest.approx(deck_minimum(p, math.pi), abs=5e-11)
        assert max(dists) <= circle_supremum(p) + 5e-13


class TestOracleIndependence:
    def test_oracles_do_not_call_the_distance_they_check(self, monkeypatch):
        """The enumeration and grid oracles evaluate the acosh form of the
        half-plane distance themselves: with the asinh form unavailable they
        still return, and agree with the closed forms."""

        def unavailable(z, w):
            raise AssertionError("an oracle called the production half-plane distance")

        monkeypatch.setattr(covering, "halfplane_distance", unavailable)
        monkeypatch.setattr(hyperbolic, "halfplane_distance", unavailable)
        for p, theta in ((0.2, 0.3), (0.5, math.pi), (0.9, 1e-6)):
            assert deck_minimum_enumerated(p, theta) == pytest.approx(deck_minimum(p, theta), abs=5e-13)
        for p in (P_UNIT, 0.5, 0.9):
            assert grid_slit_distance(p) == pytest.approx(slit_distance(p), abs=5e-5)
            sup, argmax = grid_circle_supremum(p)
            assert sup == pytest.approx(circle_supremum(p), abs=5e-5)
            assert argmax > TWO_PI - 1e-3


class TestSlitMap:
    def test_normalization(self):
        chain = build_slit_map(0.9)
        assert abs(chain.apply(0j) - 0.9) <= 1e-10

    def test_round_trip(self):
        chain = build_slit_map(0.3)
        rng = np.random.default_rng(12)
        for _ in range(500):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            assert abs(chain.unapply(chain.apply(z)) - z) <= 1e-10

    def test_boundary_approaching_images_stay_in_slit_disc(self):
        """The near-boundary coverage of the slit map: ``validate`` samples
        the disc uniformly, so it rarely comes this close to the circle."""
        chain = build_slit_map(0.5)
        rng = np.random.default_rng(13)
        slit = SlitDisc()
        radii = 1.0 - np.geomspace(1e-5, 0.5, 10_000)
        for r, t in zip(radii, rng.uniform(0.0, TWO_PI, radii.size)):
            w = chain.apply(complex(r * math.cos(t), r * math.sin(t)))
            assert contains(slit, w)

    def test_image_contains_no_centred_circle(self):
        """The image is simply connected: every centred circle meets the slit."""
        image_contains = slit_embedding_of_disc(0.5).image_contains
        for c in (0.05, 0.2, 0.4):
            angles = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
            circle = [c * cmath.exp(1j * t) for t in angles]
            circle[500] = complex(-c, 0.0)  # land the antipode exactly on the slit
            on_image = image_contains(np.array(circle)[:, None])
            assert not on_image.all()
            assert not image_contains([[complex(-c, 0.0)]])[0]

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_chain_on_rows_matches_the_scalar_path(self, p):
        """numpy divides complex numbers differently from Python, so the
        two paths through the chain agree to 1e-12 relative, not bit for bit.
        Radii stay in [0.1, 0.99]: images next to the slit tip and preimages
        next to 0 lose digits to cancellation in either path."""
        chain = build_slit_map(p)
        rng = np.random.default_rng(14)
        r = 1.0 - np.geomspace(1e-2, 0.9, 20_000)
        z = (r * np.exp(1j * rng.uniform(0.0, TWO_PI, r.size)))[:, None]
        w = chain.apply(z)
        assert w.shape == z.shape
        scalar_w = np.array([chain.apply(complex(c)) for c in z[:, 0]])[:, None]
        assert np.all(np.abs(w - scalar_w) <= 1e-12 * np.abs(scalar_w))
        back = chain.unapply(w)
        scalar_back = np.array([chain.unapply(complex(c)) for c in w[:, 0]])[:, None]
        assert np.all(np.abs(back - scalar_back) <= 1e-12 * np.abs(scalar_back))

    def test_square_root_steps_match_cmath_bit_for_bit(self):
        rng = np.random.default_rng(15)
        z = (rng.normal(size=5_000) + 1j * rng.normal(size=5_000)) * np.exp(rng.uniform(-20, 20, 5_000))
        signed_zeros = [complex(x, y) for x in (-2.0, -0.0, 0.0, 2.0) for y in (-0.0, 0.0)]
        z = np.concatenate([z, -np.abs(z[:100].real) + 0j, np.array(signed_zeros)])
        z[-len(signed_zeros) - 50 : -len(signed_zeros)].imag = -0.0  # below the cut
        for root in (PrincipalSqrt().apply, Square().unapply):
            rows, scalar = root(z), np.array([root(complex(c)) for c in z])
            assert rows.tobytes() == scalar.tobytes()

    def test_validation_catches_broken_normalization(self):
        broken = dataclasses.replace(slit_embedding_of_disc(0.4), target_basepoint=(0.7 + 0j,))
        with pytest.raises(WitnessValidationError, match="normalization"):
            broken.validate()

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            build_slit_map(1.5)
