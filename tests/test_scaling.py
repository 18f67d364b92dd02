"""Tests for dilations, Hausdorff-limit diagnostics and boundary experiments."""

import cmath
import hashlib
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholo.domains import (
    Ball,
    HalfPlaneC,
    Multitype,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UnsupportedDomainError,
    UpperHalfPlane,
    WeightedModel,
    as_point,
    contains,
    defining_value,
    modulus_power,
)
from biholo import metrics
from biholo.hyperbolic import disc_distance
from biholo.metrics import ball_distance, sample_metric_ball
from biholo.scaling import (
    BoundaryApproach,
    Dilation,
    ScaledFamily,
    ball_inclusion_check,
    complex_grid,
    convergence_experiment,
    hausdorff_check,
    invariance_check,
    loglog_slope,
    make_anisotropic,
    make_isotropic,
    rescale,
    tangential_modulus_remainder,
)

small_complex = st.complex_numbers(max_magnitude=3.0, allow_infinity=False, allow_nan=False)


def disc_family(j_start=1, j_end=12):
    approach = BoundaryApproach.geometric((1.0,), (1.0,), j_start, j_end)
    return make_isotropic(Ball(1), approach)


def quartic_family(remainder_exponent=None, j_end=10):
    mt = Multitype((1, 4))
    approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, j_end)
    if remainder_exponent is None:
        return make_anisotropic(modulus_power(1, 0, 2), mt, approach)
    return make_anisotropic(modulus_power(1, 0, 2), mt, approach, (remainder_exponent,))


def scalar_hausdorff(family, grid):
    """Per step, the sup error and the membership agreement of
    ``hausdorff_check``, computed one point at a time."""
    pts = [as_point(p, family.limit.dim) for p in grid]
    limit = [defining_value(family.limit, p) for p in pts]
    out = []
    for idx in range(len(family)):
        scaled = [family.scaled_defining(idx, p) for p in pts]
        sup = max(abs(s - v) for s, v in zip(scaled, limit))
        agree = sum((s < 0.0) == (v < 0.0) for s, v in zip(scaled, limit))
        out.append((sup, agree / len(pts)))
    return out


class TestBoundaryApproach:
    def test_points_march_inward(self):
        approach = BoundaryApproach.geometric((1.0,), (1.0,), 1, 5)
        for p, d in zip(approach.points(), approach.deltas):
            assert p[0] == pytest.approx(1.0 - d, abs=1e-15)

    def test_steps_must_decrease(self):
        with pytest.raises(ValueError):
            BoundaryApproach((1.0,), (1.0,), (0.1, 0.2))

    @pytest.mark.parametrize(
        "deltas",
        [(0.5, 0.0), (0.5, -0.25), (math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan)],
        ids=["zero", "negative", "nan", "inf", "trailing-nan"],
    )
    def test_steps_must_be_finite_and_positive(self, deltas):
        with pytest.raises(ValueError, match="finite and positive"):
            BoundaryApproach((1.0,), (1.0,), deltas)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_geometric_ratio_must_give_finite_steps(self, ratio):
        with pytest.raises(ValueError, match="finite and positive"):
            BoundaryApproach.geometric((1.0,), (1.0,), 1, 5, ratio)

    def test_labels_follow_the_exponents(self):
        approach = BoundaryApproach.geometric((1.0,), (1.0,), 3, 7)
        assert approach.js == (3, 4, 5, 6, 7)


class TestIsotropicFamily:
    def test_limit_is_the_expected_halfplane(self):
        """|z|^2 - 1 at the boundary point 1 rescales to {2 Re z < 1}."""
        fam = disc_family()
        assert isinstance(fam.limit, HalfPlaneC)
        assert fam.limit.linear_coeff == pytest.approx(1.0, abs=1e-12)
        assert contains(fam.limit, 0j)

    def test_base_point_image_converges_to_half(self):
        fam = disc_family(1, 10)
        for dil, d in zip(fam.dilations, fam.approach.deltas):
            img = dil.forward((1.0 + 0j,))[0]
            assert img == pytest.approx(1.0 / (2.0 - d), abs=1e-12)

    def test_normalization_is_exact(self):
        fam = disc_family()
        for dil, p in zip(fam.dilations, fam.approach.points()):
            assert abs(dil.forward(p)[0]) <= 1e-12

    @pytest.mark.parametrize("d", [Ball(1), PuncturedDisc()], ids=["disc", "punctured"])
    def test_numeric_gradient_agrees_with_analytic(self, d):
        """``dz`` is the Wirtinger derivative of ``defining`` on its piece
        ``|z|^2 - 1``, which is the punctured disc's where ``|z| > 0.62``."""
        h = 1e-6

        def rho(z):
            return d.defining((z,))

        for z in (1.0 + 0j, 0.5 + 0.5j, -0.2 + 0.9j):
            dx = (rho(z + h) - rho(z - h)) / (2.0 * h)
            dy = (rho(z + 1j * h) - rho(z - 1j * h)) / (2.0 * h)
            assert d.dz((z,))[0] == pytest.approx(0.5 * complex(dx, -dy), abs=1e-8)

    def test_vanishing_gradient_rejected(self):
        """The puncture is a boundary point of the punctured disc, where the
        outer circle's derivative ``dz`` reads 0."""
        approach = BoundaryApproach((0j,), (1.0,), (0.5, 0.25))
        with pytest.raises(ValueError, match="gradient"):
            make_isotropic(PuncturedDisc(), approach)

    @pytest.mark.parametrize("d", [Ball(2), UpperHalfPlane(), SlitDisc()], ids=["ball2", "halfplane", "slit"])
    def test_variant_without_planar_dz_rejected(self, d):
        """Isotropic rescaling needs a planar variant with ``dz``."""
        approach = BoundaryApproach.geometric((1.0,), (1.0,), 1, 4)
        with pytest.raises(UnsupportedDomainError, match=f"no isotropic rescaling of {d.label}"):
            make_isotropic(d, approach)

    @pytest.mark.parametrize("base,off", [(0.5, True), (1.0 + 1e-12, True), (1.0 + 2e-13, False)])
    def test_base_point_off_the_boundary_rejected(self, base, off):
        """The base point lies on the boundary to ``BOUNDARY_TOL``, the
        tolerance of the gradient check: ``|rho|`` is 0.75 at 0.5, 2e-12 at
        ``1 + 1e-12`` and 4e-13 at ``1 + 2e-13``.  Off it, the rescaled
        domains would not converge to the limit built from the gradient."""
        approach = BoundaryApproach.geometric((base,), (1.0,), 3, 8)
        if off:
            with pytest.raises(ValueError, match="off the boundary"):
                make_isotropic(Ball(1), approach)
        else:
            assert make_isotropic(Ball(1), approach).limit == HalfPlaneC(base)

    def test_exterior_approach_rejected(self):
        approach = BoundaryApproach((1.0,), (-1.0,), (0.5, 0.25))  # marches outward
        with pytest.raises(ValueError, match="inside"):
            make_isotropic(Ball(1), approach)

    @given(z=small_complex)
    @settings(max_examples=300)
    def test_round_trip(self, z):
        dil = Dilation((0.875 + 0j,), 0.234375, (1.0,))
        back = dil.inverse(dil.forward(z))[0]
        assert abs(back - z) <= 1e-12 * (1.0 + abs(z))


class TestHausdorffCheck:
    def test_disc_family_passes_with_unit_slope(self):
        fam = disc_family(3, 12)
        report = hausdorff_check(fam, complex_grid(-2, 2, 21), tol=1e-2)
        assert report.passed
        assert report.slope == pytest.approx(1.0, abs=0.15)
        assert report.rows[-1].membership_agreement > 0.99

    @pytest.mark.parametrize("which", ["disc", "quartic-sextic-remainder"])
    def test_rows_agree_with_points(self, which):
        """Rows give the membership agreement of the scalar loop exactly and
        its sup error to rounding: the array kernels of ``abs`` and complex
        powers may differ from Python's by an ulp, which the division by a
        small scale magnifies."""
        coarse = complex_grid(-2, 2, 7)
        if which == "disc":
            fam, grid = disc_family(3, 12), complex_grid(-2, 2, 21)
        else:
            fam, grid = quartic_family(remainder_exponent=6), [(a, b) for a in coarse for b in coarse]
        report = hausdorff_check(fam, grid, tol=1e-2)
        for row, (sup, agree) in zip(report.rows, scalar_hausdorff(fam, grid), strict=True):
            assert row.membership_agreement == agree
            assert row.sup_error == pytest.approx(sup, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [5, 15, 21])
    def test_complex_grid_is_the_list_of_its_points(self, n):
        """The array holds, in order, the points the grid once listed as
        ``complex(a, b)``, signs of zero included."""
        axis = np.linspace(-2, 2, n)
        points = [complex(a, b) for a in axis for b in axis]
        grid = complex_grid(-2, 2, n)
        assert grid.dtype == complex and grid.tolist() == points
        assert grid.tobytes() == np.array(points).tobytes()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            hausdorff_check(disc_family(), [], tol=1e-2)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-2])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            hausdorff_check(disc_family(), complex_grid(-2, 2, 5), tol=tol)

    def test_empirical_constant_is_reported(self):
        fam = disc_family(1, 8)
        report = hausdorff_check(fam, complex_grid(-2, 2, 15), tol=5e-2)
        # sup |difference| = 2 delta |Re w| + (2 delta - delta^2)|w|^2 <= ~20 delta
        assert 10.0 < report.empirical_constant < 21.0

    def test_zero_remainder_scales_exactly(self):
        """Exact weight-one data rescales onto the limit up to float dust."""
        fam = quartic_family(remainder_exponent=None)
        grid = [(complex(a, b), complex(c, 0.2)) for a in (-1, 1) for b in (0, 1) for c in (-1, 0.5)]
        report = hausdorff_check(fam, grid, tol=1e-12)
        assert report.passed
        assert all(r.sup_error <= 1e-13 for r in report.rows)

    def test_sextic_remainder_decays_at_the_weight_rate(self):
        """|z1|^6 under (1, 4) rescales like delta^(1/2)."""
        fam = quartic_family(remainder_exponent=6)
        assert tangential_modulus_remainder((6,), Multitype((1, 4)))[1] == 0.5
        grid = [
            (complex(a, b), complex(c, d))
            for a in (-1.0, 0.5, 1.0)
            for b in (-1.0, 0.0, 1.0)
            for c in (-1.0, 0.0, 1.0)
            for d in (-0.5, 0.5)
        ]
        report = hausdorff_check(fam, grid, tol=1e-1)
        assert report.slope == pytest.approx(0.5, abs=0.1)

    def test_siegel_limit_for_sum_of_squares(self):
        """|z1|^2 + |z2|^2 with multitype (1, 2, 2) scales to the unbounded
        ball realization."""
        mt = Multitype((1, 2, 2))
        poly = modulus_power(2, 0, 1) + modulus_power(2, 1, 1)
        approach = BoundaryApproach.geometric((0j, 0j, 0j), (0j, 0j, 1.0), 1, 8)
        fam = make_anisotropic(poly, mt, approach)
        assert fam.limit == Siegel(3)
        assert fam.basepoint == (0j, 0j, -1.0 + 0j)
        assert contains(fam.limit, fam.basepoint)
        from biholo.domains import defining_value

        assert defining_value(fam.limit, fam.basepoint) == pytest.approx(-2.0, abs=1e-15)


class TestAnisotropicDilations:
    def test_basepoint_normalization(self):
        fam = quartic_family()
        for dil, p in zip(fam.dilations, fam.approach.points()):
            img = dil.forward(p)
            assert max(abs(u - v) for u, v in zip(img, fam.basepoint)) <= 1e-12

    def test_inhomogeneous_polynomial_rejected(self):
        mt = Multitype((1, 4))
        bad = modulus_power(1, 0, 2) + modulus_power(1, 0, 1, 2.0)
        approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 5)
        with pytest.raises(ValueError, match="homogeneous"):
            make_anisotropic(bad, mt, approach)

    @pytest.mark.parametrize("exponent", [4, 2, 0], ids=["rate-0", "rate-minus-half", "constant"])
    def test_non_decaying_remainder_rejected(self, exponent):
        """A remainder with rate ``sum_k e_k w_k - 1 <= 0`` (|z1|^4 under
        (1, 4) has rate 0) does not vanish in the limit, so the family
        cannot converge and is refused up front."""
        mt = Multitype((1, 4))
        approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 5)
        with pytest.raises(ValueError, match="does not decay"):
            make_anisotropic(modulus_power(1, 0, 2), mt, approach, (exponent,))

    def test_remainder_needs_one_exponent_per_tangential_variable(self):
        mt = Multitype((1, 4))
        approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 5)
        with pytest.raises(ValueError, match="one exponent"):
            make_anisotropic(modulus_power(1, 0, 2), mt, approach, (6, 6))

    @pytest.mark.parametrize("exponent", [6.5, 6.0, "6"], ids=["fraction", "float", "string"])
    def test_remainder_exponents_must_be_integers(self, exponent):
        """6.5 would otherwise run as ``|z1|^6``, with rate 0.5 for 0.625."""
        with pytest.raises(ValueError, match="must be integers"):
            tangential_modulus_remainder((exponent,), Multitype((1, 4)))

    def test_float_weights(self):
        mt = Multitype((1, 4, 2))
        assert mt.tangential_exponents() == (0.5, 0.25)

    def test_unnormalized_coordinates_rejected(self):
        mt = Multitype((1, 4))
        approach = BoundaryApproach.geometric((0.5 + 0j, 0j), (0j, 1.0), 1, 5)
        with pytest.raises(ValueError, match="normalized"):
            make_anisotropic(modulus_power(1, 0, 2), mt, approach)

    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2), d=st.floats(-2, 2),
        delta=st.floats(0.01, 1.9),
    )
    @settings(max_examples=300)
    def test_round_trip(self, a, b, c, d, delta):
        dil = Dilation((0j, 0j), delta, (0.25, 1.0))
        z = (complex(a, b), complex(c, d))
        back = dil.inverse(dil.forward(z))
        assert max(abs(u - v) for u, v in zip(back, z)) <= 1e-12 * (1.0 + max(map(abs, z)))

    def test_center_needs_one_coordinate_per_exponent(self):
        """A short center would otherwise drop the last coordinates."""
        dil = Dilation((0j,), 0.5, (0.25, 1.0))
        for apply in (dil.forward, dil.inverse):
            with pytest.raises(ValueError, match="shorter"):
                apply((1j, 2j))


class TestScaledFamily:
    def test_settable_values(self):
        """A family is its data and two functions; no variant tag."""
        assert [f.name for f in fields(ScaledFamily)] == [
            "approach", "dilations", "limit", "basepoint", "defining", "distance",
        ]

    def test_scaled_defining_is_the_rescaled_defining_function(self):
        """``defining(T_j^-1 w) / scale_j`` for both dilation types."""
        w = (0.3 - 0.2j, -0.7 + 0.1j)
        fam = quartic_family(remainder_exponent=6)
        for idx, dil in enumerate(fam.dilations):
            z = dil.inverse(w)
            expected = (2.0 * z[1].real + abs(z[0]) ** 4 + abs(z[0]) ** 6) / dil.scale
            assert fam.scaled_defining(idx, w) == pytest.approx(expected, rel=1e-14)
        disc = disc_family(1, 6)
        for idx, dil in enumerate(disc.dilations):
            z = dil.inverse(w[:1])[0]
            assert disc.scaled_defining(idx, w[:1]) == (abs(z) ** 2 - 1.0) / dil.scale

    @pytest.mark.parametrize("which", ["disc", "quartic-sextic-remainder", "siegel"])
    def test_all_steps_equal_each_step_bit_for_bit(self, which):
        """A slice of steps puts them on a leading axis of one evaluation,
        whose row for a step is that step's own values bit for bit, on rows
        inside and outside the scaled domains."""
        if which == "disc":
            fam, rows = disc_family(1, 12), complex_grid(-2, 2, 21)[:, None]
        else:
            if which == "siegel":
                approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 10)
                fam = make_anisotropic(modulus_power(1, 0, 1), Multitype((1, 2)), approach)
            else:
                fam = quartic_family(remainder_exponent=6)
            coarse = complex_grid(-2, 2, 7)
            rows = np.array([(a, b) for a in coarse for b in coarse])
        stacked = fam.scaled_defining(slice(None), rows.T)
        assert stacked.shape == (len(fam), len(rows))
        assert (stacked < 0.0).any(axis=1).all() and (stacked > 0.0).any(axis=1).all()
        for idx in range(len(fam)):
            assert stacked[idx].tobytes() == fam.scaled_defining(idx, rows.T).tobytes()
        assert fam.scaled_defining(slice(2, 5), rows.T).tobytes() == stacked[2:5].tobytes()

    def test_stacked_dilations_share_their_exponents(self):
        with pytest.raises(ValueError, match="share their exponents"):
            Dilation.stack([Dilation((0j, 0j), 0.5, (0.25, 1.0)), Dilation((0j, 0j), 0.5, (0.5, 1.0))])

    def test_distance_only_where_computable(self):
        assert disc_family().distance is not None
        assert quartic_family().distance is None
        assert quartic_family(remainder_exponent=6).distance is None


def _hexed(value):
    """A report with every float as ``float.hex``, field by field."""
    if is_dataclass(value):
        return tuple((f.name, _hexed(getattr(value, f.name))) for f in fields(value))
    if isinstance(value, tuple):
        return tuple(map(_hexed, value))
    return value.hex() if isinstance(value, float) else value


def _digest(report) -> str:
    return hashlib.sha256(repr(_hexed(report)).encode()).hexdigest()


# sha256 of the reports with every float as float.hex, recorded from the
# families built by hand before the variants built them: |z|^2 - 1 with its
# derivative and disc_distance, or with punctured_distance.  The disc family
# (steps 1-12) at three base points: Hausdorff on complex_grid(-2, 2, 21) with
# tol 1e-2, and ball inclusion at R = 1, eps = 0.1, 120 samples, seed 0.
# The ball inclusion at 1 and at -i agree: the samples turn with the half-plane.
DISC_FAMILY_PINS = {
    "1": (
        "f3bd8ef57a97e7af55259d6ddaac8c01f5001e94a91a9b6e6d566f4b5b0abd36",
        "d431546a60792e79b966b3237c4d41771862bb0f0548f0c9d676abdb2c5a4ad5",
    ),
    "exp(0.7i)": (
        "f480e7f4cfe606c0ecad4b8ec83eaaa2f8031c5d45fcdcaef88ffa5dcf0a90ea",
        "c936e8a324d7b7a12bad9bbdb81d2ffda6f5f73dbd6cea22cff0d47f70128a88",
    ),
    "-i": (
        "9ad6e2d8b32cbf494981fc6a34fcfd681e4f68062131cf6a263431e1c508d4d3",
        "d431546a60792e79b966b3237c4d41771862bb0f0548f0c9d676abdb2c5a4ad5",
    ),
}
BASE_POINTS = {"1": 1.0, "exp(0.7i)": cmath.exp(0.7j), "-i": -1j}
# The punctured family (steps 3-12 at 1, in TestBallInclusion): ball inclusion
# as above.  Its Hausdorff report is not pinned: the grid reaches |z| < 0.618
# at j = 3, where PuncturedDisc.defining's -|z| piece, absent from |z|^2 - 1,
# is active.
PUNCTURED_BALL_INCLUSION_PIN = "27131ebe147f9319f40e30b79b38b9ee515110ddf391daa865fee8533ebf0aef"


class TestVariantFamilies:
    @pytest.mark.parametrize("base", list(DISC_FAMILY_PINS))
    def test_disc_family_reports_are_pinned(self, base):
        approach = BoundaryApproach.geometric((BASE_POINTS[base],), (BASE_POINTS[base],), 1, 12)
        fam = make_isotropic(Ball(1), approach)
        hausdorff = hausdorff_check(fam, complex_grid(-2, 2, 21), 1e-2)
        inclusion = ball_inclusion_check(fam, radius=1.0, eps=0.1, samples=120, seed=0)
        assert (_digest(hausdorff), _digest(inclusion)) == DISC_FAMILY_PINS[base]

    def test_family_reads_the_variant(self):
        """The family's defining function is the variant's, ``-|z|`` near
        the puncture, and its distance the record's at the pulled-back
        points, to rounding (rows against a point)."""
        fam = make_isotropic(PuncturedDisc(), BoundaryApproach.geometric((1,), (1,), 3, 6))
        assert fam.limit == HalfPlaneC(1.0) and fam.defining((0.1j,)) == -0.1
        rows = np.array([[0.1 + 0.2j], [-0.3j]])
        dil = fam.dilations[2]
        expected = metrics.kobayashi_distance(PuncturedDisc(), dil.inverse((0j,)), dil.inverse(rows[1]))
        assert fam.distance(2, (0j,), rows)[1] == pytest.approx(expected, rel=1e-14)


class TestInvarianceCheck:
    def test_square_modulus_invariant(self):
        assert invariance_check(modulus_power(1, 0, 1), Multitype((1, 2)), trials=10_000)

    def test_quartic_invariant(self):
        assert invariance_check(modulus_power(1, 0, 2), Multitype((1, 4)), trials=10_000)

    def test_sum_of_squares_invariant(self):
        poly = modulus_power(2, 0, 1) + modulus_power(2, 1, 1)
        assert invariance_check(poly, Multitype((1, 2, 2)), trials=10_000)

    def test_inhomogeneous_counterexample(self):
        bad = modulus_power(1, 0, 2) + modulus_power(1, 0, 1, 2.0)
        assert not invariance_check(bad, Multitype((1, 4)), trials=10_000)

    @pytest.mark.parametrize("seed", range(10))
    def test_verdicts_do_not_depend_on_the_seed(self, seed):
        assert invariance_check(modulus_power(1, 0, 1), Multitype((1, 2)), seed=seed)
        assert invariance_check(modulus_power(1, 0, 2), Multitype((1, 4)), seed=seed)
        bad = modulus_power(1, 0, 2) + modulus_power(1, 0, 1, 2.0)
        assert not invariance_check(bad, Multitype((1, 4)), seed=seed)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials_rejected(self, trials):
        """Zero trials would check nothing and report invariance."""
        with pytest.raises(ValueError, match=f"^the invariance check needs at least one trial, got {trials}$"):
            invariance_check(modulus_power(1, 0, 1), Multitype((1, 2)), trials=trials)

    def test_exact_scaling_identity_on_memberships(self):
        """For weight-one data the defining value scales exactly by 1/delta."""
        rng = np.random.default_rng(17)
        mt = Multitype((1, 4))
        poly = modulus_power(1, 0, 2)
        model = WeightedModel(mt, poly)
        from biholo.domains import defining_value, sample_point

        for _ in range(500):
            z = sample_point(model, rng)
            delta = float(rng.uniform(0.05, 2.0))
            dil = Dilation((0j, 0j), delta, (0.25, 1.0))
            lhs = defining_value(model, dil.forward(z))
            rhs = defining_value(model, z) / delta
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBallInclusion:
    def test_disc_family_stabilizes(self):
        fam = disc_family(1, 12)
        report = ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=120, seed=0)
        assert report.passed
        assert report.j0 is not None
        for row in report.rows:
            if row.j >= report.j0:
                assert row.inside

    def test_punctured_disc_family_stabilizes(self):
        """The punctured disc rescaled at 1 has the disc's half-plane limit
        and its own distance on rows; that distance is at least the disc's,
        since the punctured disc lies in the disc, and the worst distance
        comes down to R - eps = 0.9 as the scaled domains fill the limit."""
        approach = BoundaryApproach.geometric((1,), (1,), 3, 12)
        report, disc = (
            ball_inclusion_check(make_isotropic(d, approach), radius=1.0, eps=0.1, samples=120, seed=0)
            for d in (PuncturedDisc(), Ball(1))
        )
        assert _digest(report) == PUNCTURED_BALL_INCLUSION_PIN
        assert report.passed and report.j0 == 4
        assert [row.inside for row in report.rows] == [row.inside for row in disc.rows]
        assert all(a.max_distance >= b.max_distance for a, b in zip(report.rows, disc.rows))
        assert 0.9 < report.rows[-1].max_distance < 0.901

    def test_rows_agree_with_points(self):
        """Membership on rows gives the rows of a loop over points exactly.
        The distances on rows give the scalar closed form's maximum to 4 ulp,
        not bit for bit: numpy's ``arcsinh`` and complex ``abs`` may differ
        from libm's by an ulp."""
        fam = disc_family(1, 12)
        report = ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=120, seed=3)
        pts = sample_metric_ball(fam.limit, fam.basepoint, 0.45, 120, np.random.default_rng(3))
        for idx, row in enumerate(report.rows):
            dil = fam.dilations[idx]
            inside = [fam.scaled_defining(idx, q) < 0.0 for q in pts]
            worst = max(disc_distance(dil.center[0], dil.inverse(q)[0]) for q, ok in zip(pts, inside) if ok)
            assert row.inside == (all(inside) and worst <= 0.5)
            assert abs(row.max_distance - worst) <= 4 * math.ulp(worst)
        assert not report.rows[0].inside and report.rows[-1].inside

    @pytest.mark.parametrize("which", ["disc", "siegel"])
    def test_one_distance_call_per_step(self, which):
        """The distances of a step are one call on rows, not one per sample."""
        if which == "disc":
            fam = disc_family(1, 12)
        else:
            approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 10)
            fam = make_anisotropic(modulus_power(1, 0, 1), Multitype((1, 2)), approach)
        calls = []

        def counting(index, u, rows):
            calls.append(index)
            return fam.distance(index, u, rows)

        report = ball_inclusion_check(replace(fam, distance=counting), radius=0.5, eps=0.05, samples=200, seed=0)
        assert calls == list(range(len(fam)))
        assert report == ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=200, seed=0)

    def test_ball_at_its_sphere_stabilizes_at_the_rate_of_delta(self):
        """The ball rescaled at (0, 1), in ``w = z2 - 1``: ``{2 Re w + |z1|^2 +
        |w|^2 < 0}``, whose scaled domains add ``delta |w|^2`` to the Siegel
        limit, so none is the limit.  Each lies in Siegel, so its distance is
        at least the Siegel record's, which goes through the Cayley map; the
        worst distance comes down to R - eps with the gap halving per step."""
        approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 10)
        fam = rescale(
            WeightedModel(Multitype((1, 2)), modulus_power(1, 0, 1)),
            approach,
            lambda z: 2.0 * z[1].real + abs(z[0]) ** 2 + abs(z[1]) ** 2,
            lambda p, q: ball_distance((p[0], p[1] + 1.0), (q[0], q[1] + 1.0)),
        )
        assert fam.limit == Siegel(2)
        report = ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=2000, seed=0)
        assert report.j0 == 3
        assert [round(r.max_distance, 4) for r in report.rows[:3]] == [0.7611, 0.5582, 0.4955]
        slope = loglog_slope([(r.delta, r.max_distance - 0.45) for r in report.rows[2:]])
        assert slope == pytest.approx(1.036, abs=1e-3)
        grid = complex_grid(-2, 2, 5)
        hausdorff = hausdorff_check(fam, [(a, b) for a in grid for b in grid], tol=1e-2)
        assert hausdorff.passed and hausdorff.slope == pytest.approx(1.0, abs=1e-9)
        pts = sample_metric_ball(fam.limit, fam.basepoint, 0.45, 500, np.random.default_rng(0))
        siegel = metrics._geometry(fam.limit).distance(fam.limit, fam.basepoint, pts.T)
        gaps = [fam.distance(idx, fam.basepoint, pts) - siegel for idx in range(len(fam))]
        assert all(gap.min() > 0.0 for gap in gaps)
        assert 0.3 < gaps[0].max() < 0.35 and 3e-4 < gaps[-1].max() < 4e-4
        assert all(0.4 < b.max() / a.max() < 0.6 for a, b in zip(gaps[1:], gaps[2:]))

    @pytest.mark.parametrize("offset,off", [(-1.0, True), (2e-12, True), (5e-13, False)])
    def test_defining_off_the_base_point_rejected(self, offset, off):
        """A given defining function vanishes at the base point 0 to
        ``BOUNDARY_TOL``: the ball at its sphere, ``{2 Re w + |z1|^2 + |w|^2
        < 0}``, shifted by ``offset``."""
        approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 4)
        model = WeightedModel(Multitype((1, 2)), modulus_power(1, 0, 1))

        def defining(z):
            return 2.0 * z[1].real + abs(z[0]) ** 2 + abs(z[1]) ** 2 + offset

        if off:
            with pytest.raises(ValueError, match="off the boundary"):
                rescale(model, approach, defining)
        else:
            assert rescale(model, approach, defining).limit == Siegel(2)

    def test_distance_needs_a_defining_function(self):
        approach = BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 4)
        with pytest.raises(ValueError, match="defining function"):
            rescale(WeightedModel(Multitype((1, 2)), modulus_power(1, 0, 1)), approach, distance=ball_distance)

    def test_small_radius_passes_early(self):
        fam = disc_family(1, 8)
        report = ball_inclusion_check(fam, radius=0.05, eps=0.025, samples=80, seed=0)
        assert report.passed
        assert report.j0 <= 3

    def test_zero_eps_is_allowed_but_not_required_to_pass(self):
        fam = disc_family(1, 8)
        report = ball_inclusion_check(fam, radius=0.25, eps=0.0, samples=80, seed=0)
        assert isinstance(report.passed, bool)

    def test_exactly_invariant_family_is_trivial(self):
        mt = Multitype((1, 2, 2))
        poly = modulus_power(2, 0, 1) + modulus_power(2, 1, 1)
        approach = BoundaryApproach.geometric((0j, 0j, 0j), (0j, 0j, 1.0), 1, 6)
        fam = make_anisotropic(poly, mt, approach)
        report = ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=60, seed=0)
        assert report.passed
        assert report.j0 == 1

    def test_unsupported_family_raises(self):
        fam = quartic_family()  # quartic model: no computable distance
        with pytest.raises(UnsupportedDomainError, match="^no computable Kobayashi distance for this scaled family$"):
            ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=40, seed=0)


class TestConvergenceExperiment:
    def test_upper_bound_decreases_along_the_approach(self):
        approach = BoundaryApproach.geometric((1.0,), (1.0,), 1, 10)
        report = convergence_experiment(PuncturedDisc(), approach)
        assert report.strictly_decreasing
        assert report.rows[2].upper_bound < report.rows[0].upper_bound

    def test_known_value_at_nine_tenths(self):
        approach = BoundaryApproach((1.0,), (1.0,), (0.2, 0.1))
        report = convergence_experiment(PuncturedDisc(), approach)
        assert report.rows[-1].modulus == pytest.approx(0.9, abs=1e-15)
        assert report.rows[-1].upper_bound == pytest.approx(2 * 0.2445869566227784, abs=2e-12)

    def test_other_domains_rejected(self):
        approach = BoundaryApproach((1.0,), (1.0,), (0.5,))
        with pytest.raises(ValueError, match="punctured"):
            convergence_experiment(HalfPlaneC(1.0), approach)


class TestSlopeFit:
    def test_clean_power_law(self):
        pairs = [(2.0**-j, 7.0 * 2.0**-j) for j in range(3, 13)]
        assert loglog_slope(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_data(self):
        assert loglog_slope([(0.5, 0.0), (0.25, 0.0)]) is None
