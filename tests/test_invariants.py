"""Tests for the Fridman invariant and squeezing function machinery."""

import cmath
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from biholo.domains import (
    Ball,
    HalfPlaneC,
    Multitype,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UnsupportedDomainError,
    UpperHalfPlane,
    WeightedModel,
    modulus_power,
    random_unit_vectors,
)
from biholo import invariants, metrics
from biholo.hyperbolic import MetricMode
from biholo.metrics import kobayashi_distance, sample_metric_sphere
from biholo.invariants import (
    BoundEstimate,
    RadiusSearch,
    WitnessValidationError,
    EmbeddingWitness,
    ball_inclusion_into_polydisc,
    fridman_bounds_punctured,
    fridman_exact,
    fridman_upper_from_embedding,
    identity_ball_witness,
    largest_centered_polydisc,
    punctured_automorphism_witness,
    scaled_polydisc_into_ball,
    slit_embedding_of_disc,
    squeezing_exact,
    squeezing_lower_from_embedding,
)

P_UNIT = math.exp(-math.pi)
# a weighted model that is not the Siegel domain: no exact value is known
GENERAL_MODEL = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
# the variants with exact values of both invariants
EXACT_TABLE = [
    Ball(1), Ball(3), Polydisc(2), Polydisc(3), Polydisc(7),
    UpperHalfPlane(), HalfPlaneC(1.0 + 0.5j), Siegel(2), SlitDisc(),
]
# fridman_exact (KOBAYASHI) and squeezing_exact on EXACT_TABLE, as float.hex
EXACT_PINS = [
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x1.2274aa148de08p+0", "0x1.6a09e667f3bccp-1"),
    ("0x1.84c6572759a9bp+0", "0x1.279a74590331dp-1"),
    ("0x1.41dd57939e83ap+1", "0x1.83091e6a7f7e6p-2"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
]


class TestFridmanExact:
    def test_ball_is_zero(self):
        assert fridman_exact(Ball(3), (0.1 + 0j, 0j, 0.2j)) == 0.0

    def test_ball_like_domains_are_zero(self):
        assert fridman_exact(UpperHalfPlane(), 2j) == 0.0
        assert fridman_exact(HalfPlaneC(1.0), 0j) == 0.0
        assert fridman_exact(Siegel(2), (0j, -1.0 + 0j)) == 0.0
        assert fridman_exact(Polydisc(1), 0.3) == 0.0
        assert fridman_exact(SlitDisc(), 0.5) == 0.0

    def test_polydisc_two(self):
        """h = 2 / log((sqrt 2 + 1)/(sqrt 2 - 1)) = 1/artanh(1/sqrt 2)."""
        assert fridman_exact(Polydisc(2), (0j, 0j)) == pytest.approx(
            1.1345926571065112, abs=1e-12
        )

    def test_polydisc_four_any_point(self):
        assert fridman_exact(Polydisc(4), (0.1 + 0j, 0j, 0j, 0.2j)) == pytest.approx(
            2.0 / math.log(3.0), abs=1e-12
        )

    def test_point_independence(self):
        assert fridman_exact(Polydisc(2), (0.5 + 0.1j, -0.3j)) == fridman_exact(
            Polydisc(2), (0j, 0j)
        )

    @pytest.mark.parametrize(
        "dom, pins", [pytest.param(dom, pins, id=repr(dom)) for dom, pins in zip(EXACT_TABLE, EXACT_PINS)]
    )
    def test_exact_values_are_pinned_bit_for_bit(self, dom, pins):
        assert (fridman_exact(dom).hex(), squeezing_exact(dom).hex()) == pins

    def test_poincare_mode_halves(self):
        """The value is KOBAYASHI; its POINCARE output, divided by the factor,
        is ``1 / (2 artanh(1/sqrt 3))`` bit for bit."""
        h = fridman_exact(Polydisc(3))
        assert h / MetricMode.POINCARE.factor == 0.5 / math.atanh(1.0 / math.sqrt(3.0))
        assert h / MetricMode.KOBAYASHI.factor == h

    def test_unsupported_variants_point_to_estimators(self):
        for dom, p in ((PuncturedDisc(), 0.5), (GENERAL_MODEL, (0j, -1.0 + 0j))):
            with pytest.raises(UnsupportedDomainError, match="estimator"):
                fridman_exact(dom, p)

    def test_exterior_point_rejected(self):
        with pytest.raises(ValueError):
            fridman_exact(Polydisc(2), (1.5 + 0j, 0j))


class TestPuncturedBracket:
    def test_unit_ratio_values(self):
        """U = 2 / asinh(1) and L = U / 2 where -pi/log p = 1."""
        est = fridman_bounds_punctured(P_UNIT)
        assert est.upper == pytest.approx(2 * 1.1345926571065112, abs=2e-9)
        assert est.lower == pytest.approx(2 * 0.5672963285532556, abs=2e-9)

    def test_lower_is_half_the_upper(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            est = fridman_bounds_punctured(float(rng.uniform(0.001, 0.999)))
            assert est.lower == pytest.approx(est.upper / 2.0, abs=2e-12)

    def test_blows_up_monotonically_toward_the_puncture(self):
        uppers, lowers = [], []
        for k in range(1, 7):
            est = fridman_bounds_punctured(10.0**-k)
            uppers.append(est.upper)
            lowers.append(est.lower)
        assert all(b > a for a, b in zip(uppers, uppers[1:]))
        assert all(b > a for a, b in zip(lowers, lowers[1:]))
        assert uppers[-1] > 3.0

    def test_rotation_invariance(self):
        base = fridman_bounds_punctured(0.99)
        rotated = fridman_bounds_punctured(0.99 * cmath.exp(2j))
        assert rotated.upper == pytest.approx(base.upper, rel=1e-12)
        assert rotated.lower == pytest.approx(base.lower, rel=1e-12)
        quarter = fridman_bounds_punctured(0.99j)
        assert quarter.upper == base.upper

    def test_upper_decreases_in_the_modulus(self):
        grid = np.linspace(0.05, 0.99, 40)
        uppers = [fridman_bounds_punctured(float(p)).upper for p in grid]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    @pytest.mark.parametrize(
        "p, lower, upper",
        [
            (0.05, "0x1.17a9cc008a428p+0", "0x1.17a9cc008a428p+1"),
            (0.2, "0x1.68117efca6fcfp-1", "0x1.68117efca6fcfp+0"),
            (0.5, "0x1.ce05afa2cfd97p-2", "0x1.ce05afa2cfd97p-1"),
            (0.9, "0x1.f4ea019dc8b64p-3", "0x1.f4ea019dc8b64p-2"),
            (0.99, "0x1.3e1c1b22c6ed2p-3", "0x1.3e1c1b22c6ed2p-2"),
        ],
    )
    def test_bracket_is_pinned_bit_for_bit(self, p, lower, upper):
        """The lower end is the reciprocal of ``deck_minimum(p, 2 pi)``, the
        upper that of ``slit_distance(p)``; both as ``float.hex``."""
        est = fridman_bounds_punctured(p)
        assert (est.lower.hex(), est.upper.hex()) == (lower, upper)

    def test_puncture_rejected(self):
        with pytest.raises(ValueError):
            fridman_bounds_punctured(0j)

    def test_bracket_order_enforced(self):
        with pytest.raises(ValueError):
            BoundEstimate(2.0, 1.0, "a", "b")


class TestFridmanUpperFromEmbedding:
    def test_polydisc_witness_reproduces_the_closed_form(self):
        search = RadiusSearch(tol=1e-7, samples=256, seed=0)
        for n in (2, 3):
            est = fridman_upper_from_embedding(
                Polydisc(n), (0j,) * n, ball_inclusion_into_polydisc(n), search
            )
            assert est.value == pytest.approx(fridman_exact(Polydisc(n)), abs=1e-4)
            assert not est.hit_cap
            assert est.mode == "kobayashi"
            # the cap, the lower end, and 28 halvings of 16 - 1e-7 down to 1e-7
            assert est.evaluations == 30

    def test_slit_witness_near_the_outer_boundary(self):
        """The embedded slit disc certifies h <= 1/r(0.9) ~ 0.2446."""
        est = fridman_upper_from_embedding(
            PuncturedDisc(),
            (0.9 + 0j,),
            slit_embedding_of_disc(0.9),
            RadiusSearch(tol=1e-6, samples=512, seed=0),
            MetricMode.POINCARE,
        )
        assert est.value <= 0.25
        assert est.value == pytest.approx(0.2445869566227784, abs=1e-3)

    def test_identity_witness_hits_the_cap(self):
        """Metric balls of the ball stay inside it, so the cap binds and the
        reported bound shrinks as the cap grows."""
        values = []
        for cap in (4.0, 8.0, 16.0):
            est = fridman_upper_from_embedding(
                Ball(2),
                (0j, 0j),
                identity_ball_witness(2),
                RadiusSearch(r_max=cap, tol=1e-6, samples=64, seed=0),
            )
            assert est.hit_cap
            assert est.evaluations == 1
            assert est.steps == ((cap, True),)
            assert est.escape is None
            values.append(est.value)
        assert values == sorted(values, reverse=True)

    def test_mismatched_witness_rejected(self):
        with pytest.raises(WitnessValidationError):
            fridman_upper_from_embedding(
                Polydisc(2), (0j, 0j), identity_ball_witness(2), RadiusSearch(samples=64)
            )

    def test_wrong_basepoint_rejected(self):
        with pytest.raises(WitnessValidationError):
            fridman_upper_from_embedding(
                Polydisc(2),
                (0.5 + 0j, 0j),
                ball_inclusion_into_polydisc(2),
                RadiusSearch(samples=64),
            )


class TestEstimatorTrace:
    """Each report lists its sphere tests in order and the sample row that
    escaped the image at the last radius that failed."""

    def test_polydisc_escape_is_on_the_last_failing_sphere(self):
        search = RadiusSearch(samples=128, seed=2)
        witness = ball_inclusion_into_polydisc(3)
        est = fridman_upper_from_embedding(Polydisc(3), (0j,) * 3, witness, search)
        assert len(est.steps) == est.evaluations
        assert est.steps[0] == (search.r_max, False)
        last_fail = [r for r, ok in est.steps if not ok][-1]
        assert not witness.image_contains([est.escape])[0]
        assert kobayashi_distance(Polydisc(3), (0j,) * 3, est.escape, MetricMode.KOBAYASHI) == pytest.approx(
            last_fail, rel=1e-9
        )
        # every passing radius lies below every failing one
        passed = [r for r, ok in est.steps if ok]
        assert max(passed) == est.radius < min(r for r, ok in est.steps if not ok)

    def test_punctured_escape_is_outside_the_slit_image(self):
        witness = slit_embedding_of_disc(0.5)
        est = fridman_upper_from_embedding(
            PuncturedDisc(), (0.5 + 0j,), witness, RadiusSearch(samples=128, seed=2), MetricMode.POINCARE
        )
        assert len(est.steps) == est.evaluations
        assert not witness.image_contains([est.escape])[0]

    def test_squeezing_escape_is_outside_the_image(self):
        witness = scaled_polydisc_into_ball(2)
        est = squeezing_lower_from_embedding(
            Polydisc(2), (0j, 0j), witness, RadiusSearch(r_max=1.0, samples=128, seed=2)
        )
        assert len(est.steps) == est.evaluations
        assert not witness.image_contains([est.escape])[0]


class TestEstimatorRegression:
    """Exact reports, pinned from the estimators that drew a new sphere at
    every radius: drawing once and rescaling changes no bit."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_pinned_reports(self, seed):
        search = RadiusSearch(samples=128, seed=seed)
        fridman = fridman_upper_from_embedding(
            Polydisc(3), (0j,) * 3, ball_inclusion_into_polydisc(3), search
        )
        punctured = fridman_upper_from_embedding(
            PuncturedDisc(), (0.5 + 0j,), slit_embedding_of_disc(0.5), search, MetricMode.POINCARE
        )
        squeezing = squeezing_lower_from_embedding(
            Polydisc(2), (0j, 0j), scaled_polydisc_into_ball(2),
            RadiusSearch(r_max=1.0, samples=128, seed=seed),
        )
        got = [(r.value, r.radius, r.evaluations) for r in (fridman, punctured, squeezing)]
        assert got == [
            (1.5186519110539554, 0.6584787420482636, 26),
            (0.45119373444227634, 2.2163428338297004, 26),
            (0.7071059294910429, 0.7071059294910429, 22),
        ]
        c = largest_centered_polydisc(ball_inclusion_into_polydisc(3), samples=128, seed=seed)
        assert c == 0.5773502433571578

    def test_one_search_draws_its_sphere_once(self, monkeypatch):
        """One generator for validation and one for the sphere sample, which
        is drawn once and then evaluated at every radius tested."""
        made, drawn, evaluated = [], [], []
        default_rng = np.random.default_rng
        polydisc_sphere = metrics.polydisc_sphere

        def counting_rng(seed=None):
            made.append(seed)
            return default_rng(seed)

        def counting_sphere(*args):
            sphere = polydisc_sphere(*args)
            drawn.append(args)

            def at(modulus):
                evaluated.append(modulus)
                return sphere(modulus)

            return at

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(metrics, "polydisc_sphere", counting_sphere)
        largest_centered_polydisc(ball_inclusion_into_polydisc(3), samples=128, seed=4)
        assert made == [4, 4]
        assert len(drawn) == 1
        assert len(evaluated) > 20


class TestSqueezing:
    def test_ball_is_one(self):
        assert squeezing_exact(Ball(2), (0j, 0j)) == 1.0
        assert squeezing_exact(Ball(5), (0.1 + 0j, 0j, 0j, 0j, 0.2 + 0j)) == 1.0

    def test_ball_like_domains_are_one(self):
        assert squeezing_exact(UpperHalfPlane(), 2j) == 1.0
        assert squeezing_exact(HalfPlaneC(1.0), 0j) == 1.0
        assert squeezing_exact(Siegel(2), (0j, -1.0 + 0j)) == 1.0
        assert squeezing_exact(SlitDisc(), -0.5 + 0.1j) == 1.0

    def test_polydisc_is_inverse_root_n(self):
        assert squeezing_exact(Polydisc(1), 0.3) == 1.0
        assert squeezing_exact(Polydisc(2), (0.5 + 0.1j, -0.3j)) == 1.0 / math.sqrt(2.0)
        assert squeezing_exact(Polydisc(5)) == 1.0 / math.sqrt(5.0)

    def test_general_weighted_model_requires_estimator(self):
        with pytest.raises(UnsupportedDomainError, match="estimator|embedding"):
            squeezing_exact(GENERAL_MODEL, (0j, -1.0 + 0j))

    @pytest.mark.parametrize("dom", EXACT_TABLE, ids=repr)
    def test_squeezing_is_at_most_tanh_of_inverse_fridman(self, dom):
        """s <= tanh(1/h) with h in KOBAYASHI normalization (h = 0 gives 1),
        with equality on the ball and the polydisc to an ulp."""
        s = squeezing_exact(dom)
        h = fridman_exact(dom)
        bound = math.tanh(1.0 / h) if h else 1.0
        assert s <= bound + math.ulp(bound)
        if isinstance(dom, (Ball, Polydisc)):
            assert abs(s - bound) <= math.ulp(s)

    def test_ball_identity_witness_gives_one(self):
        est = squeezing_lower_from_embedding(
            Ball(2),
            (0j, 0j),
            identity_ball_witness(2),
            RadiusSearch(r_max=1.0, tol=1e-6, samples=128, seed=0),
        )
        assert est.value == pytest.approx(1.0, abs=1e-5)

    def test_scaled_polydisc_witness(self):
        est = squeezing_lower_from_embedding(
            Polydisc(2),
            (0j, 0j),
            scaled_polydisc_into_ball(2),
            RadiusSearch(r_max=1.0, tol=1e-7, samples=256, seed=0),
        )
        assert est.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)

    def test_punctured_witness_approaches_one(self):
        """The automorphism image omits a single point; the sampled bound
        still converges to 1 and the caveat rides along in the witness."""
        est = squeezing_lower_from_embedding(
            PuncturedDisc(),
            (0.5 + 0j,),
            punctured_automorphism_witness(0.5),
            RadiusSearch(r_max=1.0, tol=1e-6, samples=256, seed=0),
        )
        assert est.value >= 1.0 - 1e-4
        assert "omits one point" in est.witness

    def test_wrong_direction_rejected(self):
        with pytest.raises(WitnessValidationError):
            squeezing_lower_from_embedding(
                Polydisc(2), (0j, 0j), ball_inclusion_into_polydisc(2),
                RadiusSearch(r_max=1.0, samples=64),
            )


class TestWitnessValidation:
    def test_broken_injectivity_is_caught(self):
        collapse = lambda z: np.full_like(z, 0.5)
        bad = EmbeddingWitness(
            source=Ball(1),
            target=Ball(1),
            forward=collapse,
            inverse=collapse,
            source_basepoint=(0j,),
            target_basepoint=(0.5 + 0j,),
            description="constant map (not injective)",
        )
        with pytest.raises(WitnessValidationError, match="injective"):
            bad.validate()

    def test_escaping_image_is_caught(self):
        blowup = lambda z: 2.0 * z
        bad = EmbeddingWitness(
            source=Ball(1),
            target=Ball(1),
            forward=blowup,
            inverse=lambda w: w / 2.0,
            source_basepoint=(0j,),
            target_basepoint=(0j,),
            description="doubling map (escapes)",
        )
        with pytest.raises(WitnessValidationError, match="escaped"):
            bad.validate()

    def test_leaving_the_declared_image_is_caught(self):
        """Images inside the target but outside the stricter declared image
        domain are rejected: ``z -> (z - 2)/4`` sends the basepoint onto the
        slit, which the punctured disc contains and the slit disc does not."""
        bad = EmbeddingWitness(
            source=Ball(1),
            target=PuncturedDisc(),
            forward=lambda z: (z - 2.0) / 4.0,
            inverse=lambda w: 4.0 * w + 2.0,
            source_basepoint=(0j,),
            target_basepoint=(-0.5 + 0j,),
            description="shrunk disc across the slit",
            image_domain=SlitDisc(),
        )
        with pytest.raises(WitnessValidationError, match="escaped the slit"):
            bad.validate()

    def test_non_finite_image_fails_validation(self):
        """An image row that is not finite is outside the target: it raised
        ``ValueError`` from the row coercion, naming neither the witness nor
        the source row, and printed numpy scalar reprs."""
        witness = EmbeddingWitness(
            source=Ball(1),
            target=Ball(1),
            forward=lambda z: np.where(abs(z) > 0.99, np.inf, z / 2),
            inverse=lambda w: 2 * w,
            source_basepoint=(0j,),
            target_basepoint=(0j,),
            description="half the disc, with poles near the circle",
        )
        with pytest.raises(WitnessValidationError, match=r"^image point \(\(inf\+0j\),\) of \(\(") as info:
            witness.validate()
        assert "escaped the ball1 for half the disc, with poles near the circle" in str(info.value)
        assert "np." not in str(info.value)

    def test_non_finite_row_raises(self):
        sphere = sample_metric_sphere(Polydisc(2), (0j, 0j), 0.5, 64, np.random.default_rng(0))
        sphere[7, 1] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            ball_inclusion_into_polydisc(2).image_contains(sphere)

    def test_pole_of_the_inverse_is_outside_the_image(self):
        """The inverse of the automorphism moving 0.5 to 0 has its pole at
        w = 2; the row counts as outside, with no RuntimeWarning."""
        witness = punctured_automorphism_witness(0.5)
        rows = np.array([[2.0 + 0j], [0.25 + 0j], [0.5 + 0j], [0j]])
        # 0.5 is the image of the puncture; 0 is the image of the basepoint
        assert witness.image_contains(rows).tolist() == [False, True, False, True]

    def test_image_contains_gives_one_bool_per_row(self):
        witness = ball_inclusion_into_polydisc(3)
        rows = np.array(
            [[0.5, 0.5, 0.5], [0.6, 0.6, 0.6], [0.9, 0, 0], [1.0, 0, 0], [0.5, 0.5j, -0.5 + 0.5j]],
            dtype=complex,
        )
        # the last row lies exactly on the unit sphere: 1/4 + 1/4 + 1/2
        assert witness.image_contains(rows).tolist() == [True, False, True, False, False]


# each basepoint check, run with its point off by a given offset
BASEPOINT_CHECKS = {
    "validate-normalization": lambda e: dataclasses.replace(
        identity_ball_witness(2), target_basepoint=(e, 0j)).validate(),
    "fridman-target": lambda e: fridman_upper_from_embedding(
        Polydisc(2), (e, 0j), ball_inclusion_into_polydisc(2), RadiusSearch(tol=1e-2, samples=8)),
    "squeezing-source": lambda e: squeezing_lower_from_embedding(
        Polydisc(2), (e, 0j), scaled_polydisc_into_ball(2), RadiusSearch(r_max=1.0, tol=1e-2, samples=8)),
    "squeezing-origin": lambda e: squeezing_lower_from_embedding(
        Polydisc(2), (0j, 0j), dataclasses.replace(scaled_polydisc_into_ball(2), target_basepoint=(e, 0j)),
        RadiusSearch(r_max=1.0, tol=1e-2, samples=8)),
    "centered-polydisc": lambda e: largest_centered_polydisc(
        dataclasses.replace(ball_inclusion_into_polydisc(2), target_basepoint=(e, 0j)), samples=8),
}


class TestBasepointCoercion:
    @pytest.mark.parametrize("check", BASEPOINT_CHECKS)
    def test_one_basepoint_tolerance(self, check):
        """Every basepoint check accepts an offset inside ``BASEPOINT_TOL`` and
        rejects one outside it, saying by how much it is off."""
        assert invariants.BASEPOINT_TOL == 1e-10
        BASEPOINT_CHECKS[check](5e-11)
        with pytest.raises(WitnessValidationError, match=r"\(off by 2\.000e-10\)"):
            BASEPOINT_CHECKS[check](2e-10)

    def test_short_basepoint_is_rejected_where_the_witness_is_made(self):
        """A basepoint with too few coordinates used to pass ``validate`` and
        the estimators' basepoint checks, whose ``zip`` stopped at the
        shorter point: with ``(0j,)`` for ``(0, 0)`` the polydisc estimate at
        ``(0, 0.3i)`` came out as 1.3603 instead of raising."""
        inclusion = ball_inclusion_into_polydisc(2)
        with pytest.raises(ValueError, match="dimension 2, got 1"):
            dataclasses.replace(inclusion, target_basepoint=(0j,))
        with pytest.raises(ValueError, match="dimension 2, got 1"):
            dataclasses.replace(scaled_polydisc_into_ball(2), source_basepoint=(0j,))
        with pytest.raises(ValueError, match="dimension 2, got 3"):
            dataclasses.replace(inclusion, source_basepoint=(0j, 0j, 0j))
        with pytest.raises(WitnessValidationError, match="does not send its basepoint"):
            fridman_upper_from_embedding(Polydisc(2), (0j, 0.3j), inclusion, RadiusSearch(samples=64))

    def test_basepoints_are_point_tuples(self):
        witness = EmbeddingWitness(
            source=Ball(1),
            target=Ball(1),
            forward=lambda z: z,
            inverse=lambda w: w,
            source_basepoint=0,
            target_basepoint=[0.0],
            description="identity given plain numbers",
        )
        assert witness.source_basepoint == witness.target_basepoint == (0j,)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(witness, target_basepoint=(complex(math.nan, 0.0),))


class TestInclusionMembership:
    """An inclusion decides image membership with the source's defining
    function; a copy of the witness whose maps are caller lambdas takes the
    general path (inverse, forward, round-trip error), and the two agree
    row for row."""

    @staticmethod
    def _rows(n: int) -> np.ndarray:
        rng = np.random.default_rng(5)
        unit = random_unit_vectors(n, 200, rng)
        # euclidean radii within a few ulps of the unit sphere, on both sides
        straddle = np.concatenate([(1.0 + k * 2.0**-52) * unit for k in range(-4, 5)])
        # rows exactly on the unit sphere, and near the polydisc corner on it
        exact = {2: [0.5 + 0.5j, -0.5 + 0.5j], 3: [0.5, 0.5j, -0.5 + 0.5j]}[n]
        sphere = np.array([np.eye(n)[0], -1j * np.eye(n)[1], exact])
        corners = np.full((1, n), 1.0 / math.sqrt(n)) * np.array([[1.0], [1.0 - 1e-12], [1.0 + 1e-12]])
        return np.concatenate([straddle, sphere, corners]).astype(complex)

    @staticmethod
    def _general(witness: EmbeddingWitness) -> EmbeddingWitness:
        return dataclasses.replace(witness, forward=lambda z: z, inverse=lambda w: w)

    @pytest.mark.parametrize("make", [ball_inclusion_into_polydisc, identity_ball_witness])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("image", ["source", None, "polydisc"])
    def test_inclusion_path_equals_the_general_path(self, make, n, image):
        witness = make(n)
        if image != "source":
            witness = dataclasses.replace(witness, image_domain=image and Polydisc(n))
        rows = self._rows(n)
        kept = witness.image_contains(rows)
        assert kept.tolist() == self._general(witness).image_contains(rows).tolist()
        assert 0 < kept.sum() < len(rows)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_rows_raise_on_both_paths(self, bad):
        rows = np.zeros((4, 2), dtype=complex)
        rows[2, 1] = bad
        witness = ball_inclusion_into_polydisc(2)
        for w in (witness, self._general(witness)):
            with pytest.raises(ValueError, match="row 2 .* non-finite"):
                w.image_contains(rows)


def _hex_point(z) -> tuple | None:
    return None if z is None else tuple(f"{c.real.hex()} {c.imag.hex()}" for c in z)


def _steps_digest(steps) -> str:
    """The first 16 hex digits of the SHA-256 of the steps as ``radius:ok``,
    each radius as ``float.hex``."""
    listing = ",".join(f"{r.hex()}:{int(ok)}" for r, ok in steps)
    return hashlib.sha256(listing.encode()).hexdigest()[:16]


def _estimate_workload_ops() -> list[tuple[str, str, float, int]]:
    """The ops of the benchmark's ``estimate`` workload, in its order."""
    ops = []
    for s in (256, 1024):
        ops += [("fridman", "polydisc", n, s) for n in range(2, 6)]
        ops += [("fridman", "punctured", p, s) for p in (0.2, 0.5, 0.8)]
        ops += [("squeezing", "polydisc", n, s) for n in (2, 3)]
        ops += [("centered", "polydisc", n, s) for n in range(2, 5)]
    return ops


def _estimate_record(op, monkeypatch, seed: int = 1) -> tuple:
    """``(value, radius, len(steps), steps digest, escape)`` of one op at the
    workload's seed 1, in ``float.hex``.  ``largest_centered_polydisc``
    returns only its radius, so its search is read off ``_largest_radius``."""
    kind, domain, arg, samples = op
    if kind == "centered":
        found = []
        largest_radius = invariants._largest_radius
        monkeypatch.setattr(invariants, "_largest_radius", lambda *a: found.append(largest_radius(*a)) or found[-1])
        value = largest_centered_polydisc(ball_inclusion_into_polydisc(arg), samples=samples, seed=seed)
        report = found[0]
    elif kind == "squeezing":
        search = RadiusSearch(r_max=1.0, samples=samples, seed=seed)
        report = squeezing_lower_from_embedding(
            Polydisc(arg), (0j,) * arg, scaled_polydisc_into_ball(arg), search
        )
        value = report.value
    elif domain == "polydisc":
        search = RadiusSearch(samples=samples, seed=seed)
        report = fridman_upper_from_embedding(
            Polydisc(arg), (0j,) * arg, ball_inclusion_into_polydisc(arg), search
        )
        value = report.value
    else:
        search = RadiusSearch(samples=samples, seed=seed)
        report = fridman_upper_from_embedding(
            PuncturedDisc(), (complex(arg),), slit_embedding_of_disc(arg), search, MetricMode.POINCARE
        )
        value = report.value
    return (
        value.hex(),
        report.radius.hex(),
        len(report.steps),
        _steps_digest(report.steps),
        _hex_point(report.escape),
    )


# _estimate_record of each op, keyed by the workload's op label
ESTIMATE_WORKLOAD_PINS = {
    "fridman.polydisc2.s256": (
        "0x1.2274ae30d5992p+0", "0x1.c3435fb4c0594p-1", 26, "108e0aa32d8ca8fb",
        (
            "0x1.6a09f33684c36p-1 0x0.0p+0", "0x1.6a09f33684c36p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc3.s256": (
        "0x1.84c65f23fc115p+0", "0x1.5124202c6ac22p-1", 26, "2284125dd81abc8d",
        (
            "0x1.279a851049a19p-1 0x0.0p+0", "0x1.279a851049a19p-1 0x0.0p+0",
            "0x1.279a851049a19p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc4.s256": (
        "0x1.d20aec4597dbdp+0", "0x1.193ea067075b4p-1", 26, "70ba753293b2cf83",
        (
            "0x1.0000128d28d40p-1 0x0.0p+0", "0x1.0000128d28d40p-1 0x0.0p+0",
            "0x1.0000128d28d40p-1 0x0.0p+0", "0x1.0000128d28d40p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc5.s256": (
        "0x1.09fec5e13e892p+1", "0x1.ecc2c1172c518p-2", 26, "a445a95901c1afe2",
        (
            "0x1.c9f287b179955p-2 0x0.0p+0", "0x1.c9f287b179955p-2 0x0.0p+0",
            "0x1.c9f287b179955p-2 0x0.0p+0", "0x1.c9f287b179955p-2 0x0.0p+0",
            "0x1.c9f287b179955p-2 0x0.0p+0",
        ),
    ),
    "fridman.punctured0.2.s256": (
        "0x1.6811801c6e0c7p-1", "0x1.6c050f4943e0fp+0", 26, "819ff7ed9761d180",
        ("-0x1.e2550349d99c4p-6 0x0.0p+0",),
    ),
    "fridman.punctured0.5.s256": (
        "0x1.ce05baf65bd69p-2", "0x1.1bb11f3a02e22p+1", 26, "8151db919c74bb0b",
        ("-0x1.48c4605c29559p-5 0x0.0p+0",),
    ),
    "fridman.punctured0.8.s256": (
        "0x1.32abf307a9aa0p-2", "0x1.ab66d6a352114p+1", 26, "963235ead80061a8",
        ("-0x1.60b0fe75d13c3p-5 0x0.0p+0",),
    ),
    "squeezing.polydisc2.s256": (
        "0x1.6a09c9d3f1842p-1", "0x1.6a09c9d3f1842p-1", 22, "72f2dc244977c2a2",
        (
            "0x1.6a09e9d3ef6b4p-1 0x0.0p+0", "0x0.0p+0 0x0.0p+0",
        ),
    ),
    "squeezing.polydisc3.s256": (
        "0x1.279a6e2e89ebcp-1", "0x1.279a6e2e89ebcp-1", 22, "1106e8cb8a2f48e1",
        (
            "0x1.279a8e2e87d2ep-1 0x0.0p+0", "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0",
        ),
    ),
    "centered.polydisc2.s256": (
        "0x1.6a09e49c317aep-1", "0x1.6a09e49c317aep-1", 26, "90602ce6e5793727",
        (
            "0x1.6a09e69c31742p-1 0x0.0p+0", "0x1.6a09e69c31742p-1 0x0.0p+0",
        ),
    ),
    "centered.polydisc3.s256": (
        "0x1.279a737b1cff2p-1", "0x1.279a737b1cff2p-1", 26, "2af669dbe4d011ff",
        (
            "0x1.279a757b1cf87p-1 0x0.0p+0", "0x1.279a757b1cf87p-1 0x0.0p+0",
            "0x1.279a757b1cf87p-1 0x0.0p+0",
        ),
    ),
    "centered.polydisc4.s256": (
        "0x1.fffffc00000d7p-2", "0x1.fffffc00000d7p-2", 26, "52333e37a700f757",
        (
            "0x1.0000000000000p-1 0x0.0p+0", "0x1.0000000000000p-1 0x0.0p+0",
            "0x1.0000000000000p-1 0x0.0p+0", "0x1.0000000000000p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc2.s1024": (
        "0x1.2274ae30d5992p+0", "0x1.c3435fb4c0594p-1", 26, "108e0aa32d8ca8fb",
        (
            "0x1.6a09f33684c36p-1 0x0.0p+0", "0x1.6a09f33684c36p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc3.s1024": (
        "0x1.84c65f23fc115p+0", "0x1.5124202c6ac22p-1", 26, "2284125dd81abc8d",
        (
            "0x1.279a851049a19p-1 0x0.0p+0", "0x1.279a851049a19p-1 0x0.0p+0",
            "0x1.279a851049a19p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc4.s1024": (
        "0x1.d20aec4597dbdp+0", "0x1.193ea067075b4p-1", 26, "70ba753293b2cf83",
        (
            "0x1.0000128d28d40p-1 0x0.0p+0", "0x1.0000128d28d40p-1 0x0.0p+0",
            "0x1.0000128d28d40p-1 0x0.0p+0", "0x1.0000128d28d40p-1 0x0.0p+0",
        ),
    ),
    "fridman.polydisc5.s1024": (
        "0x1.09fec5e13e892p+1", "0x1.ecc2c1172c518p-2", 26, "a445a95901c1afe2",
        (
            "0x1.c9f287b179955p-2 0x0.0p+0", "0x1.c9f287b179955p-2 0x0.0p+0",
            "0x1.c9f287b179955p-2 0x0.0p+0", "0x1.c9f287b179955p-2 0x0.0p+0",
            "0x1.c9f287b179955p-2 0x0.0p+0",
        ),
    ),
    "fridman.punctured0.2.s1024": (
        "0x1.6811801c6e0c7p-1", "0x1.6c050f4943e0fp+0", 26, "819ff7ed9761d180",
        ("-0x1.e2550349d99c4p-6 0x0.0p+0",),
    ),
    "fridman.punctured0.5.s1024": (
        "0x1.ce05baf65bd69p-2", "0x1.1bb11f3a02e22p+1", 26, "8151db919c74bb0b",
        ("-0x1.48c4605c29559p-5 0x0.0p+0",),
    ),
    "fridman.punctured0.8.s1024": (
        "0x1.32abf307a9aa0p-2", "0x1.ab66d6a352114p+1", 26, "963235ead80061a8",
        ("-0x1.60b0fe75d13c3p-5 0x0.0p+0",),
    ),
    "squeezing.polydisc2.s1024": (
        "0x1.6a09c9d3f1842p-1", "0x1.6a09c9d3f1842p-1", 22, "72f2dc244977c2a2",
        (
            "0x1.6a09e9d3ef6b4p-1 0x0.0p+0", "0x0.0p+0 0x0.0p+0",
        ),
    ),
    "squeezing.polydisc3.s1024": (
        "0x1.279a6e2e89ebcp-1", "0x1.279a6e2e89ebcp-1", 22, "1106e8cb8a2f48e1",
        (
            "0x1.279a8e2e87d2ep-1 0x0.0p+0", "0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0",
        ),
    ),
    "centered.polydisc2.s1024": (
        "0x1.6a09e49c317aep-1", "0x1.6a09e49c317aep-1", 26, "90602ce6e5793727",
        (
            "0x1.6a09e69c31742p-1 0x0.0p+0", "0x1.6a09e69c31742p-1 0x0.0p+0",
        ),
    ),
    "centered.polydisc3.s1024": (
        "0x1.279a737b1cff2p-1", "0x1.279a737b1cff2p-1", 26, "2af669dbe4d011ff",
        (
            "0x1.279a757b1cf87p-1 0x0.0p+0", "0x1.279a757b1cf87p-1 0x0.0p+0",
            "0x1.279a757b1cf87p-1 0x0.0p+0",
        ),
    ),
    "centered.polydisc4.s1024": (
        "0x1.fffffc00000d7p-2", "0x1.fffffc00000d7p-2", 26, "52333e37a700f757",
        (
            "0x1.0000000000000p-1 0x0.0p+0", "0x1.0000000000000p-1 0x0.0p+0",
            "0x1.0000000000000p-1 0x0.0p+0", "0x1.0000000000000p-1 0x0.0p+0",
        ),
    ),
}


class TestEstimateWorkloadPins:
    """The reports of the benchmark's ``estimate`` ops, pinned bit for bit
    from the estimators that sent inclusion rows through the identity's
    round trip: deciding an inclusion's membership with one defining
    evaluation changes no bit."""

    @pytest.mark.parametrize(
        "op", _estimate_workload_ops(), ids=lambda op: f"{op[0]}.{op[1]}{op[2]}.s{op[3]}"
    )
    def test_report_is_pinned(self, op, monkeypatch):
        label = f"{op[0]}.{op[1]}{op[2]}.s{op[3]}"
        assert _estimate_record(op, monkeypatch) == ESTIMATE_WORKLOAD_PINS[label]


class TestRadiusSearch:
    @pytest.mark.parametrize(
        "r_max,tol", [(1.0, math.inf), (math.nan, 1e-6), (math.inf, 1e-6), (1.0, math.nan)]
    )
    def test_non_finite_parameters_rejected(self, r_max, tol):
        with pytest.raises(ValueError, match="finite"):
            RadiusSearch(r_max=r_max, tol=tol)

    @pytest.mark.parametrize("samples", [9.5, 16.0, "16", 7])
    def test_samples_must_be_an_integer_of_at_least_8(self, samples):
        with pytest.raises(ValueError, match="samples"):
            RadiusSearch(samples=samples)


class TestCenteredPolydisc:
    @pytest.mark.parametrize("basepoints", [((0j, 0j), (0.4, 0j)), ((-0.8, 0j), (0j, 0j))], ids=["target", "source"])
    def test_witness_must_fix_the_origin(self, basepoints):
        """``z -> z/2 + (0.4, 0)`` maps the ball into the bidisc but not 0 to
        0; with either pair of basepoints the estimate returned 0.0924 at
        64 samples, for no centred polydisc of the witness."""
        shift = np.array([0.4, 0.0])
        witness = EmbeddingWitness(
            source=Ball(2),
            target=Polydisc(2),
            forward=lambda z: z / 2.0 + shift,
            inverse=lambda w: 2.0 * (w - shift),
            source_basepoint=basepoints[0],
            target_basepoint=basepoints[1],
            description="half the ball, shifted",
        )
        with pytest.raises(WitnessValidationError, match="fix the origin"):
            largest_centered_polydisc(witness, samples=64)

    def test_ball_image_caps_the_polyradius(self):
        """No centred polydisc of polyradius above 1/sqrt(n) fits in the ball."""
        for n in (2, 3, 4):
            c = largest_centered_polydisc(ball_inclusion_into_polydisc(n), samples=128)
            assert c <= 1.0 / math.sqrt(n) + 1e-6
            assert c == pytest.approx(1.0 / math.sqrt(n), abs=1e-5)

    @pytest.mark.parametrize("samples", [-5, 2.5])
    def test_bad_samples_rejected_before_validation(self, monkeypatch, samples):
        def unreachable(self, **kwargs):
            raise AssertionError("validated before checking samples")

        monkeypatch.setattr(EmbeddingWitness, "validate", unreachable)
        with pytest.raises(ValueError, match="samples"):
            largest_centered_polydisc(ball_inclusion_into_polydisc(2), samples=samples)
