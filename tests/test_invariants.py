"""Tests for the Fridman invariant and squeezing function machinery."""

import cmath
import dataclasses
import math
import re

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
    sample_point,
)
from biholo import covering, invariants, metrics
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
# unitary maps of C^2: the turn sends the seed (1, 1)/sqrt 2 to a row whose
# coordinates both have modulus 1/sqrt 2, a minimum of the inclusion; the
# rotation by 0.3 sends no seed there
TURNS = {
    "turned2": np.array([[0.6, 0.8j], [0.8j, 0.6]]),
    "rotated2": np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]),
}


def _turned_inclusion(turn: np.ndarray) -> EmbeddingWitness:
    """The inclusion of the ball into the bidisc followed by ``turn``, built
    by hand, so it carries no certificate."""
    return EmbeddingWitness(
        Ball(2), Polydisc(2), lambda z: z @ turn.T, lambda w: w @ turn.conj(), (0j, 0j), (0j, 0j), "turned"
    )


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
        """The minimum over the sphere is attained at the seeded row
        ``(1, ..., 1)/sqrt n``, so the estimate is the closed form."""
        search = RadiusSearch(tol=1e-7, samples=256, seed=0)
        for n in (2, 3):
            est = fridman_upper_from_embedding(
                Polydisc(n), (0j,) * n, ball_inclusion_into_polydisc(n), search
            )
            assert est.value == pytest.approx(fridman_exact(Polydisc(n)), rel=1e-12)
            assert not est.hit_cap
            assert est.mode == "kobayashi"
            assert est.certified
            assert est.boundary_point == (complex(1.0 / math.sqrt(n)),) * n

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
            assert est.radius == cap
            assert not est.certified
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

    def test_boundary_image_at_the_basepoint_is_rejected(self):
        """``z -> z (1 - |z|^2)`` maps the disc into itself fixing 0 and
        passes ``validate``, but sends the circle to 0, the basepoint: no
        neighbourhood of it lies in the image, for either estimator."""
        witness = EmbeddingWitness(
            Ball(1), Ball(1), lambda z: z * (1.0 - abs(z) ** 2), lambda w: w, (0j,), (0j,), "circle to 0"
        )
        witness.validate()
        message = "^the witness image does not contain any neighbourhood"
        with pytest.raises(WitnessValidationError, match=message):
            fridman_upper_from_embedding(Ball(1), 0, witness, RadiusSearch(samples=8))
        with pytest.raises(WitnessValidationError, match=message):
            squeezing_lower_from_embedding(Ball(1), 0, witness, RadiusSearch(r_max=1.0, samples=8))

    def test_the_inverse_is_not_consulted(self):
        """The radius is read off the forward images of the boundary: an
        inverse that breaks the round trip changes nothing."""
        bad = EmbeddingWitness(Ball(1), Ball(1), lambda z: z / 2, lambda w: 4 * w, (0j,), (0j,), "half disc")
        good = dataclasses.replace(bad, inverse=lambda w: 2 * w)
        search = RadiusSearch(samples=16)
        assert fridman_upper_from_embedding(Ball(1), 0, bad, search) == fridman_upper_from_embedding(
            Ball(1), 0, good, search
        )

    def test_refinement_reaches_a_minimum_off_the_seeds(self):
        """The inclusion rotated by 0.3 has its minima where both
        image coordinates have modulus ``1/sqrt 2``, which no seed holds: the
        sample and its refinement reach the closed form to 1e-6 relative."""
        est = fridman_upper_from_embedding(
            Polydisc(2), (0j, 0j), _turned_inclusion(TURNS["rotated2"]), RadiusSearch(samples=256, seed=1)
        )
        assert est.value == pytest.approx(fridman_exact(Polydisc(2)), rel=1e-6)
        assert est.value <= fridman_exact(Polydisc(2)) * (1 + 1e-15)
        assert not est.certified

    def test_unsupported_source_is_rejected(self):
        witness = _self_witness(UpperHalfPlane(), p=(1j,))
        with pytest.raises(UnsupportedDomainError, match="^no boundary sampler for the source halfplane$"):
            fridman_upper_from_embedding(UpperHalfPlane(), 1j, witness, RadiusSearch(samples=8))


class TestEstimatorBoundaryPoint:
    """Each report names the boundary point of the source whose image
    decided its radius, and that image."""

    def test_polydisc_radius_is_the_distance_to_the_boundary_image(self):
        witness = ball_inclusion_into_polydisc(3)
        est = fridman_upper_from_embedding(Polydisc(3), (0j,) * 3, witness, RadiusSearch(samples=128, seed=2))
        assert est.boundary_image == tuple(witness.forward(np.array([est.boundary_point]))[0].tolist())
        assert kobayashi_distance(Polydisc(3), (0j,) * 3, est.boundary_image) == pytest.approx(est.radius, rel=1e-15)

    def test_punctured_boundary_image_is_the_nearest_slit_point(self):
        """``-exp(-sqrt(t^2 + pi^2))`` with ``t = -log p``, to rounding, and
        its POINCARE distance from ``p`` is the radius."""
        p = 0.5
        witness = slit_embedding_of_disc(p)
        est = fridman_upper_from_embedding(
            PuncturedDisc(), (p + 0j,), witness, RadiusSearch(samples=128, seed=2), MetricMode.POINCARE
        )
        (w,) = est.boundary_image
        assert w.real == pytest.approx(-math.exp(-math.hypot(math.log(p), math.pi)), rel=1e-12)
        assert abs(w.imag) <= 1e-15
        assert abs(est.boundary_point[0]) == pytest.approx(1.0, abs=1e-15)
        distance = kobayashi_distance(PuncturedDisc(), p, w, MetricMode.POINCARE)
        assert distance == pytest.approx(est.radius, rel=1e-14)

    def test_squeezing_boundary_point_is_an_axis(self):
        witness = scaled_polydisc_into_ball(2)
        est = squeezing_lower_from_embedding(
            Polydisc(2), (0j, 0j), witness, RadiusSearch(r_max=1.0, samples=128, seed=2)
        )
        assert est.boundary_point == (1 + 0j, 0j)
        assert math.hypot(*map(abs, est.boundary_image)) == est.radius


def _count_draws(monkeypatch, kind: type) -> tuple[list, list]:
    """The seeds of the generators made and the counts of the random rows
    drawn from the ``boundary`` entry of ``kind``'s record, from here on."""
    made, drawn = [], []
    default_rng = np.random.default_rng
    record = metrics._GEOMETRY[kind]
    seeds, rows, retract = record.boundary

    def counting_rng(seed=None):
        made.append(seed)
        return default_rng(seed)

    def counting_rows(d, count, rng):
        drawn.append(count)
        return rows(d, count, rng)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setitem(metrics._GEOMETRY, kind, record._replace(boundary=(seeds, counting_rows, retract)))
    return made, drawn


class TestEstimatorDraws:
    def test_a_certified_estimate_draws_nothing(self, monkeypatch):
        """A certified estimate scores its seeded rows alone: it makes no
        generator, draws no random boundary rows and reports 0 samples."""
        made, drawn = _count_draws(monkeypatch, Ball)
        witness = ball_inclusion_into_polydisc(3)
        report = fridman_upper_from_embedding(Polydisc(3), (0j,) * 3, witness, RadiusSearch(samples=128, seed=4))
        largest_centered_polydisc(witness, samples=128, seed=4)
        assert report.certified and report.samples == 0
        assert made == []
        assert drawn == []

    def test_an_uncertified_estimate_draws_its_boundary_once(self, monkeypatch):
        """A copy of a certified witness has no certificate: besides the
        generator of ``validate``'s sample, its estimate makes one generator
        from its seed, draws ``samples`` boundary rows from it once, and
        refines with the same generator."""
        validated = []
        validate = EmbeddingWitness.validate

        def counting(self, seed=0):
            validated.append(seed)
            return validate(self, seed)

        monkeypatch.setattr(EmbeddingWitness, "validate", counting)
        made, drawn = _count_draws(monkeypatch, Ball)
        copy = dataclasses.replace(ball_inclusion_into_polydisc(3))
        report = fridman_upper_from_embedding(Polydisc(3), (0j,) * 3, copy, RadiusSearch(samples=128, seed=4))
        assert not report.certified and report.samples == 128
        assert validated == [4]
        assert made == [4, 4]
        assert drawn == [128]
        largest_centered_polydisc(copy, samples=128, seed=4)
        assert validated == [4, 4]
        assert made == [4, 4, 4, 4]
        assert drawn == [128, 128]

    @pytest.mark.parametrize("source", [Ball(1), Ball(3), Polydisc(1), Polydisc(3), PuncturedDisc()], ids=repr)
    def test_seeds_and_rows_lie_on_the_boundary(self, source):
        """The seeds are the known extreme points, drawn from no generator;
        the rows are ``count`` random points of the boundary."""
        seeds, rows, _ = metrics._entry(source, "boundary")
        n = source.dim
        drawn = rows(source, 50, np.random.default_rng(0))
        if isinstance(source, Ball):
            expected = [(1.0 / math.sqrt(n),) * n]
            norm = np.linalg.norm(drawn, axis=1)
        elif isinstance(source, Polydisc):
            expected = [*np.eye(n).tolist(), (1.0,) * n]
            norm = np.abs(drawn).max(axis=1)
        else:
            expected = [(1.0,), (0.0,)]
            norm = np.abs(drawn[:, 0])
        assert np.array(seeds(source), dtype=complex).tolist() == np.array(expected, dtype=complex).tolist()
        assert np.allclose(norm, 1.0, rtol=0.0, atol=1e-15)
        assert drawn.shape == (50, n)

    @pytest.mark.parametrize("source", [*map(Ball, range(2, 6)), *map(Polydisc, range(2, 6))], ids=repr)
    def test_retraction_maps_perturbed_rows_onto_the_boundary(self, source):
        """Boundary rows moved by up to 1/2 in random directions come back
        to norm 1, Euclidean on the ball and the max norm on the polydisc."""
        n = source.dim
        seeds, rows, retract = metrics._entry(source, "boundary")
        rng = np.random.default_rng(n)
        z = np.concatenate([seeds(source), rows(source, 200, rng)])
        moved = z + 0.5 * rng.uniform(size=(len(z), 1)) * random_unit_vectors(n, len(z), rng)
        back = retract(moved)
        norm = np.linalg.norm(back, axis=1) if isinstance(source, Ball) else np.abs(back).max(axis=1)
        assert np.abs(norm - 1.0).max() <= 1e-15


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

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_punctured_witness_gives_the_modulus(self, p):
        """The image omits the single point ``p``, the image of the puncture,
        which is a boundary point of the source: the estimate is ``|p|``, the
        squeezing function of the punctured disc, where sampling spheres in
        the image gave 0.99999905."""
        est = squeezing_lower_from_embedding(PuncturedDisc(), p, punctured_automorphism_witness(p))
        assert est.value == pytest.approx(p, rel=1e-12)
        assert est.boundary_point == (0j,)
        assert est.certified
        assert "omits one point" in est.witness

    def test_wrong_direction_rejected(self):
        with pytest.raises(WitnessValidationError):
            squeezing_lower_from_embedding(
                Polydisc(2), (0j, 0j), ball_inclusion_into_polydisc(2),
                RadiusSearch(r_max=1.0, samples=64),
            )


def _doubling_witness() -> EmbeddingWitness:
    """``z -> 2 z`` on the disc, whose images escape it."""
    return EmbeddingWitness(
        source=Ball(1),
        target=Ball(1),
        forward=lambda z: 2.0 * z,
        inverse=lambda w: w / 2.0,
        source_basepoint=(0j,),
        target_basepoint=(0j,),
        description="doubling map (escapes)",
    )


def _self_witness(d, forward=invariants._identity, p=None) -> EmbeddingWitness:
    """``forward`` as a map of ``d`` into itself fixing ``p``, by default a
    sampled point."""
    p = sample_point(d, np.random.default_rng(0)) if p is None else p
    return EmbeddingWitness(d, d, forward, invariants._identity, p, p, f"{d.label} into itself")


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

    @pytest.mark.parametrize("p", [0, 1, 1.5j], ids=["puncture", "circle", "outside"])
    def test_automorphism_basepoint_must_lie_in_the_punctured_disc(self, p):
        with pytest.raises(ValueError, match="^basepoint must lie in the punctured disc$"):
            punctured_automorphism_witness(p)

    def test_escaping_image_is_caught(self):
        with pytest.raises(WitnessValidationError, match="escaped"):
            _doubling_witness().validate()

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


class TestValidationRows:
    """``validate`` maps ``VALIDATION_SAMPLES`` rows drawn from its seed and
    runs every check on every call."""

    def test_a_forward_that_writes_into_its_rows_validates(self):
        def halve_in_place(z):
            z *= 0.5
            return z

        _self_witness(Ball(2), halve_in_place, (0j, 0j)).validate(5)

    def test_an_escape_reads_the_same_on_every_call(self):
        messages = []
        for _ in range(2):
            with pytest.raises(WitnessValidationError, match="escaped") as info:
                _doubling_witness().validate()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_a_warm_validate_maps_every_row(self):
        """The basepoint, then the whole sample in one call."""
        calls = []

        def halve(z):
            calls.append(len(z))
            return z / 2

        witness = _self_witness(Ball(1), halve, (0j,))
        witness.validate(3)
        calls.clear()
        witness.validate(3)
        assert calls == [1, invariants.VALIDATION_SAMPLES] == [1, 10_000]

    @pytest.mark.parametrize(
        "seed", [True, -1, 1.5, np.random.default_rng(0)], ids=["bool", "negative", "float", "generator"]
    )
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """Checked before any row is mapped."""
        calls = []
        witness = _self_witness(Ball(1), lambda z: calls.append(z) or z, (0j,))
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, not {re.escape(repr(seed))}$"):
            witness.validate(seed)
        assert calls == []

    def test_numpy_integer_seed_finds_the_same_rows(self):
        mapped = []
        witness = _self_witness(Ball(1), lambda z: mapped.append(z.copy()) or z, (0j,))
        witness.validate(3)
        witness.validate(np.int64(3))
        assert len(mapped) == 4
        assert np.array_equal(mapped[1], mapped[3])


# every certified library witness across the range of its parameter
CERTIFIED_WITNESSES = [
    *(pytest.param(make, n, id=f"{make.__name__}-{n}")
      for make in (ball_inclusion_into_polydisc, scaled_polydisc_into_ball) for n in range(1, 7)),
    *(pytest.param(slit_embedding_of_disc, p, id=f"slit-{p}") for p in (0.01, 0.05, 0.2, 0.5, 0.8, 0.99)),
    *(pytest.param(punctured_automorphism_witness, m * cmath.exp(1j * t), id=f"automorphism-{m}")
      for m, t in ((1e-3, 0.7), (0.5, -2.1), (0.999, 3.0))),
]


class TestSampledCheckOutsideTheEstimators:
    """The estimators run ``validate`` only on witnesses without a written
    certificate; on the certified library witnesses it is an oracle, run here."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("make, arg", CERTIFIED_WITNESSES)
    def test_certified_witnesses_pass_validation(self, make, arg, seed):
        witness = make(arg)
        assert witness._certificate is not None
        witness.validate(seed)

    def test_only_uncertified_estimates_validate(self, monkeypatch):
        calls = []
        validate = EmbeddingWitness.validate

        def counting(self, seed=0):
            calls.append(self.description)
            return validate(self, seed)

        monkeypatch.setattr(EmbeddingWitness, "validate", counting)
        search = RadiusSearch(samples=16, seed=2)
        certified = [
            lambda: fridman_upper_from_embedding(Polydisc(2), (0j, 0j), ball_inclusion_into_polydisc(2), search),
            lambda: fridman_upper_from_embedding(PuncturedDisc(), 0.5, slit_embedding_of_disc(0.5), search),
            lambda: squeezing_lower_from_embedding(Polydisc(2), (0j, 0j), scaled_polydisc_into_ball(2), search),
            lambda: squeezing_lower_from_embedding(PuncturedDisc(), 0.5, punctured_automorphism_witness(0.5)),
            lambda: largest_centered_polydisc(ball_inclusion_into_polydisc(2), samples=16),
        ]
        for estimate in certified:
            estimate()
        assert calls == []
        fridman_upper_from_embedding(Ball(2), (0j, 0j), identity_ball_witness(2), search)
        assert len(calls) == 1
        copied = dataclasses.replace(ball_inclusion_into_polydisc(2))
        assert not fridman_upper_from_embedding(Polydisc(2), (0j, 0j), copied, search).certified
        assert len(calls) == 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EmbeddingWitness)])
    def test_fields_cannot_be_assigned(self, name):
        """A certificate would outlive an in-place change of the maps."""
        witness = ball_inclusion_into_polydisc(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(witness, name, getattr(witness, name))


def _polydisc_fridman(witness: EmbeddingWitness, seed: int) -> float:
    n = witness.source.dim
    return fridman_upper_from_embedding(Polydisc(n), (0j,) * n, witness, RadiusSearch(seed=seed)).radius


def _centered_polyradius(witness: EmbeddingWitness, seed: int) -> float:
    return largest_centered_polydisc(witness, seed=seed)


def _squeezing(witness: EmbeddingWitness, seed: int) -> float:
    search = RadiusSearch(r_max=1.0, seed=seed)
    return squeezing_lower_from_embedding(witness.source, witness.source_basepoint, witness, search).radius


def _punctured_fridman(witness: EmbeddingWitness, seed: int) -> float:
    search = RadiusSearch(seed=seed)
    return fridman_upper_from_embedding(PuncturedDisc(), witness.target_basepoint, witness, search).radius


# every certified library witness with each estimator it serves, as the
# estimate's radius of the witness and the search's seed
SEARCHED_ESTIMATES = [
    *(pytest.param(make, estimate, n, id=f"{estimate.__name__[1:]}-{n}")
      for make, estimate in ((ball_inclusion_into_polydisc, _polydisc_fridman),
                             (ball_inclusion_into_polydisc, _centered_polyradius),
                             (scaled_polydisc_into_ball, _squeezing))
      for n in range(2, 7)),
    *(pytest.param(make, estimate, p, id=f"{estimate.__name__[1:]}-{p}")
      for make, estimate in ((slit_embedding_of_disc, _punctured_fridman), (punctured_automorphism_witness, _squeezing))
      for p in (0.05, 0.2, 0.5, 0.8, 0.9)),
]


class TestSearchOutsideTheEstimators:
    """A certified estimate scores only its seeded rows; the sampled search
    it skips is an oracle, run here on a copy of the witness, which has no
    certificate: the search finds no boundary image nearer than the seeded one."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("make, estimate, arg", SEARCHED_ESTIMATES)
    def test_the_search_never_goes_below_the_seeded_radius(self, make, estimate, arg, seed):
        witness = make(arg)
        assert estimate(dataclasses.replace(witness), seed) >= estimate(witness, seed)


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

    def test_basepoint_outside_its_domain_is_rejected_where_the_witness_is_made(self):
        """The shrinking map with source basepoint 1.5 used to pass
        ``validate``, and the Fridman estimate at 0 reported radius 0.1682
        although its image, the disc of centre -0.5 and radius 1/3, misses 0."""
        with pytest.raises(ValueError, match=r"^point \(\(1\.5\+0j\),\) is not in the domain ball1$"):
            EmbeddingWitness(Ball(1), Ball(1), lambda z: (z - 1.5) / 3, lambda w: 3 * w + 1.5, (1.5,), (0j,), "shrink")
        with pytest.raises(ValueError, match=r"^point \(0j, 0j\) is not in the domain siegel2$"):
            dataclasses.replace(identity_ball_witness(2), target=Siegel(2))

    def test_squeezing_point_outside_the_domain_is_rejected(self):
        """The basepoint 1 - 1e-11 lies within ``BASEPOINT_TOL`` of 1, on the
        circle, where the squeezing estimate used to return a value; it
        checks its point as the Fridman estimate does."""
        a = 1.0 - 1e-11
        flip = lambda z: (a - z) / (1.0 - a * z)
        witness = EmbeddingWitness(Ball(1), Ball(1), flip, flip, (a,), (0j,), "automorphism moving 1 - 1e-11 to 0")
        inverse = dataclasses.replace(witness, source_basepoint=(0j,), target_basepoint=(a,))
        for estimate in (
            lambda p: squeezing_lower_from_embedding(Ball(1), p, witness, RadiusSearch(r_max=1.0, samples=8)),
            lambda p: fridman_upper_from_embedding(Ball(1), p, inverse, RadiusSearch(samples=8)),
        ):
            with pytest.raises(ValueError, match=r"^point \(\(1\+0j\),\) is not in the domain ball1$"):
                estimate(1.0)


class TestInclusionMembership:
    """An inclusion's ``_identity`` maps round-trip finite rows exactly, so
    its image membership is the source's defining function; a copy of the
    witness whose maps are caller lambdas agrees with it row for row."""

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
    def _lambda_copy(witness: EmbeddingWitness) -> EmbeddingWitness:
        return dataclasses.replace(witness, forward=lambda z: z, inverse=lambda w: w)

    @pytest.mark.parametrize("make", [ball_inclusion_into_polydisc, identity_ball_witness])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("image", ["source", None, "polydisc"])
    def test_identity_maps_agree_with_caller_lambdas(self, make, n, image):
        """The inclusion (``_identity`` maps) and its copy with ``lambda z: z``
        maps keep the same rows, with or without an image domain, and the
        rows straddle the boundary, so both answers occur."""
        witness = make(n)
        if image != "source":
            witness = dataclasses.replace(witness, image_domain=image and Polydisc(n))
        rows = self._rows(n)
        kept = witness.image_contains(rows)
        assert kept.tolist() == self._lambda_copy(witness).image_contains(rows).tolist()
        assert 0 < kept.sum() < len(rows)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_rows_raise_with_identity_and_caller_lambdas(self, bad):
        """A non-finite row raises, naming the row, for the inclusion and for
        its copy with ``lambda z: z`` maps alike."""
        rows = np.zeros((4, 2), dtype=complex)
        rows[2, 1] = bad
        witness = ball_inclusion_into_polydisc(2)
        for w in (witness, self._lambda_copy(witness)):
            with pytest.raises(ValueError, match="row 2 .* non-finite"):
                w.image_contains(rows)

    @pytest.mark.parametrize("make", [ball_inclusion_into_polydisc, identity_ball_witness])
    def test_an_inclusion_declares_no_image_domain(self, make):
        """Its image is its source, which ``image_contains`` already tests."""
        witness = make(2)
        assert witness.source == Ball(2) and witness.image_domain is None


def _hex_point(z) -> tuple | None:
    return None if z is None else tuple(f"{c.real.hex()} {c.imag.hex()}" for c in z)


def _estimate_workload_ops() -> list[tuple[str, str, float, int]]:
    """The ops of the benchmark's ``estimate`` workload, in its order."""
    ops = []
    for s in (256, 1024):
        ops += [("fridman", "polydisc", n, s) for n in range(2, 6)]
        ops += [("fridman", "punctured", p, s) for p in (0.2, 0.5, 0.8)]
        ops += [("squeezing", "polydisc", n, s) for n in (2, 3)]
        ops += [("centered", "polydisc", n, s) for n in range(2, 5)]
    return ops


def _centered_report(witness, samples: int, seed: int, monkeypatch) -> tuple[float, invariants.EstimateReport]:
    """The value of ``largest_centered_polydisc`` and its report, which it
    does not return and is read off ``_nearest_boundary_image``."""
    found = []
    nearest = invariants._nearest_boundary_image
    monkeypatch.setattr(invariants, "_nearest_boundary_image", lambda *a: found.append(nearest(*a)) or found[-1])
    return largest_centered_polydisc(witness, samples=samples, seed=seed), found[0]


def _estimate_report(op, monkeypatch, seed: int = 1) -> tuple[float, invariants.EstimateReport]:
    """The value and the report of one op at the workload's seed 1."""
    kind, domain, arg, samples = op
    if kind == "centered":
        return _centered_report(ball_inclusion_into_polydisc(arg), samples, seed, monkeypatch)
    if kind == "squeezing":
        search = RadiusSearch(r_max=1.0, samples=samples, seed=seed)
        report = squeezing_lower_from_embedding(Polydisc(arg), (0j,) * arg, scaled_polydisc_into_ball(arg), search)
    elif domain == "polydisc":
        search = RadiusSearch(samples=samples, seed=seed)
        report = fridman_upper_from_embedding(Polydisc(arg), (0j,) * arg, ball_inclusion_into_polydisc(arg), search)
    else:
        search = RadiusSearch(samples=samples, seed=seed)
        report = fridman_upper_from_embedding(
            PuncturedDisc(), (complex(arg),), slit_embedding_of_disc(arg), search, MetricMode.POINCARE
        )
    return report.value, report


def _closed_form(kind: str, domain: str, arg) -> float:
    """The value each op estimates, written out as the workload's check does."""
    if kind == "fridman" and domain == "polydisc":
        return 1.0 / math.atanh(1.0 / math.sqrt(arg))
    if kind == "fridman":
        return 1.0 / math.asinh(-math.pi / math.log(arg))  # POINCARE, 1/(2 slit_distance)
    return 1.0 / math.sqrt(arg)


# (value, radius, hit_cap, certified, boundary point) of each op as float.hex,
# by the op's label less its sample count: every op is decided at a seeded
# boundary row, so 256 and 1024 samples give the same report
ESTIMATE_WORKLOAD_PINS = {
    "fridman.polydisc2": (
        "0x1.2274aa148de08p+0", "0x1.c34366179d426p-1", False, True,
        ("0x1.6a09e667f3bccp-1 0x0.0p+0",) * 2,
    ),
    "fridman.polydisc3": (
        "0x1.84c6572759a9bp+0", "0x1.5124271980436p-1", False, True,
        ("0x1.279a74590331dp-1 0x0.0p+0",) * 3,
    ),
    "fridman.polydisc4": (
        "0x1.d20ae03bcc152p+0", "0x1.193ea7aad030bp-1", False, True,
        ("0x1.0000000000000p-1 0x0.0p+0",) * 4,
    ),
    "fridman.polydisc5": (
        "0x1.09fec09279921p+1", "0x1.ecc2caec5160ap-2", False, True,
        ("0x1.c9f25c5bfedd9p-2 0x0.0p+0",) * 5,
    ),
    "fridman.punctured0.2": (
        "0x1.68117efca6fcfp-1", "0x1.6c05106c33696p+0", False, True,
        ("-0x1.17e4a767b3431p-1 -0x1.acb934e6d5173p-1",),
    ),
    "fridman.punctured0.5": (
        "0x1.ce05afa2cfd99p-2", "0x1.1bb1262e65b63p+1", False, True,
        ("-0x1.11a52223d6d2bp-2 -0x1.ed613888c2c37p-1",),
    ),
    "fridman.punctured0.8": (
        "0x1.32abf2a167278p-2", "0x1.ab66d731d67e4p+1", False, True,
        ("-0x1.6afa9a0f37cd5p-4 -0x1.fdfc529e387e3p-1",),
    ),
    "squeezing.polydisc2": (
        "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1", False, True,
        ("0x1.0000000000000p+0 0x0.0p+0", "0x0.0p+0 0x0.0p+0"),
    ),
    "squeezing.polydisc3": (
        "0x1.279a74590331dp-1", "0x1.279a74590331dp-1", False, True,
        ("0x1.0000000000000p+0 0x0.0p+0", "0x0.0p+0 0x0.0p+0", "0x0.0p+0 0x0.0p+0"),
    ),
    "centered.polydisc2": (
        "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1", False, True,
        ("0x1.6a09e667f3bccp-1 0x0.0p+0",) * 2,
    ),
    "centered.polydisc3": (
        "0x1.279a74590331dp-1", "0x1.279a74590331dp-1", False, True,
        ("0x1.279a74590331dp-1 0x0.0p+0",) * 3,
    ),
    "centered.polydisc4": (
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", False, True,
        ("0x1.0000000000000p-1 0x0.0p+0",) * 4,
    ),
}


class TestEstimateWorkloadPins:
    """The reports of the benchmark's ``estimate`` ops, pinned bit for bit,
    and their values against the closed forms the workload checks, to 1e-12
    relative (the bisection they replace missed by 2e-8 to 1.2e-6)."""

    @pytest.mark.parametrize(
        "op", _estimate_workload_ops(), ids=lambda op: f"{op[0]}.{op[1]}{op[2]}.s{op[3]}"
    )
    def test_report_is_pinned(self, op, monkeypatch):
        kind, domain, arg, _ = op
        value, report = _estimate_report(op, monkeypatch)
        got = (
            value.hex(), report.radius.hex(), report.hit_cap, report.certified, _hex_point(report.boundary_point)
        )
        assert got == ESTIMATE_WORKLOAD_PINS[f"{kind}.{domain}{arg}"]
        assert value == pytest.approx(_closed_form(kind, domain, arg), rel=1e-12)


def _uncertified_report(case: str, seed: int, monkeypatch) -> invariants.EstimateReport:
    """The report of one uncertified estimate at 256 samples: a witness
    built by hand, or a copy of a library one, which carries no certificate."""
    search = RadiusSearch(samples=256, seed=seed)
    squeeze = RadiusSearch(r_max=1.0, samples=256, seed=seed)
    kind, _, name = case.partition(".")
    if kind == "centered":
        return _centered_report(_turned_inclusion(TURNS[name]), 256, seed, monkeypatch)[1]
    if kind == "fridman" and name in TURNS:
        return fridman_upper_from_embedding(Polydisc(2), (0j, 0j), _turned_inclusion(TURNS[name]), search)
    if case == "fridman.slit0.5":
        copy = dataclasses.replace(slit_embedding_of_disc(0.5))
        return fridman_upper_from_embedding(PuncturedDisc(), (0.5 + 0j,), copy, search, MetricMode.POINCARE)
    if case == "squeezing.punctured0.5":
        copy = dataclasses.replace(punctured_automorphism_witness(0.5))
        return squeezing_lower_from_embedding(PuncturedDisc(), (0.5 + 0j,), copy, squeeze)
    copy = dataclasses.replace(scaled_polydisc_into_ball(2))
    return squeezing_lower_from_embedding(Polydisc(2), (0j, 0j), copy, squeeze)


# (value, radius, samples, boundary point) of each uncertified report as
# float.hex, by case and seed.  The turned inclusion and the two squeezing
# copies are decided at a seeded row, ahead of the random ones; the rotated
# inclusion and the slit copy by the random rows and their refinement.
UNCERTIFIED_PINS = {
    ("fridman.turned2", 0): (
        "0x1.2274aa148de08p+0", "0x1.c34366179d426p-1", 256, ("0x1.6a09e667f3bccp-1 0x0.0p+0",) * 2,
    ),
    ("fridman.turned2", 1): (
        "0x1.2274aa148de08p+0", "0x1.c34366179d426p-1", 256, ("0x1.6a09e667f3bccp-1 0x0.0p+0",) * 2,
    ),
    ("centered.turned2", 0): (
        "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1", 256, ("0x1.6a09e667f3bccp-1 0x0.0p+0",) * 2,
    ),
    ("centered.turned2", 1): (
        "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1", 256, ("0x1.6a09e667f3bccp-1 0x0.0p+0",) * 2,
    ),
    ("fridman.rotated2", 0): (
        "0x1.2274a9ffec8f1p+0", "0x1.c3436637aa853p-1", 256,
        ("0x1.bc8a650c18218p-2 0x1.fa8d17cc307dap-2", "-0x1.4e2b2141009e7p-1 0x1.804e678eaf8a2p-2"),
    ),
    ("fridman.rotated2", 1): (
        "0x1.2274a9f6d52d6p+0", "0x1.c3436645ca6e3p-1", 256,
        ("-0x1.ab8af906dc092p-3 -0x1.70656af2a8ad7p-1", "-0x1.51663c10d9ef7p-1 0x1.111a221a5ac8bp-4"),
    ),
    ("centered.rotated2", 0): (
        "0x1.6a09e66cd0e4bp-1", "0x1.6a09e66cd0e4bp-1", 256,
        ("0x1.bc8a6152275c3p-2 0x1.fa8d1abc1b8efp-2", "-0x1.4e2b22cdffa94p-1 0x1.804e629a3b98ep-2"),
    ),
    ("centered.rotated2", 1): (
        "0x1.6a09e66bf3560p-1", "0x1.6a09e66bf3560p-1", 256,
        ("-0x1.ab8aee46726f0p-3 -0x1.70656c81fe2fep-1", "-0x1.51663bc144095p-1 0x1.1119f7577ccbep-4"),
    ),
    ("fridman.slit0.5", 0): (
        "0x1.ce05afa2cfa9cp-2", "0x1.1bb1262e65d39p+1", 256, ("0x1.11a511c042e70p-2 -0x1.ed613ace83424p-1",),
    ),
    ("fridman.slit0.5", 1): (
        "0x1.ce05afa2cfd8fp-2", "0x1.1bb1262e65b69p+1", 256, ("-0x1.11a523e1c7869p-2 -0x1.ed61384aed6b4p-1",),
    ),
    ("squeezing.punctured0.5", 0): ("0x1.0000000000000p-1", "0x1.0000000000000p-1", 256, ("0x0.0p+0 0x0.0p+0",)),
    ("squeezing.punctured0.5", 1): ("0x1.0000000000000p-1", "0x1.0000000000000p-1", 256, ("0x0.0p+0 0x0.0p+0",)),
    ("squeezing.polydisc2", 0): (
        "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1", 256, ("0x1.0000000000000p+0 0x0.0p+0", "0x0.0p+0 0x0.0p+0"),
    ),
    ("squeezing.polydisc2", 1): (
        "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1", 256, ("0x1.0000000000000p+0 0x0.0p+0", "0x0.0p+0 0x0.0p+0"),
    ),
}


class TestUncertifiedSearchPins:
    """The sampled search of uncertified witnesses, pinned bit for bit: its
    row order, random draws and refinement."""

    @pytest.mark.parametrize("case, seed", list(UNCERTIFIED_PINS), ids=lambda x: str(x))
    def test_report_is_pinned(self, case, seed, monkeypatch):
        report = _uncertified_report(case, seed, monkeypatch)
        got = (report.value.hex(), report.radius.hex(), report.samples, _hex_point(report.boundary_point))
        assert not report.certified
        assert got == UNCERTIFIED_PINS[case, seed]


class TestCertification:
    """A report is certified only when its witness comes from a library
    constructor with a written argument for the row that decides it."""

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
    def test_slit_estimate_is_the_slit_distance(self, p):
        est = fridman_upper_from_embedding(
            PuncturedDisc(), p, slit_embedding_of_disc(p), RadiusSearch(samples=64, seed=3)
        )
        assert est.value == pytest.approx(1.0 / covering.slit_distance(p), rel=1e-12)
        assert est.certified and "slit point nearest p" in est.reason

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_polydisc_estimates_are_the_closed_forms(self, n):
        search = RadiusSearch(samples=64, seed=3)
        fridman = fridman_upper_from_embedding(Polydisc(n), (0j,) * n, ball_inclusion_into_polydisc(n), search)
        squeezing = squeezing_lower_from_embedding(Polydisc(n), (0j,) * n, scaled_polydisc_into_ball(n), search)
        assert fridman.value == pytest.approx(1.0 / math.atanh(1.0 / math.sqrt(n)), abs=1e-9)
        assert squeezing.value == pytest.approx(1.0 / math.sqrt(n), abs=1e-9)
        assert fridman.certified and squeezing.certified

    def test_a_witness_built_or_copied_by_a_caller_is_not_certified(self):
        """The same maps, built with ``EmbeddingWitness`` or copied with
        ``dataclasses.replace``, give the same radius but no certificate:
        nothing says their sample reaches the minimizer (the slit, where the
        image leaves the target on a null set, is such a case)."""
        search = RadiusSearch(samples=64, seed=3)
        library = slit_embedding_of_disc(0.5)
        copied = dataclasses.replace(library)
        built = EmbeddingWitness(**{f.name: getattr(library, f.name) for f in dataclasses.fields(library) if f.init})
        reports = [fridman_upper_from_embedding(PuncturedDisc(), 0.5, w, search) for w in (library, copied, built)]
        assert [r.certified for r in reports] == [True, False, False]
        assert reports[1].reason == reports[2].reason == invariants.UNCERTIFIED
        assert reports[1].value == pytest.approx(reports[0].value, rel=1e-12)
        assert identity_ball_witness(2)._certificate is None


def _inclusion_case(n: int):
    witness = ball_inclusion_into_polydisc(n)
    r = fridman_upper_from_embedding(Polydisc(n), (0j,) * n, witness, RadiusSearch(samples=64)).radius
    return witness, r, lambda t: sample_metric_sphere(Polydisc(n), (0j,) * n, t, 512, np.random.default_rng(5))


def _centered_case(n: int):
    witness = ball_inclusion_into_polydisc(n)
    c = largest_centered_polydisc(witness, samples=64)
    return witness, c, lambda t: metrics.polydisc_sphere_sample(n, t, 512, np.random.default_rng(5))


def _scaled_case(n: int):
    witness = scaled_polydisc_into_ball(n)
    s = squeezing_lower_from_embedding(Polydisc(n), (0j,) * n, witness, RadiusSearch(samples=64)).radius
    return witness, s, lambda t: invariants._euclidean_sphere(n, t, 512, np.random.default_rng(5))


def _slit_case(p: float):
    witness = slit_embedding_of_disc(p)
    r = fridman_upper_from_embedding(PuncturedDisc(), p, witness, RadiusSearch(samples=64)).radius
    return witness, r, lambda t: sample_metric_sphere(PuncturedDisc(), p, t, 512, np.random.default_rng(5))


def _automorphism_case(p: float):
    witness = punctured_automorphism_witness(p)
    s = squeezing_lower_from_embedding(PuncturedDisc(), p, witness).radius
    return witness, s, lambda t: invariants._euclidean_sphere(1, t, 512, np.random.default_rng(5))


# every library witness with each estimator it serves: (witness, radius,
# the target's sphere as a function of its radius, Kobayashi or euclidean)
LIBRARY_CASES = [
    *(pytest.param(case, arg, id=f"{case.__name__[1:-5]}{arg}")
      for case in (_inclusion_case, _centered_case, _scaled_case) for arg in (2, 3, 5)),
    *(pytest.param(case, arg, id=f"{case.__name__[1:-5]}{arg}")
      for case in (_slit_case, _automorphism_case) for arg in (0.2, 0.5, 0.8)),
]


class TestAgainstSphereSamples:
    """An independent check of every library estimate with the sphere
    samplers and ``image_contains``, the membership test the estimators
    used before: the sphere just inside the radius lies in the image, and
    the one just outside leaves it wherever the sample reaches the minimizer."""

    @pytest.mark.parametrize("case, arg", LIBRARY_CASES)
    def test_the_radius_is_where_the_sphere_leaves_the_image(self, case, arg):
        witness, radius, sphere = case(arg)
        assert witness.image_contains(sphere(radius * (1.0 - 1e-9))).all()
        outside = witness.image_contains(sphere(radius * (1.0 + 1e-6)))
        if case is _automorphism_case:
            # the image omits only p, which no sampled sphere hits: sampling
            # spheres is how the squeezing estimate read 0.99999905 for |p|
            assert outside.all()
        else:
            assert not outside.all()


class TestRadiusSearch:
    @pytest.mark.parametrize(
        "r_max,tol", [(1.0, math.inf), (math.nan, 1e-6), (math.inf, 1e-6), (1.0, math.nan)]
    )
    def test_non_finite_parameters_rejected(self, r_max, tol):
        with pytest.raises(ValueError, match="finite"):
            RadiusSearch(r_max=r_max, tol=tol)

    @pytest.mark.parametrize("samples", [9.5, 16.0, "16", -1, True])
    def test_samples_must_be_a_nonnegative_integer(self, samples):
        with pytest.raises(ValueError, match=f"^samples must be an integer >= 0, not {re.escape(repr(samples))}$"):
            RadiusSearch(samples=samples)

    def test_zero_samples_score_the_seeded_rows(self, monkeypatch):
        """Every source's ``boundary`` entry seeds its extreme points, so a
        search with no random rows still scores rows: an uncertified copy
        of the inclusion reports the polyradius at its seed (1, 1, 1)/sqrt 3."""
        assert RadiusSearch(samples=0).samples == 0
        copy = dataclasses.replace(ball_inclusion_into_polydisc(3))
        value, report = _centered_report(copy, 0, 7, monkeypatch)
        assert not report.certified and report.samples == 0
        assert value == report.radius == 0.5773502691896258

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """numpy seeds only from nonnegative integers; -1 and 1.5 used to fail
        inside ``validate``, with numpy's own error."""
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, not {re.escape(repr(seed))}$"):
            RadiusSearch(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert RadiusSearch(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("r_max,tol", [(-1.0, 1e-6), (0.0, 1e-6), (1.0, 0.0), (1.0, -1e-6)])
    def test_nonpositive_parameters_rejected(self, r_max, tol):
        with pytest.raises(ValueError, match="^invalid search parameters$"):
            RadiusSearch(r_max=r_max, tol=tol)


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

    def test_witness_must_map_a_ball_into_a_polydisc(self):
        with pytest.raises(WitnessValidationError, match="^witness must map a ball into a polydisc$"):
            largest_centered_polydisc(scaled_polydisc_into_ball(2))

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

    @pytest.mark.parametrize("name,value", [("seed", -1), ("seed", 1.5), ("samples", True)])
    def test_bad_seed_or_boolean_samples_rejected_before_validation(self, monkeypatch, name, value):
        """A bool is no sample count, though ``True >= 0``."""
        def unreachable(self, **kwargs):
            raise AssertionError("validated before checking the arguments")

        monkeypatch.setattr(EmbeddingWitness, "validate", unreachable)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, not {value!r}$"):
            largest_centered_polydisc(ball_inclusion_into_polydisc(2), **{name: value})
