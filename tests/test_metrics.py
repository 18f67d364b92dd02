"""Tests for the model-domain distance dispatcher and sphere sampling."""

import cmath
import math
import re

import numpy as np
import pytest

from biholo import domains, metrics
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
    as_point,
    contains_rows,
    modulus_power,
    random_unit_vectors,
    sample_rows,
)
from biholo.hyperbolic import MetricMode, disc_distance, halfplane_distance
from biholo.invariants import fridman_exact, squeezing_exact
from biholo.maps import Mobius
from biholo.metrics import (
    ball_automorphism,
    ball_distance,
    ball_to_siegel,
    kobayashi_distance,
    metric_sphere,
    polydisc_sphere,
    sample_metric_ball,
    sample_metric_sphere,
    siegel_equivalent,
    siegel_to_ball,
)


def record_distance(domain, p, rows):
    """The distances from ``p`` to every row by the distance of the
    variant's record, on the columns of the rows."""
    return metrics._geometry(domain).distance(domain, p, rows.T)


class TestKobayashiNormalization:
    """Distances, sphere radii and ball radii are Kobayashi, whatever the
    entry; POINCARE is an output choice only."""

    def test_default_distance_is_kobayashi(self):
        """d(0, 1/2) = artanh(1/2) = 0.5493 on the disc, not 2 artanh(1/2)."""
        expected = math.atanh(0.5)
        assert abs(kobayashi_distance(Ball(1), 0, 0.5) - expected) <= math.ulp(expected)
        assert kobayashi_distance(Ball(1), 0, 0.5, MetricMode.POINCARE) == 2.0 * kobayashi_distance(Ball(1), 0, 0.5)

    def test_sphere_and_ball_take_kobayashi_radii(self):
        """The disc's sphere of radius r around 0 is the circle |z| = tanh r,
        and the half-plane's ball of radius r around i, whose sample holds
        its boundary circle, reaches up to i e^(2r)."""
        r = 0.75
        sphere = metric_sphere(Ball(1), 0.0, 32, np.random.default_rng(1))(r)
        assert np.abs(sphere[:, 0]).tolist() == pytest.approx([math.tanh(r)] * 32, rel=1e-15)
        ball = sample_metric_ball(UpperHalfPlane(), 1j, r, 64, np.random.default_rng(1))
        assert ball.imag.max() == pytest.approx(math.exp(2.0 * r), rel=1e-12)


class TestBallDistance:
    def test_radial_value(self):
        assert ball_distance((0.5, 0.0), (0j, 0j)) == pytest.approx(math.atanh(0.5), abs=1e-12)

    def test_matches_disc_in_dimension_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            b = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            assert ball_distance((a,), (b,)) == pytest.approx(disc_distance(a, b), abs=5e-13)

    def test_unitary_invariance(self):
        a, b = (0.3 + 0.1j, 0.2j), (0.1 - 0.2j, 0.4 + 0j)
        phase = complex(math.cos(1.1), math.sin(1.1))
        rotated = tuple(phase * c for c in a), tuple(phase * c for c in b)
        assert ball_distance(a, b) == pytest.approx(ball_distance(*rotated), abs=5e-13)

    @staticmethod
    def reference(mp, a, b):
        """``artanh`` of the root of ``1 - (1-|a|^2)(1-|b|^2)/|1-<a,b>|^2``,
        evaluated at 60 digits, where its cancellation costs nothing."""
        a, b = [mp.mpc(c) for c in a], [mp.mpc(c) for c in b]
        na, nb = sum(abs(c) ** 2 for c in a), sum(abs(c) ** 2 for c in b)
        inner = sum(x * mp.conj(y) for x, y in zip(a, b))
        return mp.atanh(mp.sqrt(1 - (1 - na) * (1 - nb) / abs(1 - inner) ** 2))

    def test_relative_accuracy_against_mpmath(self):
        """Within 1e-12 relative for Ball(2) pairs with both points at least
        1e-3 from the sphere and separations from 1e-12 to 1, and for the
        nearly equal pair at which the atanh form returned 0.0."""
        mpmath = pytest.importorskip("mpmath", reason="the 60-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        rng = np.random.default_rng(31)
        pairs = [((0.3,), (0.3 + 1e-9,))]
        while len(pairs) < 2_000:
            u, v = rng.normal(size=(2, 4))
            radius = 1.0 - 10.0 ** rng.uniform(-3.0, 0.0)
            step = 10.0 ** rng.uniform(-12.0, 0.0) / np.linalg.norm(v)
            a = tuple(complex(x, y) * radius / np.linalg.norm(u) for x, y in u.reshape(2, 2))
            b = tuple(c + complex(x, y) * step for c, (x, y) in zip(a, v.reshape(2, 2)))
            if sum(abs(c) ** 2 for c in b) <= (1.0 - 1e-3) ** 2:
                pairs.append((a, b))
        for a, b in pairs:
            d, ref = ball_distance(a, b), self.reference(mp, a, b)
            assert abs(mp.mpf(d) - ref) <= 1e-12 * ref, (a, b, d, ref)

    @pytest.mark.parametrize(
        "a, b",
        [((1 - 1e-9,), (-(1 - 1e-9),)), ((1 - 1e-12,), (complex(0.0, 1 - 1e-12),))],
        ids=["antipodal-1e-9", "quarter-turn-1e-12"],
    )
    def test_pairs_near_the_sphere_are_finite(self, a, b):
        """The atanh form raised a math domain error here.  The remaining
        error, 2.3e-11 relative, is the rounding of ``1 - sum |a_i|^2``."""
        mpmath = pytest.importorskip("mpmath", reason="the 60-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        d, ref = ball_distance(a, b), self.reference(mp, a, b)
        assert abs(mp.mpf(d) - ref) <= 1e-10 * ref, (d, ref)


class TestDispatcher:
    def test_polydisc_is_max_metric(self):
        p, q = (0.5 + 0j, 0j), (0j, 0.2 + 0j)
        expected = max(disc_distance(0.5, 0.0), disc_distance(0.0, 0.2))
        assert kobayashi_distance(Polydisc(2), p, q) == pytest.approx(expected, abs=5e-13)

    def test_halfplane_variants_agree_through_the_affine_map(self):
        """HalfPlaneC(1) = {Re z < 1/2} matches the standard half-plane."""
        hp = HalfPlaneC(1.0)
        d = kobayashi_distance(hp, 0j, (0.4 + 0j,))
        expected = halfplane_distance(0.5j, 1j * (0.5 - 0.4))
        assert d == pytest.approx(expected, abs=5e-13)

    def test_punctured_routes_through_the_cover(self):
        d = kobayashi_distance(PuncturedDisc(), 0.3, 0.3 * complex(math.cos(1.0), math.sin(1.0)))
        from biholo.covering import deck_minimum

        assert d == pytest.approx(deck_minimum(0.3, 1.0), abs=5e-13)

    @pytest.mark.parametrize(
        "a, b",
        [(1 - 1e-9, -(1 - 1e-9)), (1 - 1e-12, complex(0.0, 1 - 1e-12)), (0.999999, 0.9999991j)],
        ids=["antipodal-1e-9", "quarter-turn-1e-12", "near-the-circle"],
    )
    def test_unit_ball_is_the_disc(self, a, b):
        """Ball(1) takes the disc form, bit for bit: near the circle the
        ball form is up to 2.3e-11 relative off the 60-digit reference."""
        d = kobayashi_distance(Ball(1), a, b)
        assert d == disc_distance(a, b)
        mpmath = pytest.importorskip("mpmath", reason="the 60-digit reference needs mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        za, zb = mp.mpc(a), mp.mpc(b)
        ref = mp.atanh(abs(za - zb) / abs(1 - mp.conj(za) * zb))
        assert abs(mp.mpf(d) - ref) <= 1e-15 * ref, (d, ref)

    def test_slit_disc_distance_exceeds_disc_distance(self):
        d_slit = kobayashi_distance(SlitDisc(), 0.5, 0.5j)
        assert d_slit > disc_distance(0.5, 0.5j)

    def test_siegel_matches_ball_through_cayley(self):
        dom = Siegel(2)
        p = (0j, -1.0 + 0j)
        q = (0.3 + 0.1j, -2.0 + 0.5j)
        assert kobayashi_distance(dom, p, q) == pytest.approx(
            ball_distance(siegel_to_ball(p), siegel_to_ball(q)), abs=5e-13
        )

    def test_siegel_cayley_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = (
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
            )
            z = ball_to_siegel(w)
            assert 2.0 * z[-1].real + abs(z[0]) ** 2 < 0.0
            back = siegel_to_ball(z)
            assert max(abs(u - v) for u, v in zip(back, w)) <= 1e-12

    def test_weighted_model_is_unsupported_unless_siegel(self):
        ok = WeightedModel(Multitype((1, 2, 2)), modulus_power(2, 0, 1) + modulus_power(2, 1, 1))
        assert siegel_equivalent(ok)
        kobayashi_distance(ok, (0j, 0j, -1.0 + 0j), (0j, 0j, -2.0 + 0j))
        other = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
        with pytest.raises(UnsupportedDomainError):
            kobayashi_distance(other, (0j, -1.0 + 0j), (0j, -2.0 + 0j))

    def test_rejects_exterior_points(self):
        with pytest.raises(ValueError):
            kobayashi_distance(Ball(1), 0.2, 1.5)

    @pytest.mark.parametrize(
        "domain, inside, outside, boundary",
        [
            pytest.param(*case, id=case[0].label)
            for case in [
                (Ball(1), 0.2, 1.5, 1.0),
                (Ball(2), (0.1, 0.1j), (1.0, 0.5), (1.0, 0j)),
                (Polydisc(3), (0.5, 0.5, 0.5), (0.5, 2.0, 0j), (0j, 1j, 0j)),
                (UpperHalfPlane(), 1j, -1j, 2.0),
                (HalfPlaneC(1.0), 0j, 1.0, 0.5),
                (PuncturedDisc(), 0.5, 1.5, 0j),
                (SlitDisc(), 0.5, 2j, -0.5),
                (Siegel(2), (0j, -1.0), (0j, 1.0), (0.6, -0.18)),
            ]
        ],
    )
    @pytest.mark.parametrize("where", ["outside", "boundary"])
    def test_points_off_the_domain_raise(self, domain, inside, outside, boundary, where):
        """Each boundary point has defining value exactly 0."""
        off = outside if where == "outside" else boundary
        for p, q in ((inside, off), (off, inside)):
            with pytest.raises(ValueError, match=rf"^point \(.*\) is not in the domain {re.escape(domain.label)}$"):
                kobayashi_distance(domain, p, q)

    def test_each_point_is_coerced_once(self, monkeypatch):
        """The entry coerces each point once and tests membership on the
        coerced tuple, not through ``contains``, which would coerce again."""
        calls = {"as_point": 0, "contains": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(metrics, "as_point", counted("as_point", domains.as_point))
        monkeypatch.setattr(metrics, "contains", counted("contains", domains.contains), raising=False)
        monkeypatch.setattr(domains, "contains", counted("contains", domains.contains))
        assert kobayashi_distance(Ball(1), 0.2, 0.5j) == disc_distance(0.2, 0.5j)
        assert calls == {"as_point": 2, "contains": 0}

    def test_siegel_equivalent_model_has_the_siegel_record(self):
        """A weighted model that is literally the unbounded ball realization
        gets every closed form of Siegel(2); any other weighted model none."""
        model = WeightedModel(Multitype((1, 2)), modulus_power(1, 0, 1))
        p, q = (0.3 - 0.2j, -1.4 + 0.5j), (0.1j, -1.0)
        assert kobayashi_distance(model, p, q) == kobayashi_distance(Siegel(2), p, q)
        assert fridman_exact(model, p) == 0.0
        assert squeezing_exact(model, p) == 1.0
        rows = sample_metric_ball(model, p, 0.65, 64, np.random.default_rng(9))
        assert rows.tobytes() == sample_metric_ball(Siegel(2), p, 0.65, 64, np.random.default_rng(9)).tobytes()
        other = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
        with pytest.raises(UnsupportedDomainError, match="ball sampler"):
            sample_metric_ball(other, (0j, -1.0), 1.0, 8, np.random.default_rng(0))


# One pair per variant with a distance, and its distance in POINCARE and in
# KOBAYASHI mode as float.hex, so that any change to a formula's arithmetic
# shows.
PINNED_DISTANCES = [
    (Ball(1), (0.3 - 0.4j,), (-0.5 + 0.1j,), "0x1.0ec924f311bb8p+1", "0x1.0ec924f311bb8p+0"),
    (Ball(2), (0.3, -0.2j), (-0.1 + 0.4j, 0.5), "0x1.e4c03d47f820cp+0", "0x1.e4c03d47f820cp-1"),
    (Polydisc(3), (0.1, 0.2j, -0.3), (0.5j, -0.4, 0.6 + 0.1j), "0x1.036d11301c830p+1", "0x1.036d11301c830p+0"),
    (UpperHalfPlane(), (0.3 + 2j,), (-1.0 + 0.5j,), "0x1.c08857e175da5p+0", "0x1.c08857e175da5p-1"),
    (HalfPlaneC(1.0 + 0.5j), (-0.4j,), (-0.6 + 0.3j,), "0x1.87998aced936ap+0", "0x1.87998aced936ap-1"),
    (PuncturedDisc(), (0.5,), (-0.3 + 0.2j,), "0x1.36337567275f6p+1", "0x1.36337567275f6p+0"),
    (SlitDisc(), (0.5,), (-0.3 + 0.1j,), "0x1.e05bede33a2fcp+1", "0x1.e05bede33a2fcp+0"),
    (Siegel(2), (0.3 - 0.2j, -1.4 + 0.5j), (0.1j, -1.0), "0x1.7b8c06e83fac9p-1", "0x1.7b8c06e83fac9p-2"),
]


@pytest.mark.parametrize(
    "domain, p, q, poincare, kobayashi", [pytest.param(*case, id=case[0].label) for case in PINNED_DISTANCES]
)
def test_distances_are_pinned_bit_for_bit(domain, p, q, poincare, kobayashi):
    assert kobayashi_distance(domain, p, q, MetricMode.POINCARE) == float.fromhex(poincare)
    assert kobayashi_distance(domain, p, q, MetricMode.KOBAYASHI) == float.fromhex(kobayashi)


def test_every_record_but_the_weighted_model_has_a_distance_and_a_sphere():
    for kind, record in metrics._GEOMETRY.items():
        assert (record.distance is None) == (record.sphere is None) == (kind is WeightedModel), kind


@pytest.mark.parametrize("domain, center", [pytest.param(*case[:2], id=case[0].label) for case in PINNED_DISTANCES])
def test_every_sphere_lies_at_its_radius(domain, center):
    """The rows of every record's sphere lie in the domain, at the record's
    distance r from the center, to 1e-11 relative: the largest error
    measured, on 256-point spheres at these radii, was 5.6e-12 at r = 3 on
    the punctured disc."""
    sphere = metric_sphere(domain, center, 64, np.random.default_rng(2))
    for r in (0.1, 1.0, 3.0):
        rows = sphere(r)
        assert contains_rows(domain, rows).all()
        assert record_distance(domain, as_point(center), rows).tolist() == pytest.approx([r] * len(rows), rel=1e-11)


_CAYLEY = Mobius.cayley_disc_to_halfplane().apply
_HALFPLANE_C = HalfPlaneC(1.0 + 0.5j)


class TestKobayashiDistanceRows:
    """The distance of every record from one point to many rows, the form
    the scaling checks call, against the scalar distance."""

    @pytest.mark.parametrize(
        "domain, image, atol",
        [
            pytest.param(*case, id=case[0].label)
            for case in [
                (Ball(1), None, 0.0),
                (Ball(2), None, 0.0),
                (Polydisc(3), None, 0.0),
                (UpperHalfPlane(), lambda z: (_CAYLEY(z[0]),), 0.0),
                (_HALFPLANE_C, lambda z: (_HALFPLANE_C.from_halfplane(_CAYLEY(z[0])),), 0.0),
                (PuncturedDisc(), None, 3e-15),
                (SlitDisc(), lambda z: (metrics._SLIT_MAP.apply(z[0]),), 1e-14),
                (Siegel(2), ball_to_siegel, 0.0),
            ]
        ],
    )
    @pytest.mark.parametrize("mode", list(MetricMode))
    def test_rows_match_points(self, domain, image, atol, mode):
        """Row by row the scalar distance to 16 ulp: numpy's ``arcsinh`` and
        complex ``abs`` and division may differ from Python's by an ulp, and
        the two roundings reached 6, 7, 6, 3, 3 and 10 ulp on 100,000 rows
        of ``Ball(1)``, ``Ball(2)``, ``Polydisc(3)``, both half-planes and
        ``Siegel(2)``.  The points are drawn in the ball of radius 0.9 and
        mapped into the domain by ``image`` (the Cayley transform, the slit
        map, ``ball_to_siegel``), since near the boundary the forms magnify
        an ulp.

        The punctured-disc and slit-disc rows round differently, through
        ``arctan2`` and ``log`` and through the Mobius chain: at small
        distances they reached 160 and 225 ulp, 1.3e-15 and 5.1e-15 in
        absolute terms on the same 100,000 rows, so they are held to an
        absolute ``atol`` instead (ROADMAP item 1's misses)."""
        rng = np.random.default_rng(11)
        n = domain.dim
        rows = sample_rows(Ball(n), rng, 301)
        p, rows = 0.5 * rows[:1], 0.9 * rows[1:]
        if image is not None:
            p, rows = np.column_stack(image(p.T)), np.column_stack(image(rows.T))
        p = tuple(complex(c) for c in p[0])
        d = mode.factor * record_distance(domain, p, rows)
        assert d.shape == (300,)
        for x, q in zip(d.tolist(), rows.tolist()):
            ref = kobayashi_distance(domain, p, q, mode)
            assert abs(x - ref) <= max(16 * math.ulp(ref), mode.factor * atol)

    @pytest.mark.parametrize(
        "domain, p, rows",
        [
            (Ball(1), (0.2,), [(0.1,), (1.5,)]),
            (Ball(2), (0j, 0.1), [(0j, 0.1), (complex("nan"), 0j)]),
            (Siegel(2), (0j, -1.0), [(0j, -1.0), (0j, 0.5)]),
            (Ball(2), (0.9, 0.9), [(0j, 0j), (0.1, 0.1j)]),
            (Polydisc(2), (0j, 0.1), [(0j, 0.1), (0.5, 1.5)]),
            (UpperHalfPlane(), (1j,), [(2j,), (1.0 - 1j,)]),
            (PuncturedDisc(), (0.5,), [(0.3,), (0j,)]),
        ],
        ids=["row-outside", "nan-row", "siegel-row-outside", "center-outside", "polydisc-row-outside",
             "halfplane-row-outside", "puncture-row"],
    )
    def test_points_off_the_domain_raise(self, domain, p, rows):
        with pytest.raises(ValueError):
            record_distance(domain, p, np.array(rows, dtype=complex))


class TestSphereSampling:
    def test_ball_sphere_is_equidistant(self):
        rng = np.random.default_rng(10)
        pts = sample_metric_sphere(Ball(2), (0j, 0j), 0.7, 64, rng)
        for s in pts:
            assert ball_distance((0j, 0j), s) == pytest.approx(0.7, abs=1e-10)

    def test_ball_sphere_off_center(self):
        rng = np.random.default_rng(10)
        center = (0.3 + 0j, 0.1j)
        pts = sample_metric_sphere(Ball(2), center, 0.25, 64, rng)
        for s in pts:
            assert ball_distance(center, s) == pytest.approx(0.25, abs=5e-10)

    def test_polydisc_sphere_includes_the_corner(self):
        rng = np.random.default_rng(10)
        r = 0.9
        pts = sample_metric_sphere(Polydisc(2), (0j, 0j), r, 32, rng)
        rho = math.tanh(r)
        assert pts.shape == (33, 2)
        assert tuple(pts[0]) == (complex(rho), complex(rho))
        for s in pts:
            assert max(abs(c) for c in s) == pytest.approx(rho, abs=1e-12)

    def test_punctured_sphere_distances(self):
        rng = np.random.default_rng(10)
        p = 0.3
        radius = 0.6
        pts = sample_metric_sphere(PuncturedDisc(), p, radius, 128, rng)
        from biholo.covering import punctured_distance

        for (s,) in pts:
            assert punctured_distance(p, s) <= radius + 5e-10

    def test_punctured_sphere_hits_the_negative_axis_when_wide(self):
        """Past the slit distance the sphere contains exact slit points."""
        rng = np.random.default_rng(10)
        from biholo.covering import slit_distance

        p = 0.3
        radius = slit_distance(p) + 0.025
        pts = sample_metric_sphere(PuncturedDisc(), p, radius, 64, rng)
        crossings = [s for (s,) in pts if s.imag == 0.0 and s.real < 0.0]
        assert crossings

    def test_punctured_sphere_stays_dense_past_the_slit_distance(self):
        """The angles go on the arcs of the lifted circle that project into
        the fundamental domain, so a wide sphere keeps its 256 points (it had
        80, 28 and 4 at r = 1.5, 2 and 3); far out, the rows that underflow
        to the puncture are dropped."""
        sphere = metric_sphere(PuncturedDisc(), 0.5, 256, np.random.default_rng(0))
        for r in (1.5, 2.0, 3.0):
            assert len(sphere(r)) >= 256
        assert contains_rows(PuncturedDisc(), sphere(8.0)).all()

    @pytest.mark.parametrize(
        "d,center,radius,rel",
        [
            (UpperHalfPlane(), 0.3 + 0.7j, 6.0, 1e-14),
            (UpperHalfPlane(), 0.3 + 0.7j, 10.0, 1e-14),
            # the rest of its error is from_halfplane's rounding (ROADMAP item 1)
            (HalfPlaneC(1.0 + 0.5j), 0.3 + 0.7j, 10.0, 1e-8),
            (PuncturedDisc(), 0.5, 4.0, 1e-12),
        ],
        ids=["halfplane-6", "halfplane-10", "halfplane-linear-10", "punctured-4"],
    )
    def test_wide_sphere_keeps_relative_precision(self, d, center, radius, rel):
        """Every row lies at the radius to relative precision.  The lower arc
        of the lifted circle had Im = y0 cosh t - y0 sinh t |sin|, which
        cancels: the half-plane rows missed r = 6 by 3e-7 and left the domain
        at r = 10, and the punctured rows missed r = 4 by 9e-11."""
        rows = metric_sphere(d, center, 256, np.random.default_rng(0))(radius)
        assert contains_rows(d, rows).all()
        assert max(abs(kobayashi_distance(d, center, row) - radius) for row in rows) <= rel * radius

    def test_halfplane_sphere(self):
        rng = np.random.default_rng(10)
        pts = sample_metric_sphere(UpperHalfPlane(), 1j, 0.3, 32, rng)
        for (s,) in pts:
            assert halfplane_distance(1j, s) == pytest.approx(0.3, abs=5e-11)


class TestOneSampleAtEveryRadius:
    """``metric_sphere`` and ``polydisc_sphere`` draw once and rescale; at
    every radius they give, bit for bit, the rows of a fresh draw from the
    same seed at that radius, written out here as a reference."""

    RADII = (0.05, 0.5, 1.0, 3.0, 12.0)

    @staticmethod
    def fresh_polydisc(n, modulus, count, rng):
        full = rng.uniform(size=(count, n)) < 0.5
        full[np.arange(count), rng.integers(n, size=count)] = True
        moduli = np.where(full, modulus, rng.uniform(0.0, modulus, size=(count, n)))
        pts = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(count, n)))
        return np.concatenate([np.full((1, n), complex(modulus)), pts])

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_polydisc(self, n):
        sphere = polydisc_sphere(n, 40, np.random.default_rng(4))
        for r in self.RADII:
            modulus = math.tanh(r)
            expected = self.fresh_polydisc(n, modulus, 40, np.random.default_rng(4))
            assert sphere(modulus).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", list(MetricMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("center", [(0j, 0j), (0.3 + 0j, 0.1j)], ids=["origin", "off-center"])
    def test_ball(self, center, mode):
        """Radii ``r`` in the units of ``mode``, converted where the sphere
        is drawn, as the Fridman estimator does."""
        sphere = metric_sphere(Ball(2), center, 48, np.random.default_rng(3))
        for r in self.RADII:
            rng = np.random.default_rng(3)
            radius_k = r / mode.factor
            rows = math.tanh(radius_k) * random_unit_vectors(2, 48, rng)
            expected = np.column_stack(ball_automorphism(center)(rows.T))
            assert sphere(r / mode.factor).tobytes() == expected.tobytes()

    def test_one_shot_samplers_are_the_sampler_at_one_radius(self):
        for d, center in ((Polydisc(3), (0.1 + 0j, 0.2j, -0.3 + 0j)), (PuncturedDisc(), 0.3), (UpperHalfPlane(), 1j)):
            sphere = metric_sphere(d, center, 32, np.random.default_rng(5))
            for r in self.RADII:
                once = sample_metric_sphere(d, center, r, 32, np.random.default_rng(5))
                assert sphere(r).tobytes() == once.tobytes()

    def test_nonpositive_radius_raises(self):
        sphere = metric_sphere(Ball(2), (0j, 0j), 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive"):
            sphere(0.0)

    def test_unsupported_domain(self):
        other = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
        with pytest.raises(UnsupportedDomainError, match="sphere sampler"):
            metric_sphere(other, (0j, -1.0 + 0j), 8, np.random.default_rng(0))


class TestSamplerArguments:
    """``metric_sphere`` and ``sample_metric_ball`` check their center by its
    defining value and want a finite positive radius."""

    def test_sphere_center_outside_the_domain(self):
        with pytest.raises(ValueError, match="not in the domain"):
            metric_sphere(Polydisc(2), (2, 0), 8, np.random.default_rng(0))

    def test_ball_center_on_the_boundary(self):
        with pytest.raises(ValueError, match="not in the domain"):
            sample_metric_ball(Siegel(2), (0, 1), 0.5, 8, np.random.default_rng(0))

    def test_ball_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            sample_metric_ball(Siegel(2), (0, -1), -1.0, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius(self, radius):
        sphere = metric_sphere(Ball(2), (0j, 0j), 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="radius"):
            sphere(radius)
        with pytest.raises(ValueError, match="radius"):
            sample_metric_ball(Siegel(2), (0, -1), radius, 8, np.random.default_rng(0))


class TestBallSampling:
    @pytest.mark.parametrize("mode", list(MetricMode), ids=lambda m: m.value)
    def test_siegel_ball_off_the_basepoint(self, mode):
        """Samples of the Siegel ball around a point other than the basepoint
        ``(0, -1)`` lie within the radius of that point, and fill it out;
        the radius is in the units of ``mode``."""
        d = Siegel(2)
        center = (0.3 - 0.2j, -1.4 + 0.5j)
        pts = sample_metric_ball(d, center, 1.5 / mode.factor, 400, np.random.default_rng(3))
        dists = [kobayashi_distance(d, center, q, mode) for q in pts]
        assert len(pts) == 400
        assert max(dists) <= 1.5 + 1e-12
        assert max(dists) > 1.45

    @pytest.mark.parametrize(
        "d,center",
        [
            (UpperHalfPlane(), (0.3 + 2j,)),
            (HalfPlaneC(1.0 + 0.5j), (-0.4j,)),
            (Siegel(2), (0.3 - 0.2j, -1.4 + 0.5j)),
        ],
        ids=["halfplane", "halfplane-linear", "siegel2"],
    )
    def test_rows_match_one_sample_at_a_time(self, d, center):
        """The rows against the loop they replaced, on the same random
        stream: the same points to rounding (numpy's cosh, sinh and tanh may
        differ from the math module's in the last place)."""
        radius, count = 1.3, 64
        rows = sample_metric_ball(d, center, radius, count, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        if isinstance(d, Siegel):
            phi = ball_automorphism(siegel_to_ball(center))
            expected = []
            for v in random_unit_vectors(d.dim, count, rng).tolist():
                rho = math.tanh(radius * math.sqrt(rng.uniform()))
                expected.append(ball_to_siegel(phi(tuple(rho * c for c in v))))
        else:
            z0 = d.to_halfplane(center[0]) if isinstance(d, HalfPlaneC) else center[0]

            def circle(r, angle):  # x0 + i y0 cosh t + y0 sinh t e^(i angle), t = 2 r
                t = 2.0 * r
                return complex(z0.real, z0.imag * math.cosh(t)) + z0.imag * math.sinh(t) * cmath.exp(1j * angle)

            ws = [circle(radius * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(count)]
            shell = np.linspace(0.0, 2.0 * math.pi, count // 2, endpoint=False)
            ws += [circle(radius, a) for a in shell]
            expected = [(d.from_halfplane(w) if isinstance(d, HalfPlaneC) else w,) for w in ws]
        assert rows.shape == (len(expected), d.dim)
        assert rows.tolist() == [pytest.approx(list(p), rel=1e-13) for p in expected]

    @pytest.mark.parametrize("radius", [8.0, 10.0, 12.0])
    @pytest.mark.parametrize(
        "d,center",
        [(UpperHalfPlane(), 0.3 + 0.7j), (HalfPlaneC(1.0 + 0.5j), -0.5 + 0.2j)],
        ids=["halfplane", "halfplane-linear"],
    )
    def test_wide_ball_stays_in_the_domain(self, d, center, radius):
        """Far out, every row of the ball lies in the domain; on the
        half-plane its distance stays within 1e-12 relative of the radius.
        ``HalfPlaneC``'s rows go through ``from_halfplane``, whose rounding
        is not bounded here."""
        rows = sample_metric_ball(d, (center,), radius, 64, np.random.default_rng(0))
        assert (d.defining(rows.T) < 0.0).all()
        if isinstance(d, UpperHalfPlane):
            assert max(kobayashi_distance(d, (center,), q) for q in rows) <= radius * (1.0 + 1e-12)

    def test_unsupported_domain(self):
        with pytest.raises(UnsupportedDomainError, match="ball sampler"):
            sample_metric_ball(Ball(2), (0j, 0j), 1.0, 8, np.random.default_rng(0))
