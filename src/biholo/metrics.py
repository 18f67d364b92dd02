"""Kobayashi distances on the model domains, and metric-sphere sampling.

Every variant with a classical distance is dispatched here: the ball (and
disc), the polydisc (max of coordinate distances), the half-planes, the
punctured disc through its cover, the slit disc through its
uniformization, and the unbounded realization of the ball through a Cayley
transform.  Weighted models other than that realization have no computable
distance and raise :class:`UnsupportedDomainError`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import covering
from .domains import (
    Ball,
    HalfPlaneC,
    ModelDomain,
    Point,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UnsupportedDomainError,
    UpperHalfPlane,
    WeightedModel,
    as_point,
    contains,
    domain_dim,
)
from .hyperbolic import (
    MetricMode,
    disc_distance,
    halfplane_distance,
    halfplane_metric_circle,
)

__all__ = [
    "ball_distance",
    "ball_automorphism",
    "siegel_to_ball",
    "ball_to_siegel",
    "siegel_equivalent",
    "kobayashi_distance",
    "random_unit_vectors",
    "polydisc_sphere_sample",
    "sample_metric_sphere",
    "sample_metric_ball",
]


def ball_distance(a, b, mode: MetricMode = MetricMode.POINCARE) -> float:
    """Kobayashi distance on the unit ball of C^n.

    ``d(0, z) = artanh |z|`` in KOBAYASHI mode; the general pair goes through
    the invariant ``1 - (1 - |a|^2)(1 - |b|^2) / |1 - <a, b>|^2``.
    """
    a = as_point(a)
    b = as_point(b, len(a))
    na = sum(abs(c) ** 2 for c in a)
    nb = sum(abs(c) ** 2 for c in b)
    if na >= 1.0 or nb >= 1.0:
        raise ValueError("both points must lie in the open unit ball")
    inner = sum(x * y.conjugate() for x, y in zip(a, b))
    t2 = 1.0 - (1.0 - na) * (1.0 - nb) / abs(1.0 - inner) ** 2
    t = math.sqrt(max(t2, 0.0))
    return 2.0 * mode.scale * math.atanh(t)


def ball_automorphism(a) -> "callable":
    """Involutive automorphism of the ball swapping ``a`` and the origin."""
    a = as_point(a)
    na2 = sum(abs(c) ** 2 for c in a)
    if na2 >= 1.0:
        raise ValueError("parameter must lie in the open unit ball")
    if na2 == 0.0:
        return lambda z: as_point(z, len(a))
    s = math.sqrt(1.0 - na2)

    def phi(z) -> Point:
        z = as_point(z, len(a))
        inner = sum(x * y.conjugate() for x, y in zip(z, a))
        proj = tuple(inner / na2 * c for c in a)
        orth = tuple(x - y for x, y in zip(z, proj))
        den = 1.0 - inner
        return tuple((pa - pz - s * oz) / den for pa, pz, oz in zip(a, proj, orth))

    return phi


def siegel_to_ball(z) -> Point:
    """Cayley transform of ``{2 Re z_n + |'z|^2 < 0}`` onto the unit ball,
    sending ``('0, -1)`` to the origin."""
    z = as_point(z)
    zn = z[-1]
    wn = (1.0 + zn) / (1.0 - zn)
    return tuple(c * math.sqrt(2.0) / (1.0 - zn) for c in z[:-1]) + (wn,)


def ball_to_siegel(w) -> Point:
    w = as_point(w)
    wn = w[-1]
    zn = (wn - 1.0) / (wn + 1.0)
    return tuple(c * math.sqrt(2.0) / (1.0 + wn) for c in w[:-1]) + (zn,)


def siegel_equivalent(d: WeightedModel) -> bool:
    """True iff the weighted model is literally the unbounded ball realization
    (all type entries 2 and P = |z_1|^2 + ... + |z_{n-1}|^2)."""
    if any(m != 2 for m in d.multitype.entries[1:]):
        return False
    n = d.poly.nvars
    expected = set()
    for k in range(n):
        idx = tuple(1 if i == k else 0 for i in range(n))
        expected.add((idx, idx))
    got = {(t.alpha, t.beta): t.coeff for t in d.poly.terms}
    return set(got) == expected and all(abs(c - 1.0) < 1e-14 for c in got.values())


_SLIT_BASE = None


def _slit_base_map():
    global _SLIT_BASE
    if _SLIT_BASE is None:
        _SLIT_BASE = covering.build_slit_map(0.5, validate=False)
    return _SLIT_BASE


def kobayashi_distance(
    d: ModelDomain,
    p,
    q,
    mode: MetricMode = MetricMode.POINCARE,
) -> float:
    """Kobayashi distance between two points of a model domain."""
    p = as_point(p, domain_dim(d))
    q = as_point(q, domain_dim(d))
    if not contains(d, p) or not contains(d, q):
        raise ValueError("both points must lie in the domain")
    if isinstance(d, Ball):
        return ball_distance(p, q, mode)
    if isinstance(d, Polydisc):
        return max(disc_distance(a, b, mode) for a, b in zip(p, q))
    if isinstance(d, UpperHalfPlane):
        return halfplane_distance(p[0], q[0], mode)
    if isinstance(d, HalfPlaneC):
        a = d.linear_coeff
        return halfplane_distance(1j * (0.5 - a * p[0]), 1j * (0.5 - a * q[0]), mode)
    if isinstance(d, PuncturedDisc):
        return covering.punctured_distance(p[0], q[0], mode)
    if isinstance(d, SlitDisc):
        m = _slit_base_map()
        return disc_distance(m.inverse(p[0]), m.inverse(q[0]), mode)
    if isinstance(d, Siegel):
        return ball_distance(siegel_to_ball(p), siegel_to_ball(q), mode)
    if isinstance(d, WeightedModel):
        if siegel_equivalent(d):
            return ball_distance(siegel_to_ball(p), siegel_to_ball(q), mode)
        raise UnsupportedDomainError(
            "no computable Kobayashi distance for a general weighted model"
        )
    raise UnsupportedDomainError(f"unknown domain {d!r}")


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------


def random_unit_vectors(n: int, count: int, rng: np.random.Generator) -> list[Point]:
    out: list[Point] = []
    for _ in range(count):
        v = rng.normal(size=(n, 2)).view(np.complex128).ravel()
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            v = np.zeros(n, dtype=complex)
            v[0] = 1.0
            norm = 1.0
        out.append(tuple(complex(c) / norm for c in v))
    return out


def polydisc_sphere_sample(n: int, modulus: float, count: int, rng: np.random.Generator) -> list[Point]:
    # The corner (all coordinates at the maximal modulus) realizes the
    # extreme euclidean norm on the sphere, so include it deterministically.
    pts: list[Point] = [(complex(modulus),) * n]
    for _ in range(count):
        mask = rng.uniform(size=n) < 0.5
        mask[int(rng.integers(n))] = True
        moduli = np.where(mask, modulus, rng.uniform(0.0, modulus, size=n))
        phases = rng.uniform(0.0, covering.TWO_PI, size=n)
        pts.append(tuple(complex(m * math.cos(t), m * math.sin(t)) for m, t in zip(moduli, phases)))
    return pts


def _punctured_sphere(center: complex, radius_p: float, count: int, rng: np.random.Generator) -> list[Point]:
    z0 = covering.principal_lift(center)
    ecenter, eradius = halfplane_metric_circle(z0, radius_p, MetricMode.POINCARE)
    pts: list[Point] = []
    angles = np.linspace(0.0, covering.TWO_PI, count, endpoint=False) + rng.uniform(0.0, 1e-3)
    for t in angles:
        w = ecenter + eradius * complex(math.cos(t), math.sin(t))
        if abs(w.real - z0.real) <= math.pi:
            pts.append((cmath.exp(1j * w),))
    # Where the circle crosses the lines Re = x0 +/- pi the projection lands
    # exactly on the antipodal ray; those are the extreme sphere points, so
    # add them exactly (crucially, on the negative real axis when the center
    # is real positive).
    if eradius > math.pi:
        h = math.sqrt(eradius * eradius - math.pi * math.pi)
        for y in (ecenter.imag - h, ecenter.imag + h):
            if y <= 0:
                continue
            r = math.exp(-y)
            if z0.real == 0.0:
                pts.append((complex(-r, 0.0),))
            else:
                pts.append((cmath.exp(1j * complex(z0.real + math.pi, y)),))
    return pts


def sample_metric_sphere(
    d: ModelDomain,
    center,
    radius: float,
    count: int,
    rng: np.random.Generator,
    mode: MetricMode = MetricMode.POINCARE,
) -> list[Point]:
    """Sample the Kobayashi sphere of the given radius around ``center``.

    Samples are dense in angle and include the extreme points that decide
    ball-containment questions (polydisc corners, antipodal crossings in the
    punctured disc).
    """
    center = as_point(center, domain_dim(d))
    if radius <= 0:
        raise ValueError("radius must be positive")
    radius_k = radius * MetricMode.KOBAYASHI.scale / mode.scale
    if isinstance(d, Ball):
        rho = math.tanh(radius_k)
        sphere = [tuple(rho * c for c in v) for v in random_unit_vectors(d.dim, count, rng)]
        if any(c != 0 for c in center):
            phi = ball_automorphism(center)
            sphere = [phi(s) for s in sphere]
        return sphere
    if isinstance(d, Polydisc):
        rho = math.tanh(radius_k)
        pts = polydisc_sphere_sample(d.dim, rho, count, rng)
        if any(c != 0 for c in center):
            moved = []
            for s in pts:
                moved.append(
                    tuple((c + a) / (1.0 + a.conjugate() * c) for c, a in zip(s, center))
                )
            pts = moved
        return pts
    if isinstance(d, UpperHalfPlane):
        ecenter, eradius = halfplane_metric_circle(center[0], radius, mode)
        angles = np.linspace(0.0, covering.TWO_PI, count, endpoint=False)
        return [(ecenter + eradius * complex(math.cos(t), math.sin(t)),) for t in angles]
    if isinstance(d, PuncturedDisc):
        radius_p = radius / mode.scale
        return _punctured_sphere(center[0], radius_p, count, rng)
    raise UnsupportedDomainError(f"no sphere sampler for domain {d!r}")


def sample_metric_ball(
    d: ModelDomain,
    center,
    radius: float,
    count: int,
    rng: np.random.Generator,
    mode: MetricMode = MetricMode.POINCARE,
) -> list[Point]:
    """Sample the closed Kobayashi ball, weighting the outer shells."""
    center = as_point(center, domain_dim(d))
    if isinstance(d, (UpperHalfPlane, HalfPlaneC)):
        if isinstance(d, HalfPlaneC):
            a = d.linear_coeff
            z0 = 1j * (0.5 - a * center[0])
        else:
            z0 = center[0]
        pts: list[Point] = []
        for _ in range(count):
            t = radius * math.sqrt(rng.uniform())
            if t == 0.0:
                w = z0
            else:
                ecenter, eradius = halfplane_metric_circle(z0, t, mode)
                ang = rng.uniform(0.0, covering.TWO_PI)
                w = ecenter + eradius * complex(math.cos(ang), math.sin(ang))
            if isinstance(d, HalfPlaneC):
                pts.append(((0.5 - w / 1j) / a,))
            else:
                pts.append((w,))
        # boundary shell
        ecenter, eradius = halfplane_metric_circle(z0, radius, mode)
        for ang in np.linspace(0.0, covering.TWO_PI, max(count // 2, 8), endpoint=False):
            w = ecenter + eradius * complex(math.cos(ang), math.sin(ang))
            if isinstance(d, HalfPlaneC):
                pts.append(((0.5 - w / 1j) / a,))
            else:
                pts.append((w,))
        return pts
    raise UnsupportedDomainError(f"no ball sampler for domain {d!r}")
