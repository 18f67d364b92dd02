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
from typing import Callable

import numpy as np

from . import covering
from .domains import (
    Ball,
    HalfPlaneC,
    ModelDomain,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UnsupportedDomainError,
    UpperHalfPlane,
    WeightedModel,
    _coordinates,
    as_point,
    contains,
    random_unit_vectors,
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
    "polydisc_sphere",
    "polydisc_sphere_sample",
    "metric_sphere",
    "sample_metric_sphere",
    "sample_metric_ball",
]


def ball_distance(a, b, mode: MetricMode = MetricMode.POINCARE):
    """Kobayashi distance on the unit ball of C^n.

    ``d(0, z) = artanh |z|`` in KOBAYASHI mode.  With ``e = b - a``, the
    general pair is ``2 asinh`` of the root of
    ``sinh^2(d/2) = (|e|^2 (1 - |a|^2) + |<e, a>|^2) / ((1 - |a|^2)(1 - |b|^2))``
    in POINCARE mode: a sum of nonnegative terms, so nearly equal points
    lose no digits.

    ``b`` is a point or the columns of rows; for rows the result is one
    distance from ``a`` per row, by the same formula in numpy.
    """
    a = as_point(a)
    b = _coordinates(b, len(a))
    na = sum(abs(c) ** 2 for c in a)
    nb = sum(abs(c) ** 2 for c in b)
    rows = isinstance(nb, np.ndarray)
    if not na < 1.0 or not ((nb < 1.0).all() if rows else nb < 1.0):
        raise ValueError("both points must lie in the open unit ball")
    e = [y - x for x, y in zip(a, b)]
    ne = sum(abs(c) ** 2 for c in e)
    inner = sum(x * y.conjugate() for x, y in zip(e, a))
    s2 = (ne * (1.0 - na) + abs(inner) ** 2) / ((1.0 - na) * (1.0 - nb))
    return 2.0 * mode.scale * (np.arcsinh(np.sqrt(s2)) if rows else math.asinh(math.sqrt(s2)))


def ball_automorphism(a) -> "callable":
    """Involutive automorphism of the ball swapping ``a`` and the origin, of
    a point or of the columns of rows."""
    a = as_point(a)
    na2 = sum(abs(c) ** 2 for c in a)
    if na2 >= 1.0:
        raise ValueError("parameter must lie in the open unit ball")
    if na2 == 0.0:
        return lambda z: _coordinates(z, len(a))
    s = math.sqrt(1.0 - na2)

    def phi(z):
        z = _coordinates(z, len(a))
        inner = sum(x * y.conjugate() for x, y in zip(z, a))
        proj = tuple(inner / na2 * c for c in a)
        orth = tuple(x - y for x, y in zip(z, proj))
        den = 1.0 - inner
        return tuple((pa - pz - s * oz) / den for pa, pz, oz in zip(a, proj, orth))

    return phi


def siegel_to_ball(z):
    """Cayley transform of ``{2 Re z_n + |'z|^2 < 0}`` onto the unit ball,
    sending ``('0, -1)`` to the origin; of a point or of the columns of rows."""
    z = _coordinates(z)
    zn = z[-1]
    wn = (1.0 + zn) / (1.0 - zn)
    return tuple(c * math.sqrt(2.0) / (1.0 - zn) for c in z[:-1]) + (wn,)


def ball_to_siegel(w):
    """The inverse of :func:`siegel_to_ball`."""
    w = _coordinates(w)
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


# the uniformization of SlitDisc(), built once at import; any basepoint
# serves, since the disc distance is invariant under disc automorphisms
_SLIT_MAP = covering.build_slit_map(0.5)


def kobayashi_distance(
    d: ModelDomain,
    p,
    q,
    mode: MetricMode = MetricMode.POINCARE,
) -> float:
    """Kobayashi distance between two points of a model domain."""
    p = as_point(p, d.dim)
    q = as_point(q, d.dim)
    if not contains(d, p) or not contains(d, q):
        raise ValueError("both points must lie in the domain")
    if isinstance(d, Polydisc) or isinstance(d, Ball) and d.dim == 1:
        # Ball(1) is the disc: its form keeps 1 - |a|^2 as (1 - |a|)(1 + |a|)
        return max(disc_distance(a, b, mode) for a, b in zip(p, q))
    if isinstance(d, Ball):
        return ball_distance(p, q, mode)
    if isinstance(d, UpperHalfPlane):
        return halfplane_distance(p[0], q[0], mode)
    if isinstance(d, HalfPlaneC):
        return halfplane_distance(d.to_halfplane(p[0]), d.to_halfplane(q[0]), mode)
    if isinstance(d, PuncturedDisc):
        return covering.punctured_distance(p[0], q[0], mode)
    if isinstance(d, SlitDisc):
        return disc_distance(_SLIT_MAP.unapply(p[0]), _SLIT_MAP.unapply(q[0]), mode)
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

# the spheres of one sample around one center: radius -> rows
Sphere = Callable[[float], np.ndarray]


def polydisc_sphere(n: int, count: int, rng: np.random.Generator) -> Sphere:
    """The polydisc spheres ``max_k |z_k| = modulus`` of one sample, as a
    function from the modulus to rows: the corner first, then ``count``
    random points with every coordinate at the full modulus with probability
    1/2 and one (random) coordinate at it surely.

    The random part (the mask, the fractions of the modulus and the phases)
    is drawn from ``rng`` here, once; each call only scales it.
    """
    # The corner (all coordinates at the maximal modulus) realizes the
    # extreme euclidean norm on the sphere, so include it deterministically.
    full = rng.uniform(size=(count, n)) < 0.5
    full[np.arange(count), rng.integers(n, size=count)] = True
    # uniform(0, m) is m * uniform(0, 1), bit for bit
    fraction = rng.uniform(size=(count, n))
    phase = np.exp(1j * rng.uniform(0.0, covering.TWO_PI, size=(count, n)))

    def sphere(modulus: float) -> np.ndarray:
        moduli = np.where(full, modulus, modulus * fraction)
        return np.concatenate([np.full((1, n), complex(modulus)), moduli * phase])

    return sphere


def polydisc_sphere_sample(n: int, modulus: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`polydisc_sphere` at one modulus, as rows."""
    return polydisc_sphere(n, count, rng)(modulus)


def _punctured_sphere(center: complex, count: int, rng: np.random.Generator) -> Sphere:
    """The spheres of POINCARE radius ``radius_p`` around ``center`` in the
    punctured disc, as a function of ``radius_p``: the metric circle around
    the principal lift of ``center``, projected by ``exp(i z)``."""
    z0 = covering.principal_lift(center)
    angles = np.linspace(0.0, covering.TWO_PI, count, endpoint=False) + rng.uniform(0.0, 1e-3)
    circle = np.exp(1j * angles)

    def sphere(radius_p: float) -> np.ndarray:
        ecenter, eradius = halfplane_metric_circle(z0, radius_p, MetricMode.POINCARE)
        w = ecenter + eradius * circle
        pts = np.exp(1j * w[np.abs(w.real - z0.real) <= math.pi])
        extreme = []
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
                    extreme.append(complex(-r, 0.0))
                else:
                    extreme.append(cmath.exp(1j * complex(z0.real + math.pi, y)))
        return np.concatenate([pts, np.array(extreme, dtype=complex)])[:, None]

    return sphere


def metric_sphere(
    d: ModelDomain,
    center,
    count: int,
    rng: np.random.Generator,
    mode: MetricMode = MetricMode.POINCARE,
) -> Sphere:
    """The Kobayashi spheres around ``center`` of one sample, as a function
    from the radius to rows.

    The random part is drawn from ``rng`` here, once: the unit directions on
    the ball, the mask, fractions and phases on the polydisc, the jittered
    angles on the punctured disc (the half-plane draws nothing).  Each call
    does only the arithmetic that depends on the radius, so a radius search
    tests every radius on the same sample.  Samples are dense in angle and
    include the extreme points that decide ball-containment questions
    (polydisc corners, antipodal crossings in the punctured disc).
    """
    center = as_point(center, d.dim)
    kobayashi_radius = lambda radius: radius * MetricMode.KOBAYASHI.scale / mode.scale
    if isinstance(d, Ball):
        directions = random_unit_vectors(d.dim, count, rng)
        phi = ball_automorphism(center)
        at = lambda radius: np.column_stack(phi((math.tanh(kobayashi_radius(radius)) * directions).T))
    elif isinstance(d, Polydisc):
        polydisc = polydisc_sphere(d.dim, count, rng)
        a = np.array(center)
        moved = any(c != 0 for c in center)

        def at(radius: float) -> np.ndarray:
            pts = polydisc(math.tanh(kobayashi_radius(radius)))
            return (pts + a) / (1.0 + a.conj() * pts) if moved else pts

    elif isinstance(d, UpperHalfPlane):
        circle = np.exp(1j * np.linspace(0.0, covering.TWO_PI, count, endpoint=False))

        def at(radius: float) -> np.ndarray:
            ecenter, eradius = halfplane_metric_circle(center[0], radius, mode)
            return (ecenter + eradius * circle)[:, None]

    elif isinstance(d, PuncturedDisc):
        punctured = _punctured_sphere(center[0], count, rng)
        at = lambda radius: punctured(radius / mode.scale)
    else:
        raise UnsupportedDomainError(f"no sphere sampler for domain {d!r}")

    def sphere(radius: float) -> np.ndarray:
        if radius <= 0:
            raise ValueError("radius must be positive")
        return at(radius)

    return sphere


def sample_metric_sphere(
    d: ModelDomain,
    center,
    radius: float,
    count: int,
    rng: np.random.Generator,
    mode: MetricMode = MetricMode.POINCARE,
) -> np.ndarray:
    """:func:`metric_sphere` at one radius: the Kobayashi sphere of the given
    radius around ``center``, as rows.  A radius search draws its sample once
    with :func:`metric_sphere` and rescales it, rather than calling this at
    every radius."""
    return metric_sphere(d, center, count, rng, mode)(radius)


def sample_metric_ball(
    d: ModelDomain,
    center,
    radius: float,
    count: int,
    rng: np.random.Generator,
    mode: MetricMode = MetricMode.POINCARE,
) -> np.ndarray:
    """Sample the closed Kobayashi ball, as rows: on the half-planes with the
    outer shells weighted, on the Siegel domain through the Cayley transform.

    The random stream is that of drawing one sample at a time: on the
    half-planes one ``uniform((count, 2))``, each sample's radius and then
    its angle, and the fixed boundary circle of ``max(count // 2, 8)``
    points after the samples; on the Siegel domain ``random_unit_vectors``
    and then one ``uniform(count)`` of radii.
    """
    center = as_point(center, d.dim)
    if isinstance(d, Siegel):
        directions = random_unit_vectors(d.dim, count, rng)
        t = radius * np.sqrt(rng.uniform(size=count))
        v = np.tanh(0.5 * t / mode.scale)[:, None] * directions
        phi = ball_automorphism(siegel_to_ball(center))
        return np.column_stack(ball_to_siegel(phi(v.T)))
    if not isinstance(d, (UpperHalfPlane, HalfPlaneC)):
        raise UnsupportedDomainError(f"no ball sampler for domain {d!r}")
    z0 = d.to_halfplane(center[0]) if isinstance(d, HalfPlaneC) else center[0]
    u = rng.uniform(size=(count, 2))
    shell = np.linspace(0.0, covering.TWO_PI, max(count // 2, 8), endpoint=False)
    t = np.concatenate([radius * np.sqrt(u[:, 0]), np.full(len(shell), radius)])
    angle = np.concatenate([covering.TWO_PI * u[:, 1], shell])
    ecenter, eradius = halfplane_metric_circle(z0, t, mode)
    w = ecenter + eradius * (np.cos(angle) + 1j * np.sin(angle))
    return (d.from_halfplane(w) if isinstance(d, HalfPlaneC) else w)[:, None]
