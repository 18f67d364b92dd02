"""Kobayashi distances on the model domains, metric-sphere and metric-ball
sampling, and the exact values of the invariants.

What is known in closed form on a variant is one :class:`Geometry` record in
one table keyed by its type, and every dispatch is one lookup there: a new
variant is one class in ``domains`` plus one record here.  Every variant has
a distance on points or rows and a sphere but the weighted models other
than the unbounded ball; those raise :class:`UnsupportedDomainError`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

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
    _coordinates,
    _max,
    as_point,
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


def ball_distance(a, b):
    """Kobayashi distance on the unit ball of C^n.

    ``d(0, z) = artanh |z|``.  With ``e = b - a``, the general pair is the
    ``asinh`` of the root of
    ``sinh^2(d) = (|e|^2 (1 - |a|^2) + |<e, a>|^2) / ((1 - |a|^2)(1 - |b|^2))``:
    a sum of nonnegative terms, so nearly equal points lose no digits.

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
    return np.arcsinh(np.sqrt(s2)) if rows else math.asinh(math.sqrt(s2))


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


def kobayashi_distance(d: ModelDomain, p, q, mode: MetricMode = MetricMode.KOBAYASHI) -> float:
    """Kobayashi distance between two points of a model domain, converted
    to the output normalization ``mode`` (POINCARE doubles it).

    Each point is coerced and checked once, by :func:`_inner_point`; a
    non-finite point, one of the wrong dimension or one outside the open
    domain raises ``ValueError``.
    """
    p = _inner_point(d, p)
    q = _inner_point(d, q)
    distance = _geometry(d).distance
    if distance is None:
        raise UnsupportedDomainError(f"no computable Kobayashi distance for {d.label}")
    return mode.factor * distance(d, p, q)


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------

# the spheres of one sample around one center: radius -> rows
Sphere = Callable[[float], np.ndarray]


def _inner_point(d: ModelDomain, p) -> Point:
    """``p`` coerced by :func:`as_point`; ``ValueError`` unless its defining
    value is negative.  The one membership check of a point given to a
    distance, a sampler or an exact value."""
    pt = as_point(p, d.dim)
    if not d.defining(pt) < 0.0:
        raise ValueError(f"point {pt!r} is not in the domain {d.label}")
    return pt


def _radius(radius: float) -> float:
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, not {radius!r}")
    return radius


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


def _ball_sphere(center: Point, count: int, rng: np.random.Generator) -> Sphere:
    """The ball's spheres at ``count`` directions; a radius is a float, or one per direction."""
    directions = random_unit_vectors(len(center), count, rng).T
    phi = ball_automorphism(center)
    return lambda radius: np.column_stack(
        phi((np if isinstance(radius, np.ndarray) else math).tanh(radius) * directions))


def _image(f: Callable[[np.ndarray], np.ndarray], sphere: Sphere) -> Sphere:
    """The spheres of ``sphere`` mapped by the isometry ``f`` of rows."""
    return lambda radius: f(sphere(radius))


def _siegel_sphere(center: Point, count: int, rng: np.random.Generator) -> Sphere:
    return _image(lambda rows: np.column_stack(ball_to_siegel(rows.T)), _ball_sphere(siegel_to_ball(center), count, rng))


def _polydisc_metric_sphere(d: Polydisc, center, count: int, rng: np.random.Generator) -> Sphere:
    polydisc = polydisc_sphere(d.dim, count, rng)
    a = np.array(center)
    moved = any(c != 0 for c in center)

    def sphere(radius: float) -> np.ndarray:
        pts = polydisc(math.tanh(radius))
        return (pts + a) / (1.0 + a.conj() * pts) if moved else pts

    return sphere


def _halfplane_sphere(center: complex, count: int) -> Sphere:
    circle = halfplane_metric_circle(center, np.linspace(0.0, covering.TWO_PI, count, endpoint=False))
    return lambda radius: circle(radius)[:, None]


def _punctured_sphere(center: complex, count: int, rng: np.random.Generator) -> Sphere:
    """The metric circle around the principal lift of ``center``, projected
    by ``exp(i z)``.  Past euclidean radius pi only the arcs with
    ``|Re w - x0| <= pi`` project into the fundamental domain, so the angles
    are spread over those arcs, and every radius keeps all ``count``."""
    z0 = covering.principal_lift(center)
    angles = np.linspace(0.0, covering.TWO_PI, count, endpoint=False) + rng.uniform(0.0, 1e-3)
    circle = halfplane_metric_circle(z0, angles)

    def sphere(radius: float) -> np.ndarray:
        eradius = z0.imag * math.sinh(2.0 * radius)  # center x0 + i y0 cosh 2r, radius y0 sinh 2r
        arc, extreme = circle, []
        if eradius > math.pi:  # the arcs (a, pi - a) and (pi + a, 2 pi - a)
            a = math.acos(math.pi / eradius)
            arc = halfplane_metric_circle(z0, a + angles * (1.0 - 2.0 * a / math.pi) + 2.0 * a * (angles >= math.pi))
            # Where the circle crosses the lines Re = x0 +/- pi the projection
            # lands exactly on the antipodal ray; those are the extreme sphere
            # points, so add them exactly (crucially, on the negative real axis
            # when the center is real positive).  The lower crossing
            # y0 cosh 2r - h is (y0^2 + pi^2) / (y0 cosh 2r + h), which does not cancel.
            h = math.sqrt(eradius * eradius - math.pi * math.pi)
            top = z0.imag * math.cosh(2.0 * radius) + h
            for y in ((z0.imag**2 + math.pi**2) / top, top):
                r = math.exp(-y)
                if z0.real == 0.0:
                    extreme.append(complex(-r, 0.0))
                else:
                    extreme.append(cmath.exp(1j * complex(z0.real + math.pi, y)))
        w = arc(radius)
        pts = np.concatenate([np.exp(1j * w[np.abs(w.real - z0.real) <= math.pi]), np.array(extreme, dtype=complex)])
        return pts[pts != 0][:, None]  # far out, exp(i w) underflows to the puncture

    return sphere


def metric_sphere(d: ModelDomain, center, count: int, rng: np.random.Generator) -> Sphere:
    """The Kobayashi spheres around ``center`` of one sample, as a function
    from the radius to rows.

    The random part is drawn from ``rng`` here, once: the unit directions on
    the ball, the mask, fractions and phases on the polydisc, the jittered
    angles on the punctured disc (the half-planes draw nothing).  The
    spheres of ``HalfPlaneC``, the slit disc and the Siegel domain are those
    of the half-plane, the disc and the ball, mapped as their distances map
    points.  Each call does only the arithmetic that depends on the
    radius, so a radius search tests every radius on the same sample.
    Samples are dense in angle and include the extreme points that decide
    ball-containment questions (polydisc corners, antipodal crossings in the
    punctured disc).  The punctured disc keeps all its angles at every
    radius, on the arcs that project into its fundamental domain, less the
    rows that underflow to the puncture.  The half-plane circles, lifted or
    not, are :func:`halfplane_metric_circle`'s, sums of nonnegative terms, so
    their rows keep their distance to relative precision at large radii.

    A center outside the domain, or a radius that is not finite and
    positive, raises ``ValueError``.
    """
    center = _inner_point(d, center)
    draw = _geometry(d).sphere
    if draw is None:
        raise UnsupportedDomainError(f"no sphere sampler for domain {d!r}")
    at = draw(d, center, count, rng)

    def sphere(radius: float) -> np.ndarray:
        return at(_radius(radius))

    return sphere


def sample_metric_sphere(
    d: ModelDomain, center, radius: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """:func:`metric_sphere` at one radius: the Kobayashi sphere of the given
    radius around ``center``, as rows.  A radius search draws its sample once
    with :func:`metric_sphere` and rescales it, rather than calling this at
    every radius."""
    return metric_sphere(d, center, count, rng)(radius)


def _halfplane_ball(z0: complex, radius: float, count: int, rng: np.random.Generator):
    """The upper half-plane's ball around ``z0``, as a 1-d array."""
    u = rng.uniform(size=(count, 2))
    shell = np.linspace(0.0, covering.TWO_PI, max(count // 2, 8), endpoint=False)
    t = np.concatenate([radius * np.sqrt(u[:, 0]), np.full(len(shell), radius)])
    angles = np.concatenate([covering.TWO_PI * u[:, 1], shell])
    return halfplane_metric_circle(z0, angles)(t)


def sample_metric_ball(
    d: ModelDomain, center, radius: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample the closed Kobayashi ball, as rows: the sphere formulas at one
    radius per row, :func:`halfplane_metric_circle` on the half-planes (outer
    shell weighted), the ball's sphere on the Siegel domain (Cayley transform).

    The random stream is that of drawing one sample at a time: on the
    half-planes one ``uniform((count, 2))``, each sample's radius and then
    its angle, then the fixed boundary circle of ``max(count // 2, 8)``
    points; on the Siegel domain the directions, then ``uniform(count)``.

    A center outside the domain, or a radius that is not finite and
    positive, raises ``ValueError``.
    """
    center = _inner_point(d, center)
    draw = _geometry(d).ball
    if draw is None:
        raise UnsupportedDomainError(f"no ball sampler for domain {d!r}")
    return draw(d, center, _radius(radius), count, rng)


class Geometry(NamedTuple):
    """The closed forms of one variant, each None where there is none:
    ``distance(d, p, q)`` of a coerced point and, as ``q``, a coerced point
    or the columns of rows, ``sphere(d, center, count, rng)``,
    ``ball(d, center, radius, count, rng)`` and ``exact(d)``, the Fridman
    invariant and the squeezing function where both are theorems and
    constant in the point (0 and 1 on the variants biholomorphic to the
    ball, Deng, Guan and Zhang (2012) on the polydisc).  Distances and radii
    are Kobayashi.  Each entry looks its functions up when called, so that a
    function wrapped in place by name is the one that runs."""

    distance: Callable | None = None
    sphere: Callable[..., Sphere] | None = None
    ball: Callable[..., np.ndarray] | None = None
    exact: Callable[[ModelDomain], tuple[float, float]] | None = None


def _polydisc_exact(n: int) -> tuple[float, float]:
    s = 1.0 / math.sqrt(n)
    return (1.0 / math.atanh(s), s) if n > 1 else (0.0, 1.0)


# the uniformization of SlitDisc(), built once at import; any basepoint
# serves, since the disc distance is invariant under disc automorphisms
_SLIT_MAP = covering.build_slit_map(0.5)

_GEOMETRY: dict[type, Geometry] = {
    Ball: Geometry(
        # Ball(1) is the disc: its form keeps 1 - |a|^2 as (1 - |a|)(1 + |a|)
        distance=lambda d, p, q: disc_distance(p[0], q[0]) if d.dim == 1 else ball_distance(p, q),
        sphere=lambda d, center, count, rng: _ball_sphere(center, count, rng),
        exact=lambda d: (0.0, 1.0),
    ),
    Polydisc: Geometry(
        distance=lambda d, p, q: _max(*map(disc_distance, p, q)),
        sphere=lambda d, center, count, rng: _polydisc_metric_sphere(d, center, count, rng),
        exact=lambda d: _polydisc_exact(d.dim),
    ),
    UpperHalfPlane: Geometry(
        distance=lambda d, p, q: halfplane_distance(p[0], q[0]),
        sphere=lambda d, center, count, rng: _halfplane_sphere(center[0], count),
        ball=lambda d, center, radius, count, rng: _halfplane_ball(center[0], radius, count, rng)[:, None],
        exact=lambda d: (0.0, 1.0),
    ),
    HalfPlaneC: Geometry(
        distance=lambda d, p, q: halfplane_distance(d.to_halfplane(p[0]), d.to_halfplane(q[0])),
        sphere=lambda d, center, count, rng: _image(
            d.from_halfplane, _halfplane_sphere(d.to_halfplane(center[0]), count)),
        ball=lambda d, center, radius, count, rng: d.from_halfplane(
            _halfplane_ball(d.to_halfplane(center[0]), radius, count, rng))[:, None],
        exact=lambda d: (0.0, 1.0),
    ),
    PuncturedDisc: Geometry(
        distance=lambda d, p, q: covering.punctured_distance(p[0], q[0]),
        sphere=lambda d, center, count, rng: _punctured_sphere(center[0], count, rng),
    ),
    SlitDisc: Geometry(
        distance=lambda d, p, q: disc_distance(_SLIT_MAP.unapply(p[0]), _SLIT_MAP.unapply(q[0])),
        sphere=lambda d, center, count, rng: _image(
            _SLIT_MAP.apply, _ball_sphere((_SLIT_MAP.unapply(center[0]),), count, rng)),
        exact=lambda d: (0.0, 1.0),
    ),
    Siegel: Geometry(
        distance=lambda d, p, q: ball_distance(siegel_to_ball(p), siegel_to_ball(q)),
        sphere=lambda d, center, count, rng: _siegel_sphere(center, count, rng),
        ball=lambda d, center, radius, count, rng: _siegel_sphere(center, count, rng)(
            radius * np.sqrt(rng.uniform(size=count))),
        exact=lambda d: (0.0, 1.0),
    ),
    WeightedModel: Geometry(),  # any but the unbounded ball realization
}


def _geometry(d: ModelDomain) -> Geometry:
    """The record of ``d``'s variant; a weighted model that is literally the
    unbounded ball realization (:func:`siegel_equivalent`) gets Siegel's."""
    kind = Siegel if type(d) is WeightedModel and siegel_equivalent(d) else type(d)
    if kind not in _GEOMETRY:
        raise UnsupportedDomainError(f"unknown domain {d!r}")
    return _GEOMETRY[kind]
