"""Kobayashi distances on the model domains, metric-sphere and metric-ball
sampling, the exact values of the invariants, and the boundaries the
estimators of ``invariants`` score on their witnesses' sources: the seeds,
then random rows for a witness without a certificate.

What is known in closed form on a variant is one :class:`Geometry` record in
one table keyed by its type, found by the one resolver :func:`_geometry`,
and every dispatch is one :func:`_entry` lookup there, which raises
:class:`UnsupportedDomainError` where the entry is None:
a new variant is one class in ``domains`` plus one record, or one
:func:`_carried` call if a biholomorphism maps it onto a variant with one.
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
    "kobayashi_distance",
    "polydisc_sphere_sample",
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
    return _ball_distance(a, _coordinates(b, len(a)))


def _ball_distance(a: Point, b):
    """:func:`ball_distance` of a coerced point ``a`` and a coerced point or
    the columns of rows ``b``; it tests membership, not coercion."""
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
    return _ball_automorphism(as_point(a))


def _ball_automorphism(a: Point) -> "callable":
    """:func:`ball_automorphism` of a coerced point ``a``; it tests
    membership, not coercion."""
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
    return _siegel_to_ball(_coordinates(z))


def _siegel_to_ball(z):
    """:func:`siegel_to_ball` of a coerced point or the columns of rows."""
    zn = z[-1]
    wn = (1.0 + zn) / (1.0 - zn)
    return tuple(c * math.sqrt(2.0) / (1.0 - zn) for c in z[:-1]) + (wn,)


def ball_to_siegel(w):
    """The inverse of :func:`siegel_to_ball`."""
    w = _coordinates(w)
    wn = w[-1]
    zn = (wn - 1.0) / (wn + 1.0)
    return tuple(c * math.sqrt(2.0) / (1.0 + wn) for c in w[:-1]) + (zn,)


def kobayashi_distance(d: ModelDomain, p, q, mode: MetricMode = MetricMode.KOBAYASHI) -> float:
    """Kobayashi distance between two points of a model domain, converted
    to the output normalization ``mode`` (POINCARE doubles it).

    Each point is coerced and checked once, by :func:`_inner_point`; a
    non-finite point, one of the wrong dimension or one outside the open
    domain raises ``ValueError``.
    """
    p = _inner_point(d, p)
    q = _inner_point(d, q)
    return mode.factor * _entry(d, "distance")(d, p, q)


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------


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


def polydisc_sphere_sample(n: int, modulus: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The polydisc sphere ``max_k |z_k| = modulus``, as rows: the corner
    first, then ``count`` random points with every coordinate at the full
    modulus with probability 1/2 and one (random) coordinate at it surely."""
    # The corner (all coordinates at the maximal modulus) realizes the
    # extreme euclidean norm on the sphere, so include it deterministically.
    full = rng.uniform(size=(count, n)) < 0.5
    full[np.arange(count), rng.integers(n, size=count)] = True
    # uniform(0, m) is m * uniform(0, 1), bit for bit
    moduli = np.where(full, modulus, modulus * rng.uniform(size=(count, n)))
    phase = np.exp(1j * rng.uniform(0.0, covering.TWO_PI, size=(count, n)))
    return np.concatenate([np.full((1, n), complex(modulus)), moduli * phase])


def _ball_rows(center: Point, directions: np.ndarray, radius) -> np.ndarray:
    """The ball's points at the unit ``directions`` (rows) and Kobayashi
    ``radius`` around ``center``; a radius is a float, or one per direction."""
    phi = _ball_automorphism(center)
    return np.column_stack(phi((np if isinstance(radius, np.ndarray) else math).tanh(radius) * directions.T))


def _polydisc_metric_sphere(d: Polydisc, center, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    pts = polydisc_sphere_sample(d.dim, math.tanh(radius), count, rng)
    if not any(c != 0 for c in center):
        return pts
    a = np.array(center)
    return (pts + a) / (1.0 + a.conj() * pts)


def _punctured_sphere(center: complex, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The metric circle around the principal lift of ``center``, projected
    by ``exp(i z)``.  Past euclidean radius pi only the arcs with
    ``|Re w - x0| <= pi`` project into the fundamental domain, so the angles
    are spread over those arcs, and every radius keeps all ``count``."""
    z0 = covering.principal_lift(center)
    angles = np.linspace(0.0, covering.TWO_PI, count, endpoint=False) + rng.uniform(0.0, 1e-3)
    eradius = z0.imag * math.sinh(2.0 * radius)  # center x0 + i y0 cosh 2r, radius y0 sinh 2r
    extreme = []
    if eradius > math.pi:  # the arcs (a, pi - a) and (pi + a, 2 pi - a)
        a = math.acos(math.pi / eradius)
        angles = a + angles * (1.0 - 2.0 * a / math.pi) + 2.0 * a * (angles >= math.pi)
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
    w = halfplane_metric_circle(z0, angles, radius)
    pts = np.concatenate([np.exp(1j * w[np.abs(w.real - z0.real) <= math.pi]), np.array(extreme, dtype=complex)])
    return pts[pts != 0][:, None]  # far out, exp(i w) underflows to the puncture


def sample_metric_sphere(
    d: ModelDomain, center, radius: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The Kobayashi sphere of the given radius around ``center``, as rows.

    The random part is drawn from ``rng``: the unit directions on the ball,
    the mask, fractions and phases on the polydisc, the jittered angles on
    the punctured disc (the half-plane draws nothing), and on a carried
    variant its model's, mapped back.
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
    return _entry(d, "sphere")(d, _inner_point(d, center), _radius(radius), count, rng)


def _halfplane_ball(z0: complex, radius: float, count: int, rng: np.random.Generator):
    """The upper half-plane's ball around ``z0``, as a 1-d array."""
    u = rng.uniform(size=(count, 2))
    shell = np.linspace(0.0, covering.TWO_PI, max(count // 2, 8), endpoint=False)
    t = np.concatenate([radius * np.sqrt(u[:, 0]), np.full(len(shell), radius)])
    angles = np.concatenate([covering.TWO_PI * u[:, 1], shell])
    return halfplane_metric_circle(z0, angles, t)


def sample_metric_ball(
    d: ModelDomain, center, radius: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample the closed Kobayashi ball, as rows: the sphere formulas at one
    radius per row, :func:`halfplane_metric_circle` on the half-plane (outer
    shell weighted), the ball's sphere on the ball, its model's on a carried variant.

    The random stream is that of drawing one sample at a time: on the
    half-plane one ``uniform((count, 2))``, each sample's radius and then
    its angle, then the fixed boundary circle of ``max(count // 2, 8)``
    points; on the ball the directions, then ``uniform(count)``.

    A center outside the domain, or a radius that is not finite and
    positive, raises ``ValueError``.
    """
    return _entry(d, "ball")(d, _inner_point(d, center), _radius(radius), count, rng)


class Geometry(NamedTuple):
    """The closed forms of one variant, each None where there is none:
    ``distance(d, p, q)`` of a coerced point and, as ``q``, a coerced point
    or the columns of rows, ``sphere(d, center, radius, count, rng)`` and
    ``ball(d, center, radius, count, rng)``, both rows, ``exact(d)``,
    the Fridman invariant and the squeezing function where both are theorems and
    constant in the point (0 and 1 on the ball and on what maps onto it,
    Deng, Guan and Zhang (2012) on the polydisc), and ``boundary``, an
    estimator source's ``(seeds(d), rows(d, count, rng), retract(z))``: its
    known extreme points, drawn from no generator, ``count`` random boundary
    rows, and the map of rows in C^n back onto it along rays from 0 (None
    where C's angle grid serves).  Distances and radii are Kobayashi; a
    carried record's entries but ``boundary`` are its model's.  The entries
    pass these coerced points to formulas that do not coerce them again
    (``_ball_distance``, ``_siegel_to_ball``, ``_ball_automorphism``), each
    keeping its membership check.  Each entry looks its functions up when
    called, so a function wrapped by name is what runs; :func:`_entry` looks
    an entry up and raises where it is None."""

    distance: Callable | None = None
    sphere: Callable[..., np.ndarray] | None = None
    ball: Callable[..., np.ndarray] | None = None
    exact: Callable[[ModelDomain], tuple[float, float]] | None = None
    boundary: tuple[Callable[..., np.ndarray], Callable[..., np.ndarray], Callable | None] | None = None


def _polydisc_exact(n: int) -> tuple[float, float]:
    s = 1.0 / math.sqrt(n)
    return (1.0 / math.atanh(s), s) if n > 1 else (0.0, 1.0)


def _carried(model: type, to_model: Callable, from_model: Callable) -> Geometry:
    """The record of a variant mapped onto the variant ``model`` by the
    biholomorphism ``to_model(d, z)``, of inverse ``from_model(d, w)``, both
    of a point or the columns of rows to a tuple: the model's distance at the
    images, its spheres and balls around the image of the center mapped back,
    its exact values.  The model's entries get ``d``, whose ``dim`` the map keeps."""

    def mapped_back(entry: str) -> Callable[..., np.ndarray]:
        return lambda d, center, radius, count, rng: np.column_stack(from_model(
            d, getattr(_GEOMETRY[model], entry)(d, to_model(d, center), radius, count, rng).T))

    return Geometry(
        distance=lambda d, p, q: _GEOMETRY[model].distance(d, to_model(d, p), to_model(d, q)),
        sphere=mapped_back("sphere"),
        ball=mapped_back("ball"),
        exact=lambda d: _GEOMETRY[model].exact(d),
    )


# the uniformization of SlitDisc(), built once at import; any basepoint
# serves, since the disc distance is invariant under disc automorphisms
_SLIT_MAP = covering.build_slit_map(0.5)

_GEOMETRY: dict[type, Geometry] = {
    Ball: Geometry(
        # Ball(1) is the disc: its form keeps 1 - |a|^2 as (1 - |a|)(1 + |a|)
        distance=lambda d, p, q: disc_distance(p[0], q[0]) if d.dim == 1 else _ball_distance(p, q),
        sphere=lambda d, center, radius, count, rng: _ball_rows(
            center, random_unit_vectors(d.dim, count, rng), radius),
        # the directions are drawn before the radii
        ball=lambda d, center, radius, count, rng: _ball_rows(
            center, random_unit_vectors(d.dim, count, rng), radius * np.sqrt(rng.uniform(size=count))),
        exact=lambda d: (0.0, 1.0),
        boundary=(
            lambda d: np.full((1, d.dim), 1.0 / math.sqrt(d.dim)),
            lambda d, count, rng: random_unit_vectors(d.dim, count, rng),
            lambda z: z / np.linalg.norm(z, axis=1)[:, None],
        ),
    ),
    Polydisc: Geometry(
        distance=lambda d, p, q: _max(*map(disc_distance, p, q)),
        sphere=lambda d, center, radius, count, rng: _polydisc_metric_sphere(d, center, radius, count, rng),
        exact=lambda d: _polydisc_exact(d.dim),
        # the axes e_k and the corner, then the faces |z_k| = 1 less the
        # sampler's first row, which is the corner
        boundary=(
            lambda d: np.concatenate([np.eye(d.dim), np.ones((1, d.dim))]),
            lambda d, count, rng: polydisc_sphere_sample(d.dim, 1.0, count, rng)[1:],
            lambda z: z / np.abs(z).max(axis=1)[:, None],
        ),
    ),
    UpperHalfPlane: Geometry(
        distance=lambda d, p, q: halfplane_distance(p[0], q[0]),
        sphere=lambda d, center, radius, count, rng: halfplane_metric_circle(
            center[0], np.linspace(0.0, covering.TWO_PI, count, endpoint=False), radius)[:, None],
        ball=lambda d, center, radius, count, rng: _halfplane_ball(center[0], radius, count, rng)[:, None],
        exact=lambda d: (0.0, 1.0),
    ),
    HalfPlaneC: _carried(UpperHalfPlane, lambda d, z: (d.to_halfplane(z[0]),), lambda d, w: (d.from_halfplane(w[0]),)),
    PuncturedDisc: Geometry(
        distance=lambda d, p, q: covering.punctured_distance(p[0], q[0]),
        sphere=lambda d, center, radius, count, rng: _punctured_sphere(center[0], radius, count, rng),
        # the circle's point 1, then the puncture
        boundary=(lambda d: np.array([[1.0], [0.0]]), lambda d, count, rng: random_unit_vectors(1, count, rng), None),
    ),
    SlitDisc: _carried(Ball, lambda d, z: (_SLIT_MAP.unapply(z[0]),), lambda d, w: (_SLIT_MAP.apply(w[0]),)),
    Siegel: _carried(Ball, lambda d, z: _siegel_to_ball(z), lambda d, w: ball_to_siegel(w)),
}
# the record of a variant with no closed form: any weighted model but the
# unbounded ball realization
_NONE = Geometry()


def _geometry(d: ModelDomain) -> Geometry:
    """The record of ``d``'s variant, the one resolver of every lookup; a
    weighted model that is literally the unbounded ball realization
    (its ``siegel_equivalent``) gets Siegel's, a variant with none the empty one."""
    kind = type(d)
    return _GEOMETRY.get(Siegel if kind is WeightedModel and d.siegel_equivalent else kind, _NONE)


# what UnsupportedDomainError says where a variant has no such entry, of its label
_MISSING = {
    "distance": "no computable Kobayashi distance for {}",
    "sphere": "no sphere sampler for {}",
    "ball": "no ball sampler for {}",
    "exact": "no exact Fridman or squeezing value for {}; use an estimator (fridman_bounds_punctured, "
    "fridman_upper_from_embedding or squeezing_lower_from_embedding)",
    "boundary": "no boundary sampler for the source {}",
}


def _entry(d: ModelDomain, name: str) -> Callable | tuple:
    """The ``name`` entry of ``d``'s record; ``UnsupportedDomainError`` where
    the variant has none."""
    entry = getattr(_geometry(d), name)
    if entry is None:
        raise UnsupportedDomainError(_MISSING[name].format(d.label))
    return entry
