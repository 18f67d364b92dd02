"""Fridman invariant and squeezing function on the model domains.

Every Fridman value here is in KOBAYASHI normalization, the reciprocal of
a Kobayashi radius, except that :func:`fridman_upper_from_embedding`
reports in the output normalization it is given (KOBAYASHI by default).

Exact values exist only where they are theorems, and each is the ``exact``
entry of the variant's ``metrics.Geometry`` record: on the domains
biholomorphic to the ball the invariant vanishes and the squeezing
function is 1, and on the polydisc they are
``2 / log((sqrt n + 1)/(sqrt n - 1))`` and ``1/sqrt n``.
The punctured disc gets a two-sided bracket from the slit-disc embedding
(upper bound) and the circle obstruction (lower bound): the metric ball
whose radius is the deck translation length contains the centred circle
through the point.

Everything else is an estimator: both invariants quantify over *all*
embeddings, so a single witness embedding only ever certifies one side.
Every estimator checks its basepoints to ``BASEPOINT_TOL``, and runs the
sampled check :meth:`EmbeddingWitness.validate` only on a witness ``f``
without a written certificate; for the library's certified witnesses that
check is an oracle, run by the tier-1 tests.  Its radius is then the
distance from the basepoint to the complement of the image, the least
distance to the image of a boundary point of the source (Fridman:
Kobayashi, over the images inside the target; squeezing: euclidean, at
most 1; the centred polydisc: the polydisc norm).  The boundary rows are
the seeded ones: those a witness's written argument adds, then the seeds
of the source's ``boundary`` entry in ``metrics`` (its known extreme
points, the puncture among them).  A certified witness carries the written
argument that the minimum is attained at a seeded row, so it is scored on
those rows alone; only a witness without a certificate is searched, by a
:class:`RadiusSearch`, which is an oracle for the certified ones, run by
the tier-1 tests.  The minimum builds the one report of every estimator,
with the boundary point that decided it and its image.  A report's value
is a bound only when it is certified: an uncertified sample may miss the
minimum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import covering, metrics
from .domains import (
    Ball,
    ModelDomain,
    Point,
    Polydisc,
    PuncturedDisc,
    SlitDisc,
    as_rows,
    contains_rows,
    random_unit_vectors,
    sample_rows,
)
from .hyperbolic import MetricMode

__all__ = [
    "WitnessValidationError",
    "EmbeddingWitness",
    "ball_inclusion_into_polydisc",
    "slit_embedding_of_disc",
    "identity_ball_witness",
    "scaled_polydisc_into_ball",
    "punctured_automorphism_witness",
    "BoundEstimate",
    "RadiusSearch",
    "EstimateReport",
    "fridman_exact",
    "fridman_bounds_punctured",
    "fridman_upper_from_embedding",
    "squeezing_exact",
    "squeezing_lower_from_embedding",
    "largest_centered_polydisc",
]


class WitnessValidationError(RuntimeError):
    """An embedding witness failed one of its validation checks."""


# source rows that EmbeddingWitness.validate maps through the witness
VALIDATION_SAMPLES = 10_000
# relative round-trip error of a row that EmbeddingWitness.image_contains keeps
IMAGE_TOL = 1e-9
# largest coordinate offset of a basepoint from where a witness must put it
BASEPOINT_TOL = 1e-10


def _require_at(point, expected, message: str) -> None:
    """Raise ``WitnessValidationError(message)`` unless every coordinate of
    ``point`` lies within ``BASEPOINT_TOL`` of ``expected``'s (a NaN never does)."""
    err = np.abs(np.subtract(point, expected)).max()
    if not err <= BASEPOINT_TOL:
        raise WitnessValidationError(f"{message} (off by {err:.3e})")


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective holomorphic map between two model domains, with basepoints.

    ``forward`` and ``inverse`` map rows to rows: complex arrays of shape
    ``[m, n]``.  The estimators map only the source's boundary forward.
    :meth:`image_contains`, an oracle the tests check them with, decides
    membership in the image by the inverse round-trip and, when
    ``image_domain`` is set, by membership in it as well.  ``image_domain``
    is the exact image as a model domain, declared only where it is
    stricter than what ``forward`` and ``inverse`` show.
    Each basepoint is coerced to its domain's dimension and must lie in the domain.
    The witness is frozen, so its certificate cannot outlive a change to its maps.
    """

    source: ModelDomain
    target: ModelDomain
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    source_basepoint: Point
    target_basepoint: Point
    description: str
    image_domain: ModelDomain | None = None
    # The written argument that the images of the source's boundary come
    # nearest the basepoint at a seeded row, which the estimators score, and
    # the boundary rows it adds to the source's own seeds.  Only this module's
    # constructors set it, so a witness built or copied by a caller has none.
    _certificate: tuple[str, tuple[Point, ...]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_basepoint", metrics._inner_point(self.source, self.source_basepoint))
        object.__setattr__(self, "target_basepoint", metrics._inner_point(self.target, self.target_basepoint))

    def image_contains(self, w) -> np.ndarray:
        """One bool per row of ``w``: does the row lie in the image?

        A row whose inverse is not finite (a pole of the inverse) lies
        outside; a row of ``w`` that is not finite raises ``ValueError``.
        """
        w = as_rows(w, self.target.dim)
        with np.errstate(all="ignore"):
            z = self.inverse(w)
            err = np.abs(self.forward(z) - w).max(axis=1)
        # w passed as_rows and the kept rows of z are finite: evaluate the
        # defining functions directly, with no second finiteness check
        inside = np.isfinite(z).all(axis=1) & (err <= IMAGE_TOL * (1.0 + np.abs(w).max(axis=1)))
        inside[inside] = self.source.defining(z[inside].T) < 0.0
        if self.image_domain is not None:
            inside &= self.image_domain.defining(w.T) < 0.0
        return inside

    def validate(self, seed: int = 0) -> None:
        """Check the basepoint normalization, that the images of the basepoint
        and of ``VALIDATION_SAMPLES`` random points lie in the target and in
        ``image_domain`` when one is set, and injectivity on a grid.

        The random points are ``sample_rows(source, default_rng(seed), ...)``
        for an integer seed >= 0.  The estimators run this sampled check only
        on a witness without a written certificate; on the library's
        certified witnesses it is an oracle, run by the tests.
        """
        _check_integer("seed", seed, 0)
        base = np.array([self.source_basepoint], dtype=complex)
        fb = self.forward(base)
        _require_at(fb[0], self.target_basepoint, f"basepoint normalization of {self.description}")
        self._require_images_inside(base, fb)
        z = sample_rows(self.source, np.random.default_rng(seed), VALIDATION_SAMPLES)
        w = self.forward(z)
        self._require_images_inside(z, w)
        # finite rows are a positive distance apart exactly when they differ
        grid = w[:: VALIDATION_SAMPLES // 150].tolist()
        if len(set(map(tuple, grid))) < len(grid):
            raise WitnessValidationError(f"witness {self.description} is not injective on the grid")

    def _require_images_inside(self, z: np.ndarray, w: np.ndarray) -> None:
        """Raise unless every row of ``w``, the image of ``z``, is finite and
        lies in the target and in ``image_domain`` when one is set."""
        finite = np.isfinite(w).all()
        for domain in (self.target, self.image_domain):
            if domain is None:
                continue
            inside = contains_rows(domain, w) if finite else np.isfinite(w).all(axis=1)
            if not inside.all():
                k = int(np.argmin(inside))
                raise WitnessValidationError(
                    f"image point {tuple(w[k].tolist())} of {tuple(z[k].tolist())} escaped the "
                    f"{domain.label} for {self.description}"
                )


def _certified(witness: EmbeddingWitness, reason: str, *extremal: Point) -> EmbeddingWitness:
    """``witness`` with its certificate: the argument and the rows it seeds."""
    object.__setattr__(witness, "_certificate", (reason, extremal))
    return witness


def _identity(z: np.ndarray) -> np.ndarray:
    """The map of the inclusion witnesses, both ways."""
    return z


def _inclusion(target: ModelDomain, description: str) -> EmbeddingWitness:
    """The inclusion of ``Ball(target.dim)`` into ``target``, fixing 0; its image is its source."""
    origin = (0j,) * target.dim
    return EmbeddingWitness(Ball(target.dim), target, _identity, _identity, origin, origin, description)


def ball_inclusion_into_polydisc(n: int) -> EmbeddingWitness:
    """The inclusion of the unit ball into the unit polydisc, fixing 0.

    Certified: on the sphere ``max_k |z_k| >= 1/sqrt n``, with equality at
    the seeded row ``(1, ..., 1)/sqrt n``, and both the polydisc's distance
    from 0, ``artanh(max_k |w_k|)``, and the centred polyradius grow with
    ``max_k |w_k|``."""
    return _certified(
        _inclusion(Polydisc(n), f"inclusion of the unit ball into the polydisc (n={n})"),
        f"max_k |z_k| on the sphere is least, 1/sqrt({n}), at the seeded row (1, ..., 1)/sqrt({n})",
    )


def slit_embedding_of_disc(p: float) -> EmbeddingWitness:
    """The uniformization of the slit disc, as a disc embedding into the
    punctured disc sending 0 to ``p``.

    Certified: the circle maps onto the unit circle and the slit ``(-1, 0]``,
    and the slit point nearest ``p`` is ``-exp(-sqrt(t^2 + pi^2))`` with
    ``t = -log p``.  In the cover ``z -> exp(i z)``, ``p`` lifts to ``i t``
    and the slit to the line ``Re z = pi``; the geodesic from ``i t``
    perpendicular to that line is the circle of centre ``pi`` through
    ``i t``, which meets it at ``pi + i sqrt(t^2 + pi^2)``.  The preimage of
    that point on the circle is seeded.
    """
    slit_map = covering.build_slit_map(p)
    nearest = slit_map.unapply(complex(-math.exp(-math.hypot(math.log(p), math.pi))))
    witness = EmbeddingWitness(
        source=Ball(1),
        target=PuncturedDisc(),
        forward=slit_map.apply,
        inverse=slit_map.unapply,
        source_basepoint=(0j,),
        target_basepoint=(complex(p),),
        description=f"disc onto the slit disc with 0 -> {p}",
        image_domain=SlitDisc(),
    )
    reason = "the slit point nearest p is -exp(-sqrt(t^2 + pi^2)), t = -log p, whose preimage is seeded"
    return _certified(witness, reason, (nearest / abs(nearest),))


def identity_ball_witness(n: int) -> EmbeddingWitness:
    return _inclusion(Ball(n), f"identity of the unit ball (n={n})")


def scaled_polydisc_into_ball(n: int) -> EmbeddingWitness:
    """The squeezing witness ``z -> z / sqrt(n)`` of the polydisc into the ball.

    Certified: on the faces ``|z_k| = 1`` the image norm ``|z| / sqrt n`` is
    at least ``1/sqrt n``, with equality at the seeded axes ``e_k``."""
    s = math.sqrt(n)
    witness = EmbeddingWitness(
        source=Polydisc(n),
        target=Ball(n),
        forward=lambda z: z / s,
        inverse=lambda w: w * s,
        source_basepoint=(0j,) * n,
        target_basepoint=(0j,) * n,
        description=f"scaling z -> z/sqrt({n}) of the polydisc into the ball",
    )
    return _certified(witness, f"|z|/sqrt({n}) on the faces is least, 1/sqrt({n}), at the seeded axes e_k")


def punctured_automorphism_witness(p: complex) -> EmbeddingWitness:
    """Disc automorphism swapping ``p`` and 0, restricted to the punctured
    disc; the image omits the single point ``p``.

    Certified: the circle maps onto the circle and the puncture, a seeded
    boundary row, onto ``p``, so the image's boundary nearest 0 is ``p``."""
    p = complex(p)
    if not 0 < abs(p) < 1:
        raise ValueError("basepoint must lie in the punctured disc")

    def phi(z: np.ndarray) -> np.ndarray:
        return (p - z) / (1.0 - p.conjugate() * z)

    witness = EmbeddingWitness(
        source=PuncturedDisc(),
        target=Ball(1),
        forward=phi,
        inverse=phi,
        source_basepoint=(p,),
        target_basepoint=(0j,),
        description=f"disc automorphism moving {p} to 0 on the punctured disc "
        "(image omits one point)",
    )
    return _certified(witness, "the circle maps onto the circle and the seeded puncture onto p")


# ---------------------------------------------------------------------------
# exact values and the punctured-disc bracket
# ---------------------------------------------------------------------------


def _exact(d: ModelDomain, p) -> tuple[float, float]:
    """The ``exact`` entry of the variant's record, once the point, if given,
    is checked to lie in the domain."""
    if p is not None:
        metrics._inner_point(d, p)
    return metrics._entry(d, "exact")(d)


def fridman_exact(d: ModelDomain, p=None) -> float:
    """Exact Fridman invariant where it is a theorem, the variant's
    ``metrics.Geometry.exact``: 0 on the domains biholomorphic to the ball,
    ``1 / artanh(1/sqrt n)`` on the polydisc."""
    return _exact(d, p)[0]


@dataclass(frozen=True)
class BoundEstimate:
    """Two-sided bracket for an invariant, with the arguments producing it."""

    lower: float
    upper: float
    lower_witness: str
    upper_witness: str

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"inconsistent bracket [{self.lower}, {self.upper}]")


def fridman_bounds_punctured(p: complex) -> BoundEstimate:
    """Two-sided bracket for the Fridman invariant of the punctured disc.

    Rotations are automorphisms, so only ``|p|`` matters.  The upper bound
    is the reciprocal distance to the slit (certified by the slit-disc
    embedding).  The lower bound is the reciprocal of the deck translation
    length ``deck_minimum(|p|, 2 pi)``: the metric ball of that radius
    contains the circle ``|q| = |p|``, because the distance from ``p`` over
    the circle peaks at ``deck_minimum(|p|, pi)``, which is smaller, and no
    simply connected image can contain a circle around the puncture.
    """
    m = abs(complex(p))
    if not 0.0 < m < 1.0:
        raise ValueError("basepoint must lie in the punctured disc")
    upper = 1.0 / covering.slit_distance(m)
    lower = 1.0 / covering.deck_minimum(m, covering.TWO_PI)
    return BoundEstimate(
        lower=lower,
        upper=upper,
        lower_witness="the metric ball whose radius is the deck translation length "
        f"contains the circle of radius {m} around the puncture; a simply connected image cannot",
        upper_witness=f"disc embedded onto the slit disc with 0 -> {m}",
    )


# ---------------------------------------------------------------------------
# embedding-driven estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusSearch:
    """Parameters of the radius estimators: the cap ``r_max`` on the radius,
    and the search of a witness without a certificate.  A certified witness
    is scored on its seeded rows alone and reads only ``r_max``.  An
    uncertified one is searched: ``samples`` random boundary rows, drawn per
    call from ``default_rng(seed)``, follow the seeded ones, and rounds of
    refinement around the best row follow until their width, on the
    source's boundary, falls below ``tol``.  ``samples`` may be 0, since
    the seeded rows are always scored.

    Caps beyond ~18 are not resolvable on the ball and the polydisc in double
    precision: a boundary image that rounds to just inside the domain lies at
    Kobayashi distance about ``artanh(1 - 2^-53)``, 18.7, from the centre.
    """

    r_max: float = 16.0
    tol: float = 1e-6
    samples: int = 1024
    seed: int = 7

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and math.isfinite(self.tol)):
            raise ValueError("r_max and tol must be finite")
        if self.r_max <= 0 or self.tol <= 0:
            raise ValueError("invalid search parameters")
        _check_integer("samples", self.samples, 0)
        _check_integer("seed", self.seed, 0)


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


@dataclass(frozen=True)
class EstimateReport:
    """One-sided invariant estimate with its sampling metadata, built only by
    :func:`_nearest_boundary_image`; the Fridman estimator replaces its value and mode.

    ``boundary_point`` is the boundary row of the witness's source whose
    image decided the radius, and ``boundary_image`` that image; both are
    ``None`` when no image of the boundary counted.  ``certified`` is true
    when the witness carries a written argument that the minimum is attained
    at a seeded row; ``reason`` is that argument, or says there is none.
    ``samples`` is the number of random boundary rows scored: 0 on a
    certified report.
    """

    value: float
    radius: float
    hit_cap: bool
    samples: int
    mode: str | None
    witness: str
    certified: bool
    reason: str
    boundary_point: Point | None
    boundary_image: Point | None


# Rows of a refinement round in C^n; in C a round is an angle grid of
# 2 REFINE_SHRINK + 1 rows.  A round that finds a better row halves the width
# of the next; one that does not divides it by REFINE_SHRINK (in C, to one
# spacing of its grid).
REFINE_ROWS = 64
REFINE_SHRINK = 8
UNCERTIFIED = "no written argument that the boundary sample holds the row attaining the minimum"


def _nearest_boundary_image(
    witness: EmbeddingWitness,
    score: Callable[[np.ndarray], np.ndarray],
    search: RadiusSearch,
) -> EstimateReport:
    """Report of ``r = min(search.r_max, min over the source's boundary of
    score(f(z)))`` as its ``value`` and ``radius`` (``mode = None``);
    ``score`` maps finite image rows to one value each, ``inf`` for a row
    that does not count.

    The seeded rows are those the witness's certificate adds, then the
    seeds of the source's ``boundary`` entry of ``metrics.Geometry``; rows
    whose image is not finite are dropped.  A certified witness is scored on
    these rows alone: no generator is made, and the report's ``samples`` is
    0.  A witness without a certificate is validated, then searched: the
    refinement starts from four sample spacings (in C) or the sphere's
    radius (in C^n), as an angle grid in C and as random perturbations
    retracted onto the boundary by the entry in C^n, drawn from the
    generator of the random rows.
    """
    source, n = witness.source, witness.source.dim
    seeds, rows, retract = metrics._entry(source, "boundary")
    reason, extremal = witness._certificate or (UNCERTIFIED, ())

    def best_of(z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            w = witness.forward(z)
        values = np.full(len(z), np.inf)
        finite = np.isfinite(w).all(axis=1)
        values[finite] = score(w[finite])
        k = int(np.argmin(values))
        return values[k], z[k], w[k]

    seeded = np.concatenate([np.array(extremal, dtype=complex).reshape(-1, n), seeds(source)])
    if witness._certificate is not None:
        best, samples = best_of(seeded), 0
    else:
        samples = search.samples
        witness.validate(seed=search.seed)
        rng = np.random.default_rng(search.seed)
        z = np.concatenate([seeded, rows(source, samples, rng)])
        best = best_of(z)
        width = 8.0 * math.pi / len(z) if n == 1 else 1.0
        while width >= search.tol:
            if n == 1:
                z = best[1] * np.exp(1j * width / REFINE_SHRINK * np.arange(-REFINE_SHRINK, REFINE_SHRINK + 1))[:, None]
            else:
                z = retract(best[1] + width * random_unit_vectors(n, REFINE_ROWS, rng))
            found = best_of(z)
            width /= 2.0 if found[0] < best[0] else REFINE_SHRINK
            best = min(best, found, key=lambda b: b[0])
    nearest, point, image = best
    radius = min(search.r_max, float(nearest))
    if not radius > 0.0:
        raise WitnessValidationError("the witness image does not contain any neighbourhood of the basepoint")
    decided = math.isfinite(nearest)
    return EstimateReport(
        value=radius, radius=radius, hit_cap=radius == search.r_max, samples=samples, mode=None,
        witness=witness.description, certified=witness._certificate is not None, reason=reason,
        boundary_point=tuple(point.tolist()) if decided else None,
        boundary_image=tuple(image.tolist()) if decided else None,
    )


def fridman_upper_from_embedding(
    d: ModelDomain,
    p,
    witness: EmbeddingWitness,
    search: RadiusSearch | None = None,
    mode: MetricMode = MetricMode.KOBAYASHI,
) -> EstimateReport:
    """Estimate ``1/r*`` of the Fridman invariant from one embedding, an
    upper bound when ``report.certified`` is true.

    ``r*`` is the radius of the largest Kobayashi ball around ``p`` inside
    the witness image, the distance from ``p`` to the complement of the
    image: the least distance from ``p`` to an image of a boundary point of
    the source that lies in ``d``, capped at ``search.r_max``.  Membership is
    ``d``'s defining function on rows and the distance is the variant's row
    distance, so the two round alike.

    The radius is in the units of ``mode``: ``search.r_max`` and the
    reported radius are in them.  Uncertified, the value is no
    bound: in C^n the random refinement can stop above the true radius, by
    4.5e-3 relative at n = 4 on a unitarily turned inclusion, whose value
    then falls below the invariant.
    """
    search = search or RadiusSearch()
    p = metrics._inner_point(d, p)
    if witness.target != d:
        raise WitnessValidationError("witness target does not match the domain")
    _require_at(witness.target_basepoint, p, "witness does not send its basepoint to the given point")
    distance = metrics._entry(d, "distance")

    def score(w: np.ndarray) -> np.ndarray:
        values = np.full(len(w), np.inf)
        inside = d.defining(w.T) < 0.0
        values[inside] = mode.factor * distance(d, p, w[inside].T)
        return values

    found = _nearest_boundary_image(witness, score, search)
    return replace(found, value=1.0 / found.radius, mode=mode.value)


def squeezing_exact(d: ModelDomain, p=None) -> float:
    """Exact squeezing function where it is a theorem, the variant's
    ``metrics.Geometry.exact``: 1 where :func:`fridman_exact` is 0, and
    ``1/sqrt n`` on the polydisc; both are constant in the point."""
    return _exact(d, p)[1]


def _euclidean_sphere(n: int, r: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The centred euclidean sphere of radius ``r`` in C^n, as rows: the 4n
    points ``r * phase * e_k`` with phase in (1, i, -1, -i), then ``count``
    random ones drawn from ``rng``."""
    axes = np.zeros((n, 4, n), dtype=complex)
    for k in range(n):
        axes[k, :, k] = (1.0, 1j, -1.0, -1j)
    return r * np.concatenate([axes.reshape(4 * n, n), random_unit_vectors(n, count, rng)])


def squeezing_lower_from_embedding(
    d: ModelDomain,
    p,
    witness: EmbeddingWitness,
    search: RadiusSearch | None = None,
) -> EstimateReport:
    """Estimate of the squeezing function from one embedding into the ball,
    a lower bound when ``report.certified`` is true.

    The largest centred euclidean ball inside the witness image has radius
    ``min(1, min |f(z)|)`` over the boundary points ``z`` of the source (the
    puncture included on ``PuncturedDisc``), reported capped at
    ``search.r_max``.  Uncertified, the value is no bound: a sample that
    misses the minimum reports a radius above it.
    """
    search = search or RadiusSearch(r_max=1.0)
    p = metrics._inner_point(d, p)
    if witness.source != d or not isinstance(witness.target, Ball):
        raise WitnessValidationError("witness must embed the domain into a ball")
    n = witness.target.dim
    _require_at(witness.source_basepoint, p, "witness does not send the given point to the origin")
    _require_at(witness.target_basepoint, (0j,) * n, "witness must normalize the basepoint to the origin")
    if search.r_max > 1.0:
        search = replace(search, r_max=1.0)
    return _nearest_boundary_image(witness, lambda w: np.linalg.norm(w, axis=1), search)


# refinement width of largest_centered_polydisc
POLYRADIUS_TOL = 1e-7


def largest_centered_polydisc(
    witness: EmbeddingWitness,
    samples: int = 512,
    seed: int = 7,
) -> float:
    """Largest polyradius c, at most 1, with the centred polydisc inside the
    witness image: ``min max_k |f(z)_k|`` over the sphere of the source.

    The witness must map a ball into a polydisc fixing 0 (to ``BASEPOINT_TOL``).
    ``samples`` and ``seed`` are those of its :class:`RadiusSearch`.
    """
    if not isinstance(witness.source, Ball) or not isinstance(witness.target, Polydisc):
        raise WitnessValidationError("witness must map a ball into a polydisc")
    origin = witness.source_basepoint + witness.target_basepoint
    _require_at(origin, (0j,) * len(origin), "witness must fix the origin")
    search = RadiusSearch(r_max=1.0, tol=POLYRADIUS_TOL, samples=samples, seed=seed)
    return _nearest_boundary_image(witness, lambda w: np.abs(w).max(axis=1), search).radius
