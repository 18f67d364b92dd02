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
Every estimator checks its basepoints to ``BASEPOINT_TOL``, validates its
witness and then bisects on the largest radius whose sphere sample stays
inside the witness image.  The sample is drawn once per search, from the
search's seed, and rescaled to each radius tested.  The search builds the
one report of every estimator: that radius together with the sampling
metadata that makes the bound reproducible, and its trace: every radius
tested with its outcome, and the sample row that escaped the image at the
last radius that failed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
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
    UnsupportedDomainError,
    as_point,
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


# Rows sampled at a time by EmbeddingWitness.validate: large enough to
# amortize numpy's per-call cost, small enough to keep peak memory flat.
VALIDATION_CHUNK = 2_048
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


@dataclass
class EmbeddingWitness:
    """Injective holomorphic map between two model domains, with basepoints.

    ``forward`` and ``inverse`` map rows to rows: complex arrays of shape
    ``[m, n]``.  Membership in the image is decided by the inverse
    round-trip and, when ``image_domain`` is set (the exact image as a
    model domain, which may be stricter than the target), by membership in
    it as well.  For an inclusion (both maps ``_identity``) the round trip
    is exact, so only the defining functions are evaluated.  Both
    basepoints are coerced with :func:`as_point` to their domain's dimension.
    """

    source: ModelDomain
    target: ModelDomain
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    source_basepoint: Point
    target_basepoint: Point
    description: str
    image_domain: ModelDomain | None = None

    def __post_init__(self) -> None:
        self.source_basepoint = as_point(self.source_basepoint, self.source.dim)
        self.target_basepoint = as_point(self.target_basepoint, self.target.dim)

    def image_contains(self, w) -> np.ndarray:
        """One bool per row of ``w``: does the row lie in the image?

        A row whose inverse is not finite (a pole of the inverse) lies
        outside; a row of ``w`` that is not finite raises ``ValueError``.
        """
        w = as_rows(w, self.target.dim)
        if self.forward is _identity and self.inverse is _identity:
            # on finite rows the round trip is exact and z = w is finite
            inside = self.source.defining(w.T) < 0.0
            if self.image_domain is not None and self.image_domain != self.source:
                inside &= self.image_domain.defining(w.T) < 0.0
            return inside
        with np.errstate(all="ignore"):
            z = self.inverse(w)
            err = np.abs(self.forward(z) - w).max(axis=1)
        inside = np.isfinite(z).all(axis=1) & (err <= IMAGE_TOL * (1.0 + np.abs(w).max(axis=1)))
        # w passed as_rows and the kept rows of z are finite: evaluate the
        # defining functions directly, with no second finiteness check
        if self.image_domain is not None:
            inside &= self.image_domain.defining(w.T) < 0.0
        inside[inside] = self.source.defining(z[inside].T) < 0.0
        return inside

    def validate(self, seed: int = 0) -> None:
        """Check the basepoint normalization, that the images of the basepoint
        and of ``VALIDATION_SAMPLES`` random points lie in the target and in
        ``image_domain`` when one is set, and injectivity on a grid."""
        rng = np.random.default_rng(seed)
        base = np.array([self.source_basepoint], dtype=complex)
        fb = self.forward(base)
        _require_at(fb[0], self.target_basepoint, f"basepoint normalization of {self.description}")
        self._require_images_inside(base, fb)
        stride = VALIDATION_SAMPLES // 150
        grid = []
        for start in range(0, VALIDATION_SAMPLES, VALIDATION_CHUNK):
            z = sample_rows(self.source, rng, min(VALIDATION_CHUNK, VALIDATION_SAMPLES - start))
            w = self.forward(z)
            self._require_images_inside(z, w)
            grid.append(w[-start % stride :: stride])  # sample k with k % stride == 0
        # finite rows are a positive distance apart exactly when they differ
        grid = np.concatenate(grid).tolist()
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


def _identity(z: np.ndarray) -> np.ndarray:
    """The map of the inclusion witnesses, which
    :meth:`EmbeddingWitness.image_contains` recognises by identity."""
    return z


def ball_inclusion_into_polydisc(n: int) -> EmbeddingWitness:
    """The inclusion of the unit ball into the unit polydisc, fixing 0."""
    return EmbeddingWitness(
        source=Ball(n),
        target=Polydisc(n),
        forward=_identity,
        inverse=_identity,
        source_basepoint=(0j,) * n,
        target_basepoint=(0j,) * n,
        description=f"inclusion of the unit ball into the polydisc (n={n})",
        image_domain=Ball(n),
    )


def slit_embedding_of_disc(p: float) -> EmbeddingWitness:
    """The uniformization of the slit disc, as a disc embedding into the
    punctured disc sending 0 to ``p``."""
    slit_map = covering.build_slit_map(p)
    return EmbeddingWitness(
        source=Ball(1),
        target=PuncturedDisc(),
        forward=slit_map.apply,
        inverse=slit_map.unapply,
        source_basepoint=(0j,),
        target_basepoint=(complex(p),),
        description=f"disc onto the slit disc with 0 -> {p}",
        image_domain=SlitDisc(),
    )


def identity_ball_witness(n: int) -> EmbeddingWitness:
    return EmbeddingWitness(
        source=Ball(n),
        target=Ball(n),
        forward=_identity,
        inverse=_identity,
        source_basepoint=(0j,) * n,
        target_basepoint=(0j,) * n,
        description=f"identity of the unit ball (n={n})",
        image_domain=Ball(n),
    )


def scaled_polydisc_into_ball(n: int) -> EmbeddingWitness:
    """The squeezing witness ``z -> z / sqrt(n)`` of the polydisc into the ball."""
    s = math.sqrt(n)
    return EmbeddingWitness(
        source=Polydisc(n),
        target=Ball(n),
        forward=lambda z: z / s,
        inverse=lambda w: w * s,
        source_basepoint=(0j,) * n,
        target_basepoint=(0j,) * n,
        description=f"scaling z -> z/sqrt({n}) of the polydisc into the ball",
    )


def punctured_automorphism_witness(p: complex) -> EmbeddingWitness:
    """Disc automorphism swapping ``p`` and 0, restricted to the punctured
    disc; the image omits the single point ``p``."""
    p = complex(p)
    if not 0 < abs(p) < 1:
        raise ValueError("basepoint must lie in the punctured disc")

    def phi(z: np.ndarray) -> np.ndarray:
        return (p - z) / (1.0 - p.conjugate() * z)

    return EmbeddingWitness(
        source=PuncturedDisc(),
        target=Ball(1),
        forward=phi,
        inverse=phi,
        source_basepoint=(p,),
        target_basepoint=(0j,),
        description=f"disc automorphism moving {p} to 0 on the punctured disc "
        "(image omits one point)",
    )


# ---------------------------------------------------------------------------
# exact values and the punctured-disc bracket
# ---------------------------------------------------------------------------


def _exact(d: ModelDomain, p, value: str, instead: str) -> tuple[float, float]:
    """The ``exact`` entry of the variant's record, once the point, if given,
    is checked to lie in the domain."""
    if p is not None:
        metrics._inner_point(d, p)
    exact = metrics._geometry(d).exact
    if exact is None:
        raise UnsupportedDomainError(f"no exact {value} for {d.label}; use {instead}")
    return exact(d)


def fridman_exact(d: ModelDomain, p=None) -> float:
    """Exact Fridman invariant where it is a theorem, the variant's
    ``metrics.Geometry.exact``: 0 on the domains biholomorphic to the ball,
    ``1 / artanh(1/sqrt n)`` on the polydisc."""
    estimators = "an estimator (fridman_bounds_punctured or fridman_upper_from_embedding)"
    return _exact(d, p, "Fridman value", estimators)[0]


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
    """Bisection parameters for the radius searches.

    Caps beyond ~18 are not resolvable for ball and polydisc spheres in
    double precision: tanh(r) rounds to 1 and the sphere degenerates onto
    the boundary.
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
        _check_samples(self.samples, 8)


def _check_samples(samples, least: int) -> None:
    if not isinstance(samples, numbers.Integral) or samples < least:
        raise ValueError(f"samples must be an integer >= {least}, not {samples!r}")


@dataclass(frozen=True)
class EstimateReport:
    """One-sided invariant estimate with its sampling metadata and trace, built
    only by :func:`_largest_radius`; the Fridman estimator replaces its value and mode.

    ``evaluations`` counts the sphere tests made, the probe at the cap
    included; ``steps`` holds each test in order as ``(radius, inside)``.
    ``escape`` is the first sample row outside the witness image at the
    last radius that failed, or ``None`` when the cap held.
    """

    value: float
    radius: float
    hit_cap: bool
    samples: int
    tol: float
    mode: str | None
    witness: str
    evaluations: int
    steps: tuple[tuple[float, bool], ...]
    escape: Point | None


def _largest_radius(
    witness: EmbeddingWitness,
    draw: Callable[[np.random.Generator], metrics.Sphere],
    cap: float,
    tol: float,
    seed: int,
    samples: int,
) -> EstimateReport:
    """Report of the largest radius r in (0, cap] whose sphere sample lies in
    the witness image, up to ``tol``, as its ``value`` and ``radius`` (``mode = None``).

    Validates the witness, then draws the sample of size ``samples`` once,
    ``sphere = draw(default_rng(seed))``, and evaluates ``sphere(r)`` at every
    radius tested: the cap and, if it fails, a bisection from ``min(tol, cap / 2)``.
    Every radius is thus tested on the same sample, rescaled.
    """
    witness.validate(seed=seed)
    sphere = draw(np.random.default_rng(seed))
    steps = []
    escape = None

    def inside(r: float) -> bool:
        nonlocal escape
        rows = sphere(r)
        kept = witness.image_contains(rows)
        ok = bool(kept.all())
        steps.append((r, ok))
        if not ok:
            escape = tuple(rows[int(np.argmin(kept))].tolist())
        return ok

    hit_cap = inside(cap)
    lo, hi = (cap if hit_cap else min(tol, cap / 2)), cap
    if not (hit_cap or inside(lo)):
        raise WitnessValidationError("the witness image does not contain any neighbourhood of the basepoint")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return EstimateReport(
        value=lo, radius=lo, hit_cap=hit_cap, samples=samples, tol=tol, mode=None,
        witness=witness.description, evaluations=len(steps), steps=tuple(steps), escape=escape,
    )


def fridman_upper_from_embedding(
    d: ModelDomain,
    p,
    witness: EmbeddingWitness,
    search: RadiusSearch | None = None,
    mode: MetricMode = MetricMode.KOBAYASHI,
) -> EstimateReport:
    """Upper bound ``1/r*`` for the Fridman invariant from one embedding.

    ``r*`` is the largest radius (bisection up to ``search.tol``) such that a
    dense sample of the Kobayashi sphere of radius r around ``p`` lies in
    the witness image; membership goes through the validated inverse.

    The search runs in the units of ``mode``: ``search.r_max``,
    ``search.tol`` and the reported radii are in them, and each radius is
    converted to a Kobayashi radius only where its sphere is drawn.
    """
    search = search or RadiusSearch()
    p = as_point(p, d.dim)
    if witness.target != d:
        raise WitnessValidationError("witness target does not match the domain")
    _require_at(witness.target_basepoint, p, "witness does not send its basepoint to the given point")

    def draw(rng: np.random.Generator) -> metrics.Sphere:
        sphere = metrics.metric_sphere(d, p, search.samples, rng)
        return lambda r: sphere(r / mode.factor)

    found = _largest_radius(witness, draw, search.r_max, search.tol, search.seed, search.samples)
    return replace(found, value=1.0 / found.radius, mode=mode.value)


def squeezing_exact(d: ModelDomain, p=None) -> float:
    """Exact squeezing function where it is a theorem, the variant's
    ``metrics.Geometry.exact``: 1 where :func:`fridman_exact` is 0, and
    ``1/sqrt n`` on the polydisc; both are constant in the point."""
    return _exact(d, p, "squeezing value", "squeezing_lower_from_embedding")[1]


def _euclidean_spheres(n: int, count: int, rng: np.random.Generator) -> metrics.Sphere:
    """The centred euclidean spheres of one sample, as a function from the
    radius r to rows: the 4n points r * phase * e_k with phase in
    (1, i, -1, -i), then ``count`` random ones, drawn from ``rng`` once."""
    axes = np.zeros((n, 4, n), dtype=complex)
    for k in range(n):
        axes[k, :, k] = (1.0, 1j, -1.0, -1j)
    unit = np.concatenate([axes.reshape(4 * n, n), random_unit_vectors(n, count, rng)])
    return lambda r: r * unit


def _euclidean_sphere(n: int, r: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`_euclidean_spheres` at one radius, as rows."""
    return _euclidean_spheres(n, count, rng)(r)


def squeezing_lower_from_embedding(
    d: ModelDomain,
    p,
    witness: EmbeddingWitness,
    search: RadiusSearch | None = None,
) -> EstimateReport:
    """Lower bound for the squeezing function from one embedding into the ball.

    Returns the largest euclidean radius r (bisection) such that a dense
    sample of the sphere of radius r lies in the witness image.
    """
    search = search or RadiusSearch(r_max=1.0)
    p = as_point(p, d.dim)
    if witness.source != d or not isinstance(witness.target, Ball):
        raise WitnessValidationError("witness must embed the domain into a ball")
    n = witness.target.dim
    _require_at(witness.source_basepoint, p, "witness does not send the given point to the origin")
    _require_at(witness.target_basepoint, (0j,) * n, "witness must normalize the basepoint to the origin")
    draw = lambda rng: _euclidean_spheres(n, search.samples, rng)
    return _largest_radius(witness, draw, min(search.r_max, 1.0), search.tol, search.seed, search.samples)


# bisection tolerance of largest_centered_polydisc, whose cap is 1 - tol
POLYRADIUS_TOL = 1e-7


def largest_centered_polydisc(
    witness: EmbeddingWitness,
    samples: int = 512,
    seed: int = 7,
) -> float:
    """Largest polyradius c with the centred polydisc inside the witness image.

    The witness must map a ball into a polydisc fixing 0 (to ``BASEPOINT_TOL``).
    The polydisc sphere sample always contains the corner point, which decides
    the containment exactly, so ``samples`` may be any integer >= 0.
    """
    if not isinstance(witness.source, Ball) or not isinstance(witness.target, Polydisc):
        raise WitnessValidationError("witness must map a ball into a polydisc")
    origin = witness.source_basepoint + witness.target_basepoint
    _require_at(origin, (0j,) * len(origin), "witness must fix the origin")
    _check_samples(samples, 0)
    n = witness.target.dim
    draw = lambda rng: metrics.polydisc_sphere(n, samples, rng)
    return _largest_radius(witness, draw, 1.0 - POLYRADIUS_TOL, POLYRADIUS_TOL, seed, samples).radius
