"""Fridman invariant and squeezing function on the model domains.

Exact values are hard-coded only where they are theorems: the invariant
vanishes identically on domains biholomorphic to the ball, equals
``2 / log((sqrt n + 1)/(sqrt n - 1))`` on the polydisc (KOBAYASHI
normalization), and the squeezing function of the ball is identically 1.
The punctured disc gets a two-sided bracket from the slit-disc embedding
(upper bound) and the circle-supremum obstruction (lower bound).

Everything else is an estimator: both invariants quantify over *all*
embeddings, so a single witness embedding only ever certifies one side.
Estimators return the certified radius together with the sampling
metadata that makes the bound reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import covering, metrics
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
    as_point,
    contains,
    domain_dim,
    domain_label,
    sample_point,
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


@dataclass
class EmbeddingWitness:
    """Injective holomorphic map between two model domains, with basepoints.

    ``image_domain``, when set, is the exact image as a model domain and is
    used for fast membership decisions; otherwise membership in the image
    is decided by the inverse round-trip.
    """

    source: ModelDomain
    target: ModelDomain
    forward: Callable[[Point], Point]
    inverse: Callable[[Point], Point]
    source_basepoint: Point
    target_basepoint: Point
    description: str
    image_domain: ModelDomain | None = None

    def image_contains(self, w, tol: float = 1e-9) -> bool:
        w = as_point(w, domain_dim(self.target))
        if self.image_domain is not None and not contains(self.image_domain, w):
            return False
        try:
            z = self.inverse(w)
        except (ZeroDivisionError, ValueError, OverflowError):
            return False
        if not contains(self.source, z):
            return False
        fz = self.forward(z)
        err = max(abs(u - v) for u, v in zip(fz, w))
        scale = 1.0 + max(abs(c) for c in w)
        return err <= tol * scale

    def validate(self, samples: int = 10_000, seed: int = 0) -> None:
        """Check image containment, injectivity on a grid, and basepoints."""
        rng = np.random.default_rng(seed)
        fb = self.forward(self.source_basepoint)
        err = max(abs(u - v) for u, v in zip(fb, self.target_basepoint))
        if err > 1e-10:
            raise WitnessValidationError(
                f"basepoint normalization off by {err:.3e} for {self.description}"
            )
        grid: list[Point] = []
        for k in range(samples):
            z = sample_point(self.source, rng)
            w = self.forward(z)
            if not contains(self.target, w):
                raise WitnessValidationError(
                    f"image point {w!r} of {z!r} escaped the target for {self.description}"
                )
            if k % max(samples // 150, 1) == 0:
                grid.append(w)
        min_sep = min(
            (max(abs(a - b) for a, b in zip(u, v)) for i, u in enumerate(grid) for v in grid[i + 1 :]),
            default=1.0,
        )
        if not min_sep > 0.0:
            raise WitnessValidationError(f"witness {self.description} is not injective on the grid")


def _vectorize(fn: Callable[[complex], complex], dim: int = 1) -> Callable[[Point], Point]:
    if dim != 1:
        raise ValueError("scalar adapters are planar only")
    return lambda z: (fn(as_point(z, 1)[0]),)


def ball_inclusion_into_polydisc(n: int) -> EmbeddingWitness:
    """The inclusion of the unit ball into the unit polydisc, fixing 0."""
    ident = lambda z: as_point(z, n)
    return EmbeddingWitness(
        source=Ball(n),
        target=Polydisc(n),
        forward=ident,
        inverse=ident,
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
        forward=_vectorize(slit_map),
        inverse=_vectorize(slit_map.inverse),
        source_basepoint=(0j,),
        target_basepoint=(complex(p),),
        description=f"disc onto the slit disc with 0 -> {p}",
        image_domain=SlitDisc(),
    )


def identity_ball_witness(n: int) -> EmbeddingWitness:
    ident = lambda z: as_point(z, n)
    return EmbeddingWitness(
        source=Ball(n),
        target=Ball(n),
        forward=ident,
        inverse=ident,
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
        forward=lambda z: tuple(c / s for c in as_point(z, n)),
        inverse=lambda w: tuple(c * s for c in as_point(w, n)),
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

    def phi(z: complex) -> complex:
        return (p - z) / (1.0 - p.conjugate() * z)

    return EmbeddingWitness(
        source=PuncturedDisc(),
        target=Ball(1),
        forward=_vectorize(phi),
        inverse=_vectorize(phi),
        source_basepoint=(p,),
        target_basepoint=(0j,),
        description=f"disc automorphism moving {p} to 0 on the punctured disc "
        "(image omits one point)",
    )


# ---------------------------------------------------------------------------
# exact values and the punctured-disc bracket
# ---------------------------------------------------------------------------


def fridman_exact(d: ModelDomain, p=None, mode: MetricMode = MetricMode.KOBAYASHI) -> float:
    """Exact Fridman invariant where a closed form exists.

    Ball, half-planes and the unbounded ball realization are biholomorphic
    to the ball, so the invariant is 0.  The polydisc value is
    ``1 / artanh(1/sqrt n)`` in KOBAYASHI mode (half the metric radii, twice
    the invariant, relative to POINCARE).
    """
    if p is not None:
        pt = as_point(p, domain_dim(d))
        if not contains(d, pt):
            raise ValueError(f"point {pt!r} is not in the domain")
    if isinstance(d, (Ball, UpperHalfPlane, HalfPlaneC, Siegel)):
        return 0.0
    if isinstance(d, Polydisc):
        if d.dim == 1:
            return 0.0
        return 1.0 / (2.0 * mode.scale * math.atanh(1.0 / math.sqrt(d.dim)))
    raise UnsupportedDomainError(
        f"no exact Fridman value for {domain_label(d)}; use an estimator "
        "(fridman_bounds_punctured or fridman_upper_from_embedding)"
    )


@dataclass(frozen=True)
class BoundEstimate:
    """Two-sided bracket for an invariant, with the arguments producing it."""

    lower: float
    upper: float
    lower_witness: str
    upper_witness: str
    mode: MetricMode

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"inconsistent bracket [{self.lower}, {self.upper}]")


def fridman_bounds_punctured(p: complex, mode: MetricMode = MetricMode.POINCARE) -> BoundEstimate:
    """Two-sided bracket for the Fridman invariant of the punctured disc.

    Rotations are automorphisms, so only ``|p|`` matters.  The upper bound
    is the reciprocal distance to the slit (certified by the slit-disc
    embedding); the lower bound is the reciprocal circle supremum (no
    simply connected image can contain a circle around the puncture).
    """
    m = abs(complex(p))
    if not 0.0 < m < 1.0:
        raise ValueError("basepoint must lie in the punctured disc")
    upper = 1.0 / covering.slit_distance(m, mode)
    lower = 1.0 / covering.circle_supremum(m, mode)
    return BoundEstimate(
        lower=lower,
        upper=upper,
        lower_witness="a simply connected image cannot contain the circle "
        f"of radius {m} around the puncture",
        upper_witness=f"disc embedded onto the slit disc with 0 -> {m}",
        mode=mode,
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
        if self.r_max <= 0 or self.tol <= 0 or self.samples < 8:
            raise ValueError("invalid search parameters")


@dataclass(frozen=True)
class EstimateReport:
    """One-sided invariant estimate with its sampling metadata."""

    value: float
    radius: float
    hit_cap: bool
    samples: int
    tol: float
    mode: str | None
    witness: str


def _bisect_largest(predicate: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """Largest r in [lo, hi] with predicate true, assuming predicate(lo)."""
    if not predicate(lo):
        raise WitnessValidationError(
            "the witness image does not contain any neighbourhood of the basepoint"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    """
    search = search or RadiusSearch()
    p = as_point(p, domain_dim(d))
    if witness.target != d:
        raise WitnessValidationError("witness target does not match the domain")
    base_err = max(abs(u - v) for u, v in zip(witness.target_basepoint, p))
    if base_err > 1e-10:
        raise WitnessValidationError("witness does not send its basepoint to the given point")
    witness.validate(seed=search.seed)

    def inside(r: float) -> bool:
        rng = np.random.default_rng(search.seed)
        sphere = metrics.sample_metric_sphere(d, p, r, search.samples, rng, mode)
        return all(witness.image_contains(s) for s in sphere)

    if inside(search.r_max):
        return EstimateReport(
            value=1.0 / search.r_max,
            radius=search.r_max,
            hit_cap=True,
            samples=search.samples,
            tol=search.tol,
            mode=mode.value,
            witness=witness.description,
        )
    r_star = _bisect_largest(inside, min(search.tol, search.r_max / 2), search.r_max, search.tol)
    return EstimateReport(
        value=1.0 / r_star,
        radius=r_star,
        hit_cap=False,
        samples=search.samples,
        tol=search.tol,
        mode=mode.value,
        witness=witness.description,
    )


def squeezing_exact(d: ModelDomain, p=None) -> float:
    """Exact squeezing function; proved only for the ball, where it is 1."""
    if p is not None:
        pt = as_point(p, domain_dim(d))
        if not contains(d, pt):
            raise ValueError(f"point {pt!r} is not in the domain")
    if isinstance(d, Ball):
        return 1.0
    raise UnsupportedDomainError(
        f"no exact squeezing value for {domain_label(d)}; "
        "use squeezing_lower_from_embedding"
    )


def _euclidean_sphere(n: int, r: float, count: int, rng: np.random.Generator) -> list[Point]:
    pts: list[Point] = []
    for k in range(n):
        for phase in (1.0, 1j, -1.0, -1j):
            pts.append(tuple(r * phase if i == k else 0j for i in range(n)))
    pts.extend(tuple(r * c for c in v) for v in metrics.random_unit_vectors(n, count, rng))
    return pts


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
    p = as_point(p, domain_dim(d))
    if witness.source != d or not isinstance(witness.target, Ball):
        raise WitnessValidationError("witness must embed the domain into a ball")
    base_err = max(abs(u - v) for u, v in zip(witness.source_basepoint, p))
    if base_err > 1e-10:
        raise WitnessValidationError("witness does not send the given point to the origin")
    if max(abs(c) for c in witness.target_basepoint) > 1e-10:
        raise WitnessValidationError("witness must normalize the basepoint to the origin")
    witness.validate(seed=search.seed)
    n = domain_dim(witness.target)

    def inside(r: float) -> bool:
        rng = np.random.default_rng(search.seed)
        return all(witness.image_contains(s) for s in _euclidean_sphere(n, r, search.samples, rng))

    cap = min(search.r_max, 1.0)
    if inside(cap):
        r_star, hit_cap = cap, True
    else:
        r_star = _bisect_largest(inside, min(search.tol, cap / 2), cap, search.tol)
        hit_cap = False
    return EstimateReport(
        value=r_star,
        radius=r_star,
        hit_cap=hit_cap,
        samples=search.samples,
        tol=search.tol,
        mode=None,
        witness=witness.description,
    )


def largest_centered_polydisc(
    witness: EmbeddingWitness,
    tol: float = 1e-7,
    samples: int = 512,
    seed: int = 7,
) -> float:
    """Largest polyradius c with the centred polydisc inside the witness image.

    The witness must map a ball into a polydisc fixing 0.  The polydisc
    sphere sample always contains the corner point, which decides the
    containment exactly.
    """
    if not isinstance(witness.source, Ball) or not isinstance(witness.target, Polydisc):
        raise WitnessValidationError("witness must map a ball into a polydisc")
    witness.validate(seed=seed)
    n = witness.target.dim

    def inside(c: float) -> bool:
        rng = np.random.default_rng(seed)
        pts = metrics.polydisc_sphere_sample(n, c, samples, rng)
        return all(witness.image_contains(s) for s in pts)

    return _bisect_largest(inside, tol, 1.0 - tol, tol)
