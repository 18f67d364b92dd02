"""Boundary scaling machinery.

Given a boundary point and a sequence of interior points approaching it
along the normal, the domain is rescaled by dilations normalizing the
approach points: isotropically in the plane (translation by the point,
division by the defining-function value), anisotropically in C^n with the
multitype weights of the limit model, by the one constructor
:func:`rescale` of a domain given by its own defining function and
distance.  The rescaled defining functions converge locally uniformly to
the defining function of a model domain; the checks here quantify that
convergence, the dilation invariance of weight-one models, and the
resulting inclusions of metric balls.

The checks run on rows, complex arrays of shape ``[m, n]``, as the
estimators do.  The dilations, the defining functions of the families and
``ScaledFamily.scaled_defining`` each have one formula, which takes a point
tuple or the columns of rows (``rows.T``), like ``defining(z)`` of the
domain variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domains import (
    HalfPlaneC,
    ModelDomain,
    Multitype,
    Point,
    PuncturedDisc,
    Siegel,
    WeightedModel,
    WeightedPolynomial,
    _coordinates,
    as_point,
    as_rows,
    contains,
    contains_rows,
    defining_rows,
    symbolic_weight_check,
)
from .hyperbolic import disc_distance
from .metrics import _geometry, sample_metric_ball, siegel_equivalent
from . import covering

__all__ = [
    "BoundaryApproach",
    "PlanarDefiningFunction",
    "disc_defining",
    "IsotropicDilation",
    "AnisotropicDilation",
    "ScaledFamily",
    "make_isotropic",
    "rescale",
    "make_anisotropic",
    "tangential_modulus_remainder",
    "complex_grid",
    "HausdorffRow",
    "HausdorffReport",
    "hausdorff_check",
    "invariance_check",
    "BallInclusionRow",
    "BallInclusionReport",
    "ball_inclusion_check",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_experiment",
    "loglog_slope",
]

BOUNDARY_TOL = 1e-12  # the most |defining value| at a base point, the least |gradient| there


@dataclass(frozen=True)
class BoundaryApproach:
    """Interior points ``p_j = base - delta_j * normal`` marching to the
    boundary point ``base`` (``normal`` points outward)."""

    base_point: Point
    normal: Point
    deltas: tuple[float, ...]
    js: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        base = as_point(self.base_point)
        normal = as_point(self.normal, len(base))
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "normal", normal)
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise ValueError("the approach needs at least one step")
        if not all(0 < d < math.inf for d in deltas):
            raise ValueError(f"all step sizes must be finite and positive, got {deltas}")
        if any(b <= a for a, b in zip(deltas[1:], deltas)):
            raise ValueError("step sizes must decrease strictly")
        object.__setattr__(self, "deltas", deltas)
        js = tuple(self.js) or tuple(range(1, len(deltas) + 1))
        if len(js) != len(deltas):
            raise ValueError("labels and step sizes disagree in length")
        object.__setattr__(self, "js", js)

    @classmethod
    def geometric(cls, base_point, normal, j_start: int = 1, j_end: int = 12, ratio: float = 0.5) -> "BoundaryApproach":
        js = tuple(range(j_start, j_end + 1))
        deltas = tuple(ratio**j for j in js)
        return cls(as_point(base_point), as_point(normal), deltas, js)

    def points(self) -> list[Point]:
        return [
            tuple(b - d * n for b, n in zip(self.base_point, self.normal))
            for d in self.deltas
        ]


@dataclass(frozen=True)
class PlanarDefiningFunction:
    """C^2 defining function of a planar domain with its z-derivative, and
    the Kobayashi distance of the domain ``f(a, b)`` where one is known.

    ``func`` is evaluated on a complex number and on a complex array (a
    column of rows), so its formula must serve both, as the disc's does.
    ``distance`` likewise takes a complex array as its second argument and
    returns one distance per entry, as :func:`disc_distance` does."""

    func: Callable[[complex], float]
    dz: Callable[[complex], complex]
    distance: Callable[[complex, np.ndarray], np.ndarray] | None = None

    def __call__(self, z: complex) -> float:
        return float(self.func(complex(z)))


def disc_defining() -> PlanarDefiningFunction:
    """The unit disc as ``|z|^2 - 1``."""
    return PlanarDefiningFunction(
        func=lambda z: abs(z) ** 2 - 1.0,
        dz=lambda z: z.conjugate(),
        distance=disc_distance,
    )


@dataclass(frozen=True)
class IsotropicDilation:
    """Planar dilation ``z -> (z - center) / scale`` with positive scale,
    of a point or of the columns of rows."""

    center: complex
    scale: float

    def forward(self, z) -> tuple:
        z = _coordinates(z, 1)[0]
        return ((z - self.center) / self.scale,)

    def inverse(self, w) -> tuple:
        w = _coordinates(w, 1)[0]
        return (self.center + self.scale * w,)


@dataclass(frozen=True)
class AnisotropicDilation:
    """Weighted dilation: tangential ``z_k`` by ``scale^(-w_k)``, the
    distinguished coordinate by ``scale^(-1)``, of a point or of the columns
    of rows.  On rows ``scale`` may be an array with one scale per row."""

    multitype: Multitype
    scale: float | np.ndarray

    def forward(self, z) -> tuple:
        z = _coordinates(z, self.multitype.dim)
        exps = self.multitype.tangential_exponents() + (1.0,)
        return tuple(c * self.scale ** (-e) for c, e in zip(z, exps))

    def inverse(self, w) -> tuple:
        w = _coordinates(w, self.multitype.dim)
        exps = self.multitype.tangential_exponents() + (1.0,)
        return tuple(c * self.scale**e for c, e in zip(w, exps))


@dataclass(frozen=True)
class ScaledFamily:
    """A boundary approach together with its dilations and limit domain.

    ``defining(z)`` is the defining function of the domain before scaling.
    ``distance(index, u, rows)`` is the Kobayashi distance of the
    rescaled domain ``D_j`` from the point ``u`` to every row of ``rows``
    (shape ``[m, n]``), one distance per row, or None where no closed form
    is known: the domain's own distance at ``T_j^-1 u`` and ``T_j^-1
    rows``, or the limit's for a constant family.
    """

    approach: BoundaryApproach
    dilations: tuple
    limit: ModelDomain
    basepoint: Point  # normalized image of the approach points
    defining: Callable[[Point], float]
    distance: Callable[[int, Point, np.ndarray], np.ndarray] | None

    def __len__(self) -> int:
        return len(self.dilations)

    def scaled_defining(self, index: int, w):
        """Defining function of the rescaled domain ``D_j`` at the point
        ``w``, or at every row whose columns ``w`` holds."""
        dil = self.dilations[index]
        return self.defining(dil.inverse(w)) / dil.scale


def _pulled_back(distance: Callable, dilations: Sequence) -> Callable[[int, Point, np.ndarray], np.ndarray]:
    """The unscaled domain's ``distance(p, columns)`` as the family's:
    ``distance(T_j^-1 u, T_j^-1 rows)``."""
    return lambda index, u, rows: distance(dilations[index].inverse(u), dilations[index].inverse(rows.T))


def make_isotropic(rho: PlanarDefiningFunction, approach: BoundaryApproach) -> ScaledFamily:
    """Isotropic rescaling of a planar domain along a boundary approach.

    The dilations are ``T_j(z) = (z - p_j) / (-rho(p_j))``; the limit is the
    half-plane ``{2 Re(a z) - 1 < 0}`` with ``a`` the z-derivative of the
    defining function at the boundary point.  A base point off the boundary,
    or one where the gradient vanishes, raises ``ValueError``.
    """
    base = as_point(approach.base_point, 1)[0]
    if not abs(rho(base)) <= BOUNDARY_TOL:
        raise ValueError(f"base point {base!r} off the boundary: the defining function is {rho(base)!r} there")
    grad = complex(rho.dz(base))
    if abs(grad) < BOUNDARY_TOL:
        raise ValueError("the defining function has vanishing gradient at the base point")
    dilations = []
    for p in approach.points():
        value = rho(p[0])
        if not value < 0:
            raise ValueError(f"approach point {p[0]!r} is not inside the domain")
        dilations.append(IsotropicDilation(center=p[0], scale=-value))
    distance = rho.distance and _pulled_back(lambda p, q: rho.distance(p[0], q[0]), dilations)
    return ScaledFamily(
        approach=approach,
        dilations=tuple(dilations),
        limit=HalfPlaneC(grad),
        basepoint=(0j,),
        defining=lambda z: rho.func(z[0]),
        distance=distance,
    )


def rescale(
    model: WeightedModel, approach: BoundaryApproach, defining: Callable | None = None, distance: Callable | None = None
) -> ScaledFamily:
    """Anisotropic rescaling of a domain ``D`` given in normalized
    coordinates: the approach must run along the inner normal ``-e_n`` from
    the origin, so ``T_j('0, -delta_j) = ('0, -1)``.

    ``model`` is the weight-one limit ``{2 Re z_n + P('z) < 0}``.  Its
    multitype gives the dilations, and the limit is ``Siegel(n)`` where
    :func:`siegel_equivalent` holds.  ``P`` is checked for weight-one
    homogeneity only, not for plurisubharmonicity.  ``defining`` is D's
    defining function on a point or on the columns of rows; one that does not
    vanish at the origin raises ``ValueError``.  ``distance(p, columns)`` is
    D's Kobayashi distance, pulled back through the dilations.  Without
    ``defining``, D is the model, whose family is constant by weight-one
    invariance: its distance is the limit's at the normalized points, where
    the limit has one.
    """
    n = model.dim
    base, normal = as_point(approach.base_point, n), as_point(approach.normal, n)
    if any(c != 0 for c in base):
        raise ValueError("anisotropic scaling expects normalized coordinates (base point 0)")
    if any(c != 0 for c in normal[:-1]) or normal[-1] != 1:
        raise ValueError("anisotropic scaling expects the approach along -e_n")
    if defining is not None and not abs(defining(base)) <= BOUNDARY_TOL:
        raise ValueError(f"base point {base!r} off the boundary: the defining function is {defining(base)!r} there")
    if not symbolic_weight_check(model.poly, model.multitype):
        raise ValueError("the model polynomial is not weight-one homogeneous for the multitype")
    if defining is None and distance is not None:
        raise ValueError("a distance needs the defining function of its domain")
    limit = Siegel(n) if siegel_equivalent(model) else model
    dilations = tuple(AnisotropicDilation(model.multitype, d) for d in approach.deltas)
    if defining is None:  # every scaled domain is the limit
        defining, record = model.defining, _geometry(limit).distance
        distance = record and (lambda index, u, rows: record(limit, u, rows.T))
    else:
        distance = distance and _pulled_back(distance, dilations)
    basepoint = (0j,) * (n - 1) + (complex(-1.0),)
    return ScaledFamily(approach, dilations, limit, basepoint, defining, distance)


def make_anisotropic(
    poly: WeightedPolynomial,
    multitype: Multitype,
    approach: BoundaryApproach,
    remainder_exponents: Sequence[int] | None = None,
) -> ScaledFamily:
    """:func:`rescale` of ``{2 Re z_n + P('z) + R(z) < 0}`` to its model
    ``P``.  The remainder ``R = prod_k |z_k|^(e_k)`` is given by its integer
    exponents and must decay under the dilations: its rate from
    :func:`tangential_modulus_remainder` must be positive.  Only the
    constant family, without a remainder, has a ``distance``.
    """
    model = WeightedModel(multitype, poly)
    if remainder_exponents is None:
        return rescale(model, approach)
    remainder, rate = tangential_modulus_remainder(remainder_exponents, multitype)
    if not rate > 0:
        raise ValueError(f"the remainder does not decay under the dilations: its rate is {rate}, not > 0")
    return rescale(model, approach, lambda z: model.defining(z) + remainder(z))


def tangential_modulus_remainder(
    exponents: Sequence[int], multitype: Multitype
) -> tuple[Callable[[Point], float], float]:
    """Remainder ``R(z) = prod_k |z_k|^(e_k)`` over the tangential variables
    of a point or of the columns of rows, together with its weight-calculus
    decay exponent ``sum_k e_k w_k - 1`` under the dilations, computed
    exactly.  An exponent that is not an integer raises ``ValueError``."""
    if not all(isinstance(e, (int, np.integer)) for e in exponents):
        raise ValueError(f"remainder exponents must be integers, got {tuple(exponents)!r}")
    exps = tuple(int(e) for e in exponents)
    if len(exps) != multitype.dim - 1:
        raise ValueError("one exponent per tangential variable is required")
    rate = float(sum(e * w for e, w in zip(exps, multitype.tangential_weights())) - 1)

    def rem(z: Point) -> float:
        out = 1.0
        for c, e in zip(z[:-1], exps):
            if e:
                out *= abs(c) ** e
        return out

    return rem, rate


def complex_grid(lo: float, hi: float, n: int) -> list[complex]:
    """The ``n`` by ``n`` grid on the square ``[lo, hi]^2`` of the plane."""
    axis = np.linspace(lo, hi, n)
    return [complex(a, b) for a in axis for b in axis]


@dataclass(frozen=True)
class HausdorffRow:
    j: int
    delta: float
    sup_error: float
    membership_agreement: float


@dataclass(frozen=True)
class HausdorffReport:
    rows: tuple[HausdorffRow, ...]
    tol: float
    passed: bool
    empirical_constant: float
    slope: float | None


def hausdorff_check(family: ScaledFamily, grid: Sequence, tol: float) -> HausdorffReport:
    """Per-step sup distance between scaled and limit defining functions.

    Passes iff the sup errors are non-increasing and the final one is below
    ``tol``.  Also reports the fraction of grid points classified the same
    way (inside/outside) by the scaled and limit domains.  The grid is
    evaluated as rows: one evaluation of the limit, one per step.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"the Hausdorff tolerance must be finite and positive, got {tol}")
    grid = np.asarray(grid, dtype=complex)
    if not grid.size:
        raise ValueError("empty grid")
    pts = as_rows(grid.reshape(len(grid), -1), family.limit.dim)
    limit_vals = defining_rows(family.limit, pts)
    limit_inside = limit_vals < 0.0
    rows = []
    for idx, (j, delta) in enumerate(zip(family.approach.js, family.approach.deltas)):
        sv = family.scaled_defining(idx, pts.T)
        sup_err = float(np.abs(sv - limit_vals).max())
        agree = int(np.count_nonzero((sv < 0.0) == limit_inside))
        rows.append(HausdorffRow(j, delta, sup_err, agree / len(pts)))
    errors = [r.sup_error for r in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    passed = monotone and errors[-1] < tol
    constant = max(r.sup_error / r.delta for r in rows)
    slope = loglog_slope([(r.delta, r.sup_error) for r in rows])
    return HausdorffReport(tuple(rows), tol, passed, constant, slope)


def loglog_slope(pairs: Sequence[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(err) against log(delta); None if degenerate."""
    xs = [math.log(d) for d, e in pairs if e > 0]
    ys = [math.log(e) for d, e in pairs if e > 0]
    if len(xs) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


# rows per block of the invariance check, so that its memory does not grow with
# the trial count; 4,096 rows (about 0.5 MB of arrays) ran faster than 10,000
_INVARIANCE_BLOCK = 4096


def invariance_check(
    poly: WeightedPolynomial,
    multitype: Multitype,
    trials: int = 10_000,
    seed: int = 0,
) -> bool:
    """Do the weighted dilations map the model domain onto itself?

    ``trials`` random interior points, drawn as rows, are pushed through
    random dilations (and their inverses) with ``delta`` in (0, 2], one per
    row; membership must be preserved every time.  For exactly weight-one
    polynomials the defining value scales by ``1/delta``, so this never
    produces false alarms.  The rows go in blocks of ``_INVARIANCE_BLOCK``,
    each block drawing its points and then its scales.
    """
    if trials < 1:
        raise ValueError(f"the invariance check needs at least one trial, got {trials}")
    model = WeightedModel(multitype, poly)
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _INVARIANCE_BLOCK):
        m = min(_INVARIANCE_BLOCK, trials - start)
        z = model.sample_rows(rng, m).T
        delta = rng.uniform(0.0, 2.0, size=m)
        delta[delta == 0.0] = 1.0
        dil = AnisotropicDilation(multitype, delta)
        if not (
            contains_rows(model, np.column_stack(dil.forward(z))).all()
            and contains_rows(model, np.column_stack(dil.inverse(z))).all()
        ):
            return False
    return True


@dataclass(frozen=True)
class BallInclusionRow:
    j: int
    delta: float
    inside: bool
    max_distance: float


@dataclass(frozen=True)
class BallInclusionReport:
    radius: float
    eps: float
    rows: tuple[BallInclusionRow, ...]
    j0: int | None
    passed: bool


def ball_inclusion_check(
    family: ScaledFamily, radius: float, eps: float, samples: int = 200, seed: int = 0
) -> BallInclusionReport:
    """Check ``B_limit(basepoint, R - eps)  subset  B_scaled(basepoint, R)``
    for Kobayashi balls, ``R = radius``.

    Samples the limit-domain ball and verifies each sample lies in the
    scaled domain within distance R of the basepoint; reports the first
    index ``j0`` from which every later step passes.  Each step tests
    membership on rows and takes the distances of the samples inside in one
    call of ``family.distance``.
    """
    if not 0.0 <= eps < radius < math.inf:
        raise ValueError(f"need 0 <= eps < radius < inf (Kobayashi), got eps={eps} and radius={radius}")
    if samples < 1:
        raise ValueError(f"the ball-inclusion check needs at least one sample, got {samples}")
    if family.distance is None:
        raise ValueError("no computable Kobayashi distance for this scaled family")
    rng = np.random.default_rng(seed)
    pts = sample_metric_ball(family.limit, family.basepoint, radius - eps, samples, rng)
    rows = []
    for idx, (j, delta) in enumerate(zip(family.approach.js, family.approach.deltas)):
        inside = family.scaled_defining(idx, pts.T) < 0.0
        worst = float(family.distance(idx, family.basepoint, pts[inside]).max()) if inside.any() else 0.0
        rows.append(BallInclusionRow(j, delta, bool(inside.all()) and worst <= radius, worst))
    j0 = None
    for k in range(len(rows)):
        if all(r.inside for r in rows[k:]):
            j0 = rows[k].j
            break
    return BallInclusionReport(radius, eps, tuple(rows), j0, j0 is not None)


@dataclass(frozen=True)
class ConvergenceRow:
    j: int
    modulus: float
    upper_bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    strictly_decreasing: bool


def convergence_experiment(domain: ModelDomain, approach: BoundaryApproach) -> ConvergenceReport:
    """Upper Fridman bound along a boundary approach in the punctured disc.

    Tabulates ``U = 1 / slit_distance(|p_j|)`` and checks it decreases
    strictly: the invariant is forced to 0 at the outer boundary.
    """
    if not isinstance(domain, PuncturedDisc):
        raise ValueError("the convergence experiment supports only the punctured disc")
    rows = []
    for j, p in zip(approach.js, approach.points()):
        if not contains(domain, p):
            raise ValueError(f"approach point {p!r} left the punctured disc")
        m = abs(p[0])
        rows.append(ConvergenceRow(j, m, 1.0 / covering.slit_distance(m)))
    decreasing = all(b.upper_bound < a.upper_bound for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(tuple(rows), decreasing)
