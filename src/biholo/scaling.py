"""Boundary scaling machinery.

Given a boundary point and a sequence of interior points approaching it
along the normal, the domain is rescaled by dilations normalizing the
approach points: isotropically in the plane (translation by the point,
division by the defining-function value), anisotropically in C^n with the
multitype weights.  The rescaled defining functions converge locally
uniformly to the defining function of a model domain; the checks here
quantify that convergence, the dilation invariance of weight-one models,
and the resulting inclusions of metric balls.
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
    as_point,
    check_homogeneity,
    contains,
    defining_value,
    domain_dim,
    poly_eval,
    sample_point,
)
from .hyperbolic import MetricMode, disc_distance
from .metrics import (
    ball_to_siegel,
    kobayashi_distance,
    random_unit_vectors,
    sample_metric_ball,
    siegel_equivalent,
)
from . import covering

__all__ = [
    "BoundaryApproach",
    "PlanarDefiningFunction",
    "disc_defining",
    "IsotropicDilation",
    "AnisotropicDilation",
    "ScaledFamily",
    "make_isotropic",
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
        if any(d <= 0 for d in deltas):
            raise ValueError("all step sizes must be positive")
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
    """C^2 defining function of a planar domain, with optional z-derivative."""

    func: Callable[[complex], float]
    dz: Callable[[complex], complex] | None = None
    label: str = "custom"
    is_disc: bool = False

    def __call__(self, z: complex) -> float:
        return float(self.func(complex(z)))

    def wirtinger(self, z: complex, h: float = 1e-6) -> complex:
        """d rho / dz, analytically if supplied, else by central differences."""
        if self.dz is not None:
            return complex(self.dz(complex(z)))
        z = complex(z)
        dx = (self(z + h) - self(z - h)) / (2.0 * h)
        dy = (self(z + 1j * h) - self(z - 1j * h)) / (2.0 * h)
        return 0.5 * complex(dx, -dy)


def disc_defining() -> PlanarDefiningFunction:
    """The unit disc as ``|z|^2 - 1``."""
    return PlanarDefiningFunction(
        func=lambda z: abs(z) ** 2 - 1.0,
        dz=lambda z: z.conjugate(),
        label="unit-disc",
        is_disc=True,
    )


@dataclass(frozen=True)
class IsotropicDilation:
    """Planar dilation ``z -> (z - center) / scale`` with positive scale."""

    center: complex
    scale: float

    def forward(self, z) -> Point:
        z = as_point(z, 1)[0]
        return ((z - self.center) / self.scale,)

    def inverse(self, w) -> Point:
        w = as_point(w, 1)[0]
        return (self.center + self.scale * w,)


@dataclass(frozen=True)
class AnisotropicDilation:
    """Weighted dilation: tangential ``z_k`` by ``delta^(-w_k)``, the
    distinguished coordinate by ``delta^(-1)``."""

    multitype: Multitype
    delta: float

    def _exponents(self) -> tuple[float, ...]:
        return self.multitype.tangential_exponents() + (1.0,)

    def forward(self, z) -> Point:
        z = as_point(z, self.multitype.dim)
        return tuple(c * self.delta ** (-e) for c, e in zip(z, self._exponents()))

    def inverse(self, w) -> Point:
        w = as_point(w, self.multitype.dim)
        return tuple(c * self.delta**e for c, e in zip(w, self._exponents()))


@dataclass(frozen=True)
class ScaledFamily:
    """A boundary approach together with its dilations and limit domain."""

    kind: str  # "isotropic" | "anisotropic"
    approach: BoundaryApproach
    dilations: tuple
    limit: ModelDomain
    basepoint: Point  # normalized image of the approach points
    rho: PlanarDefiningFunction | None = None
    poly: WeightedPolynomial | None = None
    multitype: Multitype | None = None
    remainder: Callable[[Point], float] | None = None
    remainder_rate: float | None = None

    def __len__(self) -> int:
        return len(self.dilations)

    def scaled_defining(self, index: int, w) -> float:
        """Defining function of the rescaled domain ``D_j`` at ``w``."""
        dil = self.dilations[index]
        z = dil.inverse(w)
        if self.kind == "isotropic":
            return self.rho(z[0]) / dil.scale
        val = 2.0 * z[-1].real + poly_eval(self.poly, z[:-1])
        if self.remainder is not None:
            val += float(self.remainder(z))
        return val / dil.delta

    def limit_defining(self, w) -> float:
        return defining_value(self.limit, w)

    def scaled_contains(self, index: int, w) -> bool:
        return self.scaled_defining(index, w) < 0.0


def make_isotropic(rho: PlanarDefiningFunction, approach: BoundaryApproach) -> ScaledFamily:
    """Isotropic rescaling of a planar domain along a boundary approach.

    The dilations are ``T_j(z) = (z - p_j) / (-rho(p_j))``; the limit is the
    half-plane ``{2 Re(a z) - 1 < 0}`` with ``a`` the z-derivative of the
    defining function at the boundary point.
    """
    base = as_point(approach.base_point, 1)[0]
    grad = rho.wirtinger(base)
    if abs(grad) < 1e-12:
        raise ValueError("the defining function has vanishing gradient at the base point")
    dilations = []
    for p in approach.points():
        value = rho(p[0])
        if not value < 0:
            raise ValueError(f"approach point {p[0]!r} is not inside the domain")
        dilations.append(IsotropicDilation(center=p[0], scale=-value))
    return ScaledFamily(
        kind="isotropic",
        approach=approach,
        dilations=tuple(dilations),
        limit=HalfPlaneC(grad),
        basepoint=(0j,),
        rho=rho,
    )


def _canonical_limit(multitype: Multitype, poly: WeightedPolynomial) -> ModelDomain:
    model = WeightedModel(multitype, poly)
    if siegel_equivalent(model):
        return Siegel(multitype.dim)
    return model


def make_anisotropic(
    poly: WeightedPolynomial,
    multitype: Multitype,
    approach: BoundaryApproach,
    remainder: Callable[[Point], float] | None = None,
    gamma: float | None = None,
    remainder_rate: float | None = None,
) -> ScaledFamily:
    """Anisotropic rescaling of ``{2 Re z_n + P('z) + R(z) < 0}``.

    Coordinates are assumed already normalized: the approach must run along
    the inner normal ``-e_n`` from the origin, so ``T_j('0, -delta_j) =
    ('0, -1)``.  ``P`` must be weight-one homogeneous for the multitype; a
    remainder needs a declared exponent ``gamma > 1``.
    """
    n = multitype.dim
    base = as_point(approach.base_point, n)
    normal = as_point(approach.normal, n)
    if any(c != 0 for c in base):
        raise ValueError("anisotropic scaling expects normalized coordinates (base point 0)")
    if any(c != 0 for c in normal[:-1]) or normal[-1] != 1:
        raise ValueError("anisotropic scaling expects the approach along -e_n")
    if not check_homogeneity(poly, multitype):
        raise ValueError("the model polynomial is not weight-one homogeneous for the multitype")
    if remainder is not None:
        if gamma is None or not gamma > 1.0:
            raise ValueError("a remainder requires a declared exponent gamma > 1")
    dilations = tuple(AnisotropicDilation(multitype, d) for d in approach.deltas)
    return ScaledFamily(
        kind="anisotropic",
        approach=approach,
        dilations=dilations,
        limit=_canonical_limit(multitype, poly),
        basepoint=(0j,) * (n - 1) + (complex(-1.0),),
        poly=poly,
        multitype=multitype,
        remainder=remainder,
        remainder_rate=remainder_rate,
    )


def tangential_modulus_remainder(
    exponents: Sequence[int], multitype: Multitype
) -> tuple[Callable[[Point], float], float]:
    """Remainder ``R(z) = prod_k |z_k|^(e_k)`` over the tangential variables,
    together with its weight-calculus decay exponent
    ``sum_k e_k w_k - 1`` under the dilations."""
    exps = tuple(int(e) for e in exponents)
    if len(exps) != multitype.dim - 1:
        raise ValueError("one exponent per tangential variable is required")
    weights = multitype.tangential_exponents()
    rate = sum(e * w for e, w in zip(exps, weights)) - 1.0

    def rem(z: Point) -> float:
        out = 1.0
        for c, e in zip(z[:-1], exps):
            if e:
                out *= abs(c) ** e
        return out

    return rem, rate


def complex_grid(re_min: float, re_max: float, im_min: float, im_max: float, n: int) -> list[complex]:
    res = np.linspace(re_min, re_max, n)
    ims = np.linspace(im_min, im_max, n)
    return [complex(a, b) for a in res for b in ims]


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
    note: str = (
        "set convergence verified through local uniform convergence of the "
        "defining functions plus membership agreement on the grid"
    )

    def to_rows(self) -> list[dict]:
        return [
            {
                "j": r.j,
                "delta": r.delta,
                "sup_error": r.sup_error,
                "membership_agreement": r.membership_agreement,
            }
            for r in self.rows
        ]


def hausdorff_check(family: ScaledFamily, grid: Sequence, tol: float) -> HausdorffReport:
    """Per-step sup distance between scaled and limit defining functions.

    Passes iff the sup errors are non-increasing and the final one is below
    ``tol``.  Also reports the fraction of grid points classified the same
    way (inside/outside) by the scaled and limit domains.
    """
    dim = domain_dim(family.limit)
    pts = [as_point(p, dim) for p in grid]
    if not pts:
        raise ValueError("empty grid")
    limit_vals = [family.limit_defining(p) for p in pts]
    rows = []
    for idx, (j, delta) in enumerate(zip(family.approach.js, family.approach.deltas)):
        sup_err = 0.0
        agree = 0
        for p, lv in zip(pts, limit_vals):
            sv = family.scaled_defining(idx, p)
            sup_err = max(sup_err, abs(sv - lv))
            agree += (sv < 0.0) == (lv < 0.0)
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


def invariance_check(
    poly: WeightedPolynomial,
    multitype: Multitype,
    trials: int = 10_000,
    seed: int = 0,
) -> bool:
    """Do the weighted dilations map the model domain onto itself?

    Random interior points are pushed through random dilations (and their
    inverses) with ``delta`` in (0, 2]; membership must be preserved every
    time.  For exactly weight-one polynomials the defining value scales by
    ``1/delta``, so this never produces false alarms.
    """
    model = WeightedModel(multitype, poly)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        z = sample_point(model, rng)
        delta = float(rng.uniform(0.0, 2.0)) or 1.0
        dil = AnisotropicDilation(multitype, delta)
        if not contains(model, dil.forward(z)):
            return False
        if not contains(model, dil.inverse(z)):
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

    def to_rows(self) -> list[dict]:
        return [
            {"j": r.j, "delta": r.delta, "inside": r.inside, "max_distance": r.max_distance}
            for r in self.rows
        ]


def _limit_ball_samples(
    family: ScaledFamily, radius: float, samples: int, rng: np.random.Generator, mode: MetricMode
) -> list[Point]:
    limit = family.limit
    if isinstance(limit, HalfPlaneC):
        return sample_metric_ball(limit, family.basepoint, radius, samples, rng, mode)
    if isinstance(limit, Siegel):
        pts = []
        for v in random_unit_vectors(limit.dim, samples, rng):
            t = radius * math.sqrt(rng.uniform())
            rho = math.tanh(0.5 * t / mode.scale)
            pts.append(ball_to_siegel(tuple(rho * c for c in v)))
        return pts
    raise ValueError(f"no ball sampler for limit domain {limit!r}")


def _scaled_distance(family: ScaledFamily, index: int, u: Point, v: Point, mode: MetricMode) -> float:
    if family.kind == "isotropic":
        if family.rho is None or not family.rho.is_disc:
            raise ValueError(
                "scaled Kobayashi distances are computable only for the unit-disc "
                "defining function in the isotropic case"
            )
        dil = family.dilations[index]
        return disc_distance(dil.inverse(u)[0], dil.inverse(v)[0], mode)
    if family.remainder is None and isinstance(family.limit, Siegel):
        # weight-one invariance makes every scaled domain the limit itself
        return kobayashi_distance(family.limit, u, v, mode)
    raise ValueError("no computable Kobayashi distance for this scaled family")


def ball_inclusion_check(
    family: ScaledFamily,
    radius: float,
    eps: float,
    samples: int = 200,
    mode: MetricMode = MetricMode.POINCARE,
    seed: int = 0,
) -> BallInclusionReport:
    """Check ``B_limit(basepoint, R - eps)  subset  B_scaled(basepoint, R)``.

    Samples the limit-domain ball and verifies each sample lies in the
    scaled domain within distance R of the basepoint; reports the first
    index ``j0`` from which every later step passes.
    """
    if radius <= 0 or eps < 0 or eps >= radius:
        raise ValueError("need 0 <= eps < radius")
    computable = (
        family.kind == "isotropic" and family.rho is not None and family.rho.is_disc
    ) or (
        family.kind == "anisotropic"
        and family.remainder is None
        and isinstance(family.limit, Siegel)
    )
    if not computable:
        raise ValueError("no computable Kobayashi distance for this scaled family")
    rng = np.random.default_rng(seed)
    pts = _limit_ball_samples(family, radius - eps, samples, rng, mode)
    rows = []
    for idx, (j, delta) in enumerate(zip(family.approach.js, family.approach.deltas)):
        ok = True
        worst = 0.0
        for q in pts:
            if not family.scaled_contains(idx, q):
                ok = False
                continue
            d = _scaled_distance(family, idx, family.basepoint, q, mode)
            worst = max(worst, d)
            if d > radius:
                ok = False
        rows.append(BallInclusionRow(j, delta, ok, worst))
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
    mode: MetricMode
    rows: tuple[ConvergenceRow, ...]
    strictly_decreasing: bool

    def to_rows(self) -> list[dict]:
        return [
            {"j": r.j, "modulus": r.modulus, "upper_bound": r.upper_bound}
            for r in self.rows
        ]


def convergence_experiment(
    domain: ModelDomain,
    approach: BoundaryApproach,
    mode: MetricMode = MetricMode.POINCARE,
) -> ConvergenceReport:
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
        rows.append(ConvergenceRow(j, m, 1.0 / covering.slit_distance(m, mode)))
    decreasing = all(b.upper_bound < a.upper_bound for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(mode, tuple(rows), decreasing)
