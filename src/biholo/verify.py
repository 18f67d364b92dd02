"""Closed-form vs brute-force verification suites.

Each suite re-derives a closed form by an independent route (enumeration,
grid search, finite differences, direct set arithmetic) and compares.
`run_all` drives every suite with one configuration; the CLI `verify`
subcommand prints one line per suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import covering, invariants, scaling
from .domains import (
    Ball,
    HalfPlaneC,
    Multitype,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    Term,
    UpperHalfPlane,
    WeightedModel,
    WeightedPolynomial,
    contains,
    contains_rows,
    modulus_power,
    poly_eval,
    sample_rows,
    symbolic_weight_check,
    numeric_scaling_check,
)
from .hyperbolic import (
    MetricMode,
    disc_distance,
    halfplane_distance,
    halfplane_distance_acosh,
    vertical_line_distance,
)

__all__ = ["RunConfig", "SuiteResult", "ALL_SUITES", "run_all"]


@dataclass(frozen=True)
class RunConfig:
    """The seed of the suites; each oracle runs at its default size."""

    seed: int = 0


# sphere samples per radius search of the estimator suites
ESTIMATOR_SAMPLES = 256


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def _halfplane_pairs(rng: np.random.Generator, count: int):
    for _ in range(count):
        yield (
            complex(rng.uniform(-5, 5), rng.uniform(0.05, 5)),
            complex(rng.uniform(-5, 5), rng.uniform(0.05, 5)),
        )


def suite_halfplane_forms(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("halfplane-closed-form-vs-acosh")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for z, w in _halfplane_pairs(rng, 10_000):
        d1 = halfplane_distance(z, w)
        d2 = halfplane_distance_acosh(z, w)
        worst = max(worst, abs(d1 - d2))
        dk = halfplane_distance(z, w, MetricMode.KOBAYASHI)
        res.expect(d1 == 2.0 * dk, f"mode factor not exact at {(z, w)}")
    res.expect(worst <= 1e-12, f"closed form deviates from acosh by {worst:.3e}")
    for a, b in (((0.2 + 0.1j), (-0.5 + 0.4j)), ((0.0j), (0.3 - 0.2j))):
        res.expect(
            disc_distance(a, b) == 2.0 * disc_distance(a, b, MetricMode.KOBAYASHI),
            "disc mode factor not exact",
        )
    return res


def suite_metric_axioms(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("metric-axioms")
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(1_000):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        u = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        res.expect(
            abs(halfplane_distance(z, w) - halfplane_distance(w, z)) <= 1e-12,
            f"asymmetric at {(z, w)}",
        )
        slack = halfplane_distance(z, w) + halfplane_distance(w, u) - halfplane_distance(z, u)
        res.expect(slack >= -1e-10, f"triangle violated by {slack:.3e} at {(z, w, u)}")
    res.expect(halfplane_distance(1j, 1j) == 0.0, "nonzero self-distance")
    return res


def suite_mobius_invariance(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("mobius-invariance")
    rng = np.random.default_rng(cfg.seed + 2)
    for _ in range(1_000):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        a = rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        b, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        d = (1.0 + b * c) / a
        mz = (a * z + b) / (c * z + d)
        mw = (a * w + b) / (c * w + d)
        res.expect(
            abs(halfplane_distance(z, w) - halfplane_distance(mz, mw)) <= 1e-10,
            f"not invariant under {(a, b, c, d)}",
        )
    return res


def suite_vertical_line(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("vertical-line-foot")
    rng = np.random.default_rng(cfg.seed + 3)
    ts = np.geomspace(1e-3, 100.0, 1_000_000)
    for _ in range(12):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 4))
        c = rng.uniform(-4, 4)
        d_foot = vertical_line_distance(z, c)
        s = ((z.real - c) ** 2 + (z.imag - ts) ** 2) / (2.0 * z.imag * ts)
        grid_min = float(np.log1p(s + np.sqrt(s * (s + 2.0))).min())
        res.expect(
            d_foot <= grid_min + 1e-12,
            f"foot distance {d_foot} above a sampled line point {grid_min}",
        )
        res.expect(abs(d_foot - grid_min) <= 1e-5, f"grid min off by {abs(d_foot - grid_min):.2e}")
        foot = complex(c, abs(z - c))
        res.expect(
            abs(halfplane_distance(z, foot) - d_foot) <= 1e-6,
            "distance not attained at the orthogonal foot",
        )
    return res


def suite_deck_oracle(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("deck-closed-form-vs-enumeration")
    rng = np.random.default_rng(cfg.seed + 4)
    for _ in range(1_000):
        p = float(rng.uniform(0.01, 0.99))
        # the closed form is the deck infimum on offsets up to pi; past
        # that the infimum wraps around the puncture (checked below)
        theta = float(rng.uniform(0.0, math.pi))
        closed = covering.deck_minimum(p, theta)
        brute = covering.deck_minimum_enumerated(p, theta)
        res.expect(abs(closed - brute) <= 1e-12, f"deck mismatch at p={p}, theta={theta}")
        q = p * complex(math.cos(theta), math.sin(theta))
        res.expect(
            abs(covering.punctured_distance(p, q) - closed) <= 1e-12,
            f"punctured distance disagrees with deck minimum at p={p}, theta={theta}",
        )
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        theta = float(rng.uniform(math.pi, covering.TWO_PI))
        wrapped = covering.deck_minimum(p, covering.TWO_PI - theta)
        brute = covering.deck_minimum_enumerated(p, theta)
        res.expect(
            abs(wrapped - brute) <= 1e-12,
            f"wrap-around infimum wrong at p={p}, theta={theta}",
        )
        q = p * complex(math.cos(theta), math.sin(theta))
        res.expect(
            abs(covering.punctured_distance(p, q) - wrapped) <= 1e-12,
            f"wrap-around distance wrong at p={p}, theta={theta}",
        )
    res.expect(covering.deck_minimum(0.3, 0.0) == 0.0, "zero offset must give zero")
    return res


def suite_slit_circle_oracles(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("slit-and-circle-oracles")
    rng = np.random.default_rng(cfg.seed + 5)
    for p in (math.exp(-math.pi), 0.2, 0.5, 0.9):
        r = covering.slit_distance(p)
        r_grid = covering.grid_slit_distance(p)
        res.expect(abs(r - r_grid) <= 1e-4, f"slit distance off by {abs(r - r_grid):.2e} at p={p}")
        s = covering.circle_supremum(p)
        s_grid, arg = covering.grid_circle_supremum(p)
        res.expect(abs(s - s_grid) <= 1e-4, f"deck translation length off by {abs(s - s_grid):.2e} at p={p}")
        res.expect(arg > covering.TWO_PI - 1e-3, f"deck translation length grid maximum at theta={arg}, not at the far end")
    for _ in range(1_000):
        p = float(rng.uniform(0.01, 0.99))
        res.expect(
            abs(covering.circle_supremum(p) - 2.0 * covering.slit_distance(p)) <= 1e-12,
            f"deck translation length is not twice the slit distance at p={p}",
        )
    return res


def suite_punctured_metric(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("punctured-disc-metric")
    rng = np.random.default_rng(cfg.seed + 6)
    pd = PuncturedDisc()
    for p, q, u in sample_rows(pd, rng, 600).reshape(200, 3).tolist():
        dpq = covering.punctured_distance(p, q)
        res.expect(abs(dpq - covering.punctured_distance(q, p)) <= 1e-12, "asymmetric")
        slack = dpq + covering.punctured_distance(q, u) - covering.punctured_distance(p, u)
        res.expect(slack >= -1e-10, f"triangle violated by {slack:.2e}")
        res.expect(
            dpq >= disc_distance(p, q) - 1e-12,
            "inclusion into the disc must not increase distances",
        )
    return res


def _independent_membership(domain, point) -> bool:
    if isinstance(domain, Ball):
        return sum(abs(c) ** 2 for c in point) < 1.0
    if isinstance(domain, Polydisc):
        return all(abs(c) < 1.0 for c in point)
    if isinstance(domain, UpperHalfPlane):
        return point[0].imag > 0
    if isinstance(domain, HalfPlaneC):
        return (domain.linear_coeff * point[0]).real < 0.5
    if isinstance(domain, PuncturedDisc):
        return 0.0 < abs(point[0]) < 1.0
    if isinstance(domain, SlitDisc):
        z = point[0]
        on_slit = z.imag == 0.0 and -1.0 < z.real <= 0.0
        return abs(z) < 1.0 and not on_slit
    if isinstance(domain, Siegel):
        return 2.0 * point[-1].real + sum(abs(c) ** 2 for c in point[:-1]) < 0.0
    if isinstance(domain, WeightedModel):
        return 2.0 * point[-1].real + poly_eval(domain.poly, point[:-1]) < 0.0
    raise ValueError(domain)


def suite_domains(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("domain-membership")
    rng = np.random.default_rng(cfg.seed + 7)
    model = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
    variants = [
        Ball(2),
        Polydisc(2),
        UpperHalfPlane(),
        HalfPlaneC(1.0 + 0.5j),
        PuncturedDisc(),
        SlitDisc(),
        Siegel(2),
        model,
    ]
    for dom in variants:
        # sampled points alternate with points of the box [-1.6, 1.6]^(2n)
        rows = np.empty((10_000, dom.dim), dtype=complex)
        rows[0::2] = sample_rows(dom, rng, 5_000)
        rows[1::2] = rng.uniform(-1.6, 1.6, size=(5_000, dom.dim, 2)).view(np.complex128)[..., 0]
        scalar, bad = [], 0
        for row in rows:
            pt = tuple(row.tolist())
            inside = contains(dom, pt)
            bad += inside != _independent_membership(dom, pt)
            scalar.append(inside)
        # the batch path against the scalar one, on the same points
        bad += int((contains_rows(dom, rows) != scalar).sum())
        res.expect(bad == 0, f"{bad} membership mismatches for {dom!r}")
    # the slit disc is the punctured disc minus the interval (-1, 0]
    axis = np.linspace(-0.999, 0.999, 1001)
    grid = [complex(a, b) for a in axis for b in (-0.5, -1e-9, 0.0, 1e-9, 0.5)]
    for z in grid:
        expected = contains(PuncturedDisc(), z) and not (z.imag == 0.0 and -1.0 < z.real <= 0.0)
        res.expect(
            contains(SlitDisc(), z) == expected,
            f"slit-disc membership wrong at {z!r}",
        )
    res.checks += 1
    return res


def suite_polynomials(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("weighted-polynomials")
    rng = np.random.default_rng(cfg.seed + 8)
    polys = [
        modulus_power(1, 0, 1),
        modulus_power(1, 0, 2),
        modulus_power(2, 0, 1) + modulus_power(2, 1, 1),
        WeightedPolynomial.from_terms(
            [Term((2,), (1,), 0.5), Term((1,), (2,), 0.5)], 1
        ),
    ]
    for poly in polys:
        for _ in range(2_500):
            w = tuple(complex(a, b) for a, b in rng.normal(size=(poly.nvars, 2)))
            poly_eval(poly, w)  # raises if the imaginary part exceeds tolerance
        res.checks += 1
    # randomized homogeneity: symbolic and numeric verdicts must agree
    for _ in range(50):
        m = int(rng.integers(2, 6))
        mt = Multitype((1, 2 * m))
        good = modulus_power(1, 0, m)
        res.expect(
            symbolic_weight_check(good, mt) and numeric_scaling_check(good, mt, 50, rng),
            f"homogeneous |z|^{2*m} rejected for multitype (1, {2*m})",
        )
        bad = good + modulus_power(1, 0, max(1, m - 1))
        res.expect(
            (not symbolic_weight_check(bad, mt)) and (not numeric_scaling_check(bad, mt, 200, rng)),
            f"inhomogeneous perturbation accepted for multitype (1, {2*m})",
        )
    return res


def suite_punctured_bounds(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("punctured-disc-bracket")
    rng = np.random.default_rng(cfg.seed + 9)
    for _ in range(1_000):
        p = float(rng.uniform(0.001, 0.999))
        est = invariants.fridman_bounds_punctured(p)
        res.expect(abs(est.lower - est.upper / 2.0) <= 1e-12, f"bracket ratio broken at p={p}")
        # quarter-turn rotations keep the modulus bit-exact
        exact = invariants.fridman_bounds_punctured(complex(0.0, p))
        res.expect(
            exact.lower == est.lower and exact.upper == est.upper,
            f"bracket not exactly invariant under a quarter turn at p={p}",
        )
        phase = float(rng.uniform(0.0, covering.TWO_PI))
        rotated = invariants.fridman_bounds_punctured(p * complex(math.cos(phase), math.sin(phase)))
        res.expect(
            abs(rotated.upper - est.upper) <= 1e-12 * est.upper,
            f"bracket not rotation invariant at p={p}",
        )
    grid = np.linspace(0.05, 0.99, 60)
    uppers = [invariants.fridman_bounds_punctured(float(p)).upper for p in grid]
    res.expect(
        all(b < a for a, b in zip(uppers, uppers[1:])),
        "upper bound is not decreasing in the modulus",
    )
    return res


def suite_fridman_estimators(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("embedding-estimators")
    search = invariants.RadiusSearch(tol=1e-7, samples=ESTIMATOR_SAMPLES, seed=cfg.seed)
    for n in range(2, 6):
        exact = invariants.fridman_exact(Polydisc(n), (0j,) * n)
        est = invariants.fridman_upper_from_embedding(
            Polydisc(n), (0j,) * n, invariants.ball_inclusion_into_polydisc(n), search
        )
        res.expect(
            abs(est.value - exact) <= 1e-4,
            f"polydisc estimator off by {abs(est.value - exact):.2e} at n={n}",
        )
    sq = invariants.squeezing_lower_from_embedding(
        Polydisc(2), (0j, 0j), invariants.scaled_polydisc_into_ball(2),
        invariants.RadiusSearch(r_max=1.0, tol=1e-7, samples=ESTIMATOR_SAMPLES, seed=cfg.seed),
    )
    res.expect(
        abs(sq.value - 1.0 / math.sqrt(2.0)) <= 1e-4,
        f"polydisc squeezing witness off by {abs(sq.value - 1/math.sqrt(2)):.2e}",
    )
    return res


def suite_alexander(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("centered-polydisc-in-ball-image")
    for n in (2, 3, 4):
        c = invariants.largest_centered_polydisc(
            invariants.ball_inclusion_into_polydisc(n), samples=ESTIMATOR_SAMPLES
        )
        res.expect(
            c <= 1.0 / math.sqrt(n) + 1e-6,
            f"polyradius {c} exceeds 1/sqrt({n}) + 1e-6",
        )
        res.expect(
            c >= 1.0 / math.sqrt(n) - 1e-5,
            f"polyradius {c} implausibly small against 1/sqrt({n})",
        )
    return res


def _round_trip_errors(family, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Largest coordinate error of ``inverse(forward(row))`` for every row,
    each through the dilation of the family that ``index`` names for it:
    one ``forward`` and one ``inverse`` call per dilation."""
    err = np.empty(len(rows))
    for k, dil in enumerate(family.dilations):
        sel = index == k
        back = np.column_stack(dil.inverse(dil.forward(rows[sel].T)))
        err[sel] = np.abs(back - rows[sel]).max(axis=1)
    return err


def suite_scaling(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("scaling-machinery")
    rng = np.random.default_rng(cfg.seed + 10)
    # round trips and normalization
    approach = scaling.BoundaryApproach.geometric((1.0,), (1.0,), 1, 12)
    fam = scaling.make_isotropic(scaling.disc_defining(), approach)
    mt = Multitype((1, 4))
    aniso_approach = scaling.BoundaryApproach.geometric((0j, 0j), (0j, 1.0), 1, 10)
    _, rate = scaling.tangential_modulus_remainder((6,), mt)
    aniso = scaling.make_anisotropic(modulus_power(1, 0, 2), mt, aniso_approach, (6,))
    for idx, p in enumerate(approach.points()):
        image = fam.dilations[idx].forward(p)
        res.expect(max(abs(u - v) for u, v in zip(image, fam.basepoint)) <= 1e-12, "isotropic normalization broken")
    for idx, p in enumerate(aniso_approach.points()):
        image = aniso.dilations[idx].forward(p)
        res.expect(max(abs(u - v) for u, v in zip(image, aniso.basepoint)) <= 1e-12, "anisotropic normalization broken")
    # 10,000 round trips of each kind, drawn as rows: one check per row
    z = rng.uniform(-2, 2, size=(10_000, 1)) + 1j * rng.uniform(-2, 2, size=(10_000, 1))
    err = _round_trip_errors(fam, z, rng.integers(len(fam), size=len(z)))
    for ok in (err <= 1e-12 * (1 + np.abs(z[:, 0]))).tolist():
        res.expect(ok, "isotropic round trip broken")
    zz = rng.uniform(-2, 2, size=(10_000, 2)) + 1j * rng.uniform(-2, 2, size=(10_000, 2))
    err = _round_trip_errors(aniso, zz, rng.integers(len(aniso), size=len(zz)))
    for ok in (err <= 1e-12 * 3).tolist():
        res.expect(ok, "anisotropic round trip broken")
    # Hausdorff decay on the planar disc family
    grid = scaling.complex_grid(-2, 2, 21)
    report = scaling.hausdorff_check(fam, grid, tol=1e-2)
    res.expect(report.passed, "disc family Hausdorff check failed")
    res.expect(
        report.slope is not None and abs(report.slope - 1.0) <= 0.15,
        f"disc family error slope {report.slope} not ~1",
    )
    # anisotropic remainder decay at the weight-calculus rate
    grid2 = [
        (complex(a, b), complex(c, d))
        for a in (-1.0, 0.5, 1.0)
        for b in (-1.0, 0.0, 1.0)
        for c in (-1.0, 0.0, 1.0)
        for d in (-0.5, 0.5)
    ]
    rep2 = scaling.hausdorff_check(aniso, grid2, tol=1e-1)
    res.expect(
        rep2.slope is not None and abs(rep2.slope - rate) <= 0.1,
        f"remainder slope {rep2.slope} away from predicted {rate}",
    )
    # dilation invariance of weight-one models
    res.expect(
        scaling.invariance_check(modulus_power(1, 0, 1), Multitype((1, 2)), 2_000, cfg.seed),
        "invariance rejected for |z|^2",
    )
    res.expect(
        not scaling.invariance_check(
            modulus_power(1, 0, 2) + modulus_power(1, 0, 1, 2.0), Multitype((1, 4)), 2_000, cfg.seed
        ),
        "invariance accepted for an inhomogeneous polynomial",
    )
    # metric ball inclusion along the disc family
    inc = scaling.ball_inclusion_check(fam, radius=1.0, eps=0.1, samples=100, seed=cfg.seed)
    res.expect(inc.passed, "ball inclusion never stabilized on the disc family")
    # punctured-disc boundary decay
    conv = scaling.convergence_experiment(
        PuncturedDisc(), scaling.BoundaryApproach.geometric((1.0,), (1.0,), 1, 10)
    )
    res.expect(conv.strictly_decreasing, "upper bound not strictly decreasing")
    return res


ALL_SUITES = [
    suite_halfplane_forms,
    suite_metric_axioms,
    suite_mobius_invariance,
    suite_vertical_line,
    suite_deck_oracle,
    suite_slit_circle_oracles,
    suite_punctured_metric,
    suite_domains,
    suite_polynomials,
    suite_punctured_bounds,
    suite_fridman_estimators,
    suite_alexander,
    suite_scaling,
]


def run_all(cfg: RunConfig | None = None) -> list[SuiteResult]:
    cfg = cfg or RunConfig()
    return [suite(cfg) for suite in ALL_SUITES]
