"""Closed-form vs brute-force verification suites.

Each suite re-derives a closed form by an independent route (enumeration,
grid search, finite differences, direct set arithmetic) and compares.
Distances are Kobayashi, as the library returns them, so an absolute
tolerance on a distance is half the one a Poincare distance would take.
`run_all` drives every suite with one configuration; the CLI `verify`
subcommand prints one line per suite.

A suite draws its random inputs as rows, in one generator call whose C
order is the order of one scalar draw after another, so the inputs are
those of a scalar loop, bit for bit.  The production paths a suite checks
(`halfplane_distance`, `deck_minimum`, `punctured_distance`, `contains`
and the rest) are called point by point.  The oracles and checks run as
array kernels, one call on all of a suite's rows: the acosh form on the
10,000 half-plane pairs, the deck enumeration on each group of rows,
`poly_eval` on each polynomial's 2,500 points as columns, and
`numeric_scaling_check` on all its trials.  The grid searches (the heights
of the vertical-line suite, the grids of `covering.grid_slit_distance` and
`covering.grid_circle_supremum`) and the deck enumeration's rows of
translates are swept block by block, never built whole; the grids give the
extremum of the one grid bit for bit.
`SuiteResult.expect_rows` then makes one check per row and formats a
message only for the rows that fail.
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
    _acosh_form,
    _geomspace_blocks,
    _s_rows,
    disc_distance,
    halfplane_distance,
    halfplane_distance_acosh,
    vertical_line_distance,
)
from .metrics import kobayashi_distance

__all__ = ["RunConfig", "SuiteResult", "ALL_SUITES", "run_all"]


@dataclass(frozen=True)
class RunConfig:
    """The seed of the suites; each oracle runs at its default size."""

    seed: int = 0


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

    def expect_rows(self, ok: np.ndarray, message) -> None:
        """One check per entry of the boolean array ``ok``; ``message(k)``
        formats the failure of entry ``k`` and is called only for the
        entries that fail."""
        ok = np.asarray(ok, dtype=bool)
        self.checks += ok.size
        self.failures.extend(message(k) for k in np.flatnonzero(~ok).tolist())


def suite_halfplane_forms(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("halfplane-closed-form-vs-acosh")
    rng = np.random.default_rng(cfg.seed)
    rows = rng.uniform([-5, 0.05], 5, size=(10_000, 2, 2)).view(np.complex128)[..., 0]
    pairs = rows.tolist()
    d1 = np.array([halfplane_distance(z, w) for z, w in pairs])
    gap = np.abs(d1 - halfplane_distance_acosh(rows[:, 0], rows[:, 1]))
    res.expect_rows(gap <= 5e-13, lambda k: f"closed form deviates from acosh by {gap[k]:.3e} at {tuple(pairs[k])}")
    (z, w), last = pairs[-1], float(d1[-1])
    edge = kobayashi_distance(UpperHalfPlane(), z, w, MetricMode.POINCARE)
    res.expect(edge == 2.0 * last, f"POINCARE distance {edge!r} is not exactly twice the Kobayashi {last!r}")
    # the disc form against the half-plane form through the Cayley map
    cayley = lambda a: 1j * (1.0 + a) / (1.0 - a)
    for a, b in (((0.2 + 0.1j), (-0.5 + 0.4j)), ((0.0j), (0.3 - 0.2j))):
        dd, dh = disc_distance(a, b), halfplane_distance(cayley(a), cayley(b))
        res.expect(abs(dd - dh) <= 5e-13, f"disc and half-plane forms differ by {abs(dd - dh):.3e} at {(a, b)}")
    return res


def suite_metric_axioms(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("metric-axioms")
    rng = np.random.default_rng(cfg.seed + 1)
    points = rng.uniform([-3, 0.1], 3, size=(1_000, 3, 2)).view(np.complex128)[..., 0].tolist()
    d = np.array(
        [
            (halfplane_distance(z, w), halfplane_distance(w, z), halfplane_distance(w, u), halfplane_distance(z, u))
            for z, w, u in points
        ]
    )
    res.expect_rows(np.abs(d[:, 0] - d[:, 1]) <= 5e-13, lambda k: f"asymmetric at {tuple(points[k][:2])}")
    slack = d[:, 0] + d[:, 2] - d[:, 3]
    res.expect_rows(slack >= -5e-11, lambda k: f"triangle violated by {slack[k]:.3e} at {tuple(points[k])}")
    res.expect(halfplane_distance(1j, 1j) == 0.0, "nonzero self-distance")
    return res


def suite_mobius_invariance(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("mobius-invariance")
    rng = np.random.default_rng(cfg.seed + 2)
    # z, w, |a|, the sign of a, b and c of each map, in one draw
    draws = rng.uniform([-3, 0.1, -3, 0.1, 0.5, 0, -2, -2], [3, 3, 3, 3, 2, 1, 2, 2], size=(1_000, 8)).tolist()
    maps, gaps = [], []
    for zr, zi, wr, wi, size, sign, b, c in draws:
        z, w = complex(zr, zi), complex(wr, wi)
        a = size if sign < 0.5 else -size
        d = (1.0 + b * c) / a
        mz = (a * z + b) / (c * z + d)
        mw = (a * w + b) / (c * w + d)
        maps.append((a, b, c, d))
        gaps.append(abs(halfplane_distance(z, w) - halfplane_distance(mz, mw)))
    res.expect_rows(np.array(gaps) <= 5e-11, lambda k: f"not invariant under {maps[k]}")
    return res


def suite_vertical_line(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("vertical-line-foot")
    rng = np.random.default_rng(cfg.seed + 3)
    queries = rng.uniform([-4, 0.2, -4], 4, size=(12, 3)).tolist()
    # the smallest s of each query over the line's heights, one block of
    # heights at a time; the acosh form is increasing in s, so it is applied
    # once, at that smallest s
    s_min = np.full(len(queries), math.inf)
    for ts in _geomspace_blocks(1e-3, 100.0, 1_000_000):
        s_min = np.minimum(s_min, [_s_rows(x - c, y, ts).min() for x, y, c in queries])
    found = []
    for (x, y, c), s in zip(queries, s_min.tolist()):
        z = complex(x, y)
        found.append((vertical_line_distance(z, c), _acosh_form(s), halfplane_distance(z, complex(c, abs(z - c)))))
    d_foot, grid_min, at_foot = np.array(found).T
    res.expect_rows(
        d_foot <= grid_min + 5e-13,
        lambda k: f"foot distance {d_foot[k]} above a sampled line point {grid_min[k]}",
    )
    res.expect_rows(np.abs(d_foot - grid_min) <= 5e-6, lambda k: f"grid min off by {abs(d_foot[k] - grid_min[k]):.2e}")
    res.expect_rows(np.abs(at_foot - d_foot) <= 5e-7, lambda k: "distance not attained at the orthogonal foot")
    return res


def suite_deck_oracle(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("deck-closed-form-vs-enumeration")
    rng = np.random.default_rng(cfg.seed + 4)
    two_pi = covering.TWO_PI
    # the closed form is the deck infimum on offsets up to pi; past that the
    # infimum wraps around the puncture, to the closed form at 2 pi - theta
    for count, low, high, wraps in ((1_000, 0.0, math.pi, False), (200, math.pi, two_pi, True)):
        drawn = rng.uniform([0.01, low], [0.99, high], size=(count, 2))
        rows = drawn.tolist()
        closed = np.array([covering.deck_minimum(p, two_pi - t if wraps else t) for p, t in rows])
        brute = covering.deck_minimum_enumerated(*drawn.T)
        metric = [covering.punctured_distance(p, p * complex(math.cos(t), math.sin(t))) for p, t in rows]
        at = lambda k: "at p={}, theta={}".format(*rows[k])
        res.expect_rows(np.abs(closed - brute) <= 5e-13, lambda k: f"deck enumeration differs {at(k)}")
        res.expect_rows(np.abs(metric - closed) <= 5e-13, lambda k: f"punctured distance differs {at(k)}")
    res.expect(covering.deck_minimum(0.3, 0.0) == 0.0, "zero offset must give zero")
    return res


def suite_slit_circle_oracles(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("slit-and-circle-oracles")
    rng = np.random.default_rng(cfg.seed + 5)
    two_pi = covering.TWO_PI
    ps = (math.exp(-math.pi), 0.2, 0.5, 0.9)
    slit_gap = np.array([abs(covering.slit_distance(p) - covering.grid_slit_distance(p)) for p in ps])
    sups = [covering.grid_circle_supremum(p) for p in ps]
    sup_gap = np.array([abs(covering.deck_minimum(p, two_pi) - s) for p, (s, _) in zip(ps, sups)])
    res.expect_rows(slit_gap <= 5e-5, lambda k: f"slit distance off by {slit_gap[k]:.2e} at p={ps[k]}")
    res.expect_rows(sup_gap <= 5e-5, lambda k: f"deck translation length off by {sup_gap[k]:.2e} at p={ps[k]}")
    res.expect_rows(
        np.array([arg for _, arg in sups]) > two_pi - 1e-3,
        lambda k: f"deck translation length grid maximum at theta={sups[k][1]}, not at the far end",
    )
    drawn = rng.uniform(0.01, 0.99, size=1_000).tolist()
    gap = np.array([abs(covering.deck_minimum(p, two_pi) - 2.0 * covering.slit_distance(p)) for p in drawn])
    res.expect_rows(gap <= 5e-13, lambda k: f"deck translation length is not twice the slit distance at p={drawn[k]}")
    return res


def suite_punctured_metric(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("punctured-disc-metric")
    rng = np.random.default_rng(cfg.seed + 6)
    dist = covering.punctured_distance
    d = np.array(
        [
            (dist(p, q), dist(q, p), dist(q, u), dist(p, u), disc_distance(p, q))
            for p, q, u in sample_rows(PuncturedDisc(), rng, 600).reshape(200, 3).tolist()
        ]
    )
    res.expect_rows(np.abs(d[:, 0] - d[:, 1]) <= 5e-13, lambda k: "asymmetric")
    slack = d[:, 0] + d[:, 2] - d[:, 3]
    res.expect_rows(slack >= -5e-11, lambda k: f"triangle violated by {slack[k]:.2e}")
    res.expect_rows(d[:, 0] >= d[:, 4] - 5e-13, lambda k: "inclusion into the disc must not increase distances")
    return res


def _independent_membership(domain, rows: np.ndarray) -> np.ndarray:
    """Membership of every row (shape ``[m, dim]``) by numpy formulas of the
    domain's own, not through its ``defining`` function."""
    first, last = rows[:, 0], rows[:, -1]
    if isinstance(domain, Ball):
        return (np.abs(rows) ** 2).sum(axis=1) < 1.0
    if isinstance(domain, Polydisc):
        return (np.abs(rows) < 1.0).all(axis=1)
    if isinstance(domain, UpperHalfPlane):
        return first.imag > 0
    if isinstance(domain, HalfPlaneC):
        return (domain.linear_coeff * first).real < 0.5
    if isinstance(domain, PuncturedDisc):
        return (0.0 < np.abs(first)) & (np.abs(first) < 1.0)
    if isinstance(domain, SlitDisc):
        on_slit = (first.imag == 0.0) & (-1.0 < first.real) & (first.real <= 0.0)
        return (np.abs(first) < 1.0) & ~on_slit
    if isinstance(domain, Siegel):
        return 2.0 * last.real + (np.abs(rows[:, :-1]) ** 2).sum(axis=1) < 0.0
    if isinstance(domain, WeightedModel):
        w = rows[:, :-1]
        value = sum(t.coeff * np.prod(w**t.alpha * w.conj() ** t.beta, axis=1) for t in domain.poly.terms)
        return 2.0 * last.real + value.real < 0.0
    raise ValueError(domain)


def suite_domains(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("domain-membership")
    rng = np.random.default_rng(cfg.seed + 7)
    model = WeightedModel(Multitype((1, 4)), modulus_power(1, 0, 2))
    punctured, slit_disc = PuncturedDisc(), SlitDisc()
    variants = [
        Ball(2),
        Polydisc(2),
        UpperHalfPlane(),
        HalfPlaneC(1.0 + 0.5j),
        punctured,
        slit_disc,
        Siegel(2),
        model,
    ]
    bad = []
    for dom in variants:
        # sampled points alternate with points of the box [-1.6, 1.6]^(2n)
        rows = np.empty((10_000, dom.dim), dtype=complex)
        rows[0::2] = sample_rows(dom, rng, 5_000)
        rows[1::2] = rng.uniform(-1.6, 1.6, size=(5_000, dom.dim, 2)).view(np.complex128)[..., 0]
        if isinstance(dom, SlitDisc):
            slit_samples = rows[0::2, 0]
        # the scalar path, point by point, against the independent formulas
        # and against the batch path, on the same points
        scalar = np.array([contains(dom, tuple(pt)) for pt in rows.tolist()])
        bad.append(np.count_nonzero(scalar != _independent_membership(dom, rows)))
        bad[-1] += np.count_nonzero(contains_rows(dom, rows) != scalar)
    res.expect_rows(np.array(bad) == 0, lambda k: f"{bad[k]} membership mismatches for {variants[k]!r}")
    # the slit disc is the punctured disc minus the interval (-1, 0]
    grid = np.empty((1001, 5), dtype=complex)
    grid.real = np.linspace(-0.999, 0.999, 1001)[:, None]
    grid.imag = (-0.5, -1e-9, 0.0, 1e-9, 0.5)
    grid = grid.ravel()
    points = grid.tolist()
    on_slit = (grid.imag == 0.0) & (-1.0 < grid.real) & (grid.real <= 0.0)
    expected = np.array([contains(punctured, z) for z in points]) & ~on_slit
    slit = np.array([contains(slit_disc, z) for z in points])
    res.expect_rows(slit == expected, lambda k: f"slit-disc membership wrong at {points[k]!r}")
    # the slit-disc sampler draws from the punctured disc off the slit
    off_slit = (slit_samples.imag != 0.0) | (slit_samples.real > 0.0)
    modulus = np.abs(slit_samples)
    stray = int(np.count_nonzero(~((modulus > 0.0) & (modulus < 1.0) & off_slit)))
    res.expect(stray == 0, f"{stray} sampled slit-disc points off the punctured disc or on the slit")
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
    errors = []
    for poly in polys:
        errors.append(None)
        try:
            # all 2,500 points as columns; raises if an imaginary part exceeds tolerance
            poly_eval(poly, rng.normal(size=(2_500, poly.nvars, 2)).view(np.complex128)[..., 0].T)
        except ValueError as exc:
            errors[-1] = exc
    res.expect_rows(
        np.array([e is None for e in errors]),
        lambda k: f"{polys[k]!r} does not evaluate to real values: {errors[k]}",
    )
    # randomized homogeneity: symbolic and numeric verdicts must agree
    ms, accepted, rejected = [], [], []
    for _ in range(50):
        m = int(rng.integers(2, 6))
        mt = Multitype((1, 2 * m))
        good = modulus_power(1, 0, m)
        bad = good + modulus_power(1, 0, max(1, m - 1))
        ms.append(m)
        accepted.append(symbolic_weight_check(good, mt) and numeric_scaling_check(good, mt, 50, rng))
        rejected.append((not symbolic_weight_check(bad, mt)) and (not numeric_scaling_check(bad, mt, 200, rng)))
    res.expect_rows(accepted, lambda k: f"homogeneous |z|^{2 * ms[k]} rejected for multitype (1, {2 * ms[k]})")
    res.expect_rows(rejected, lambda k: f"inhomogeneous perturbation accepted for multitype (1, {2 * ms[k]})")
    return res


def suite_punctured_bounds(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("punctured-disc-bracket")
    rng = np.random.default_rng(cfg.seed + 9)
    rows = rng.uniform([0.001, 0.0], [0.999, covering.TWO_PI], size=(1_000, 2)).tolist()
    bounds = []
    for p, phase in rows:
        est = invariants.fridman_bounds_punctured(p)
        # quarter-turn rotations keep the modulus bit-exact
        exact = invariants.fridman_bounds_punctured(complex(0.0, p))
        rotated = invariants.fridman_bounds_punctured(p * complex(math.cos(phase), math.sin(phase)))
        bounds.append((est.lower, est.upper, exact.lower, exact.upper, rotated.upper))
    lower, upper, exact_lower, exact_upper, rotated = np.array(bounds).T
    at = lambda k: f"at p={rows[k][0]}"
    res.expect_rows(np.abs(lower - upper / 2.0) <= 2e-12, lambda k: f"bracket ratio broken {at(k)}")
    res.expect_rows(
        (exact_lower == lower) & (exact_upper == upper),
        lambda k: f"bracket not exactly invariant under a quarter turn {at(k)}",
    )
    res.expect_rows(np.abs(rotated - upper) <= 1e-12 * upper, lambda k: f"bracket not rotation invariant {at(k)}")
    grid = np.linspace(0.05, 0.99, 60)
    uppers = [invariants.fridman_bounds_punctured(float(p)).upper for p in grid]
    res.expect(
        all(b < a for a, b in zip(uppers, uppers[1:])),
        "upper bound is not decreasing in the modulus",
    )
    return res


def suite_fridman_estimators(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("embedding-estimators")
    for n in range(2, 6):
        exact = invariants.fridman_exact(Polydisc(n), (0j,) * n)
        witness = invariants.ball_inclusion_into_polydisc(n)
        est = invariants.fridman_upper_from_embedding(Polydisc(n), (0j,) * n, witness)
        res.expect(
            abs(est.value - exact) <= 1e-12 * exact,
            f"polydisc estimator off by {abs(est.value - exact) / exact:.2e} relative at n={n}",
        )
    sq = invariants.squeezing_lower_from_embedding(Polydisc(2), (0j, 0j), invariants.scaled_polydisc_into_ball(2))
    res.expect(
        abs(sq.value * math.sqrt(2.0) - 1.0) <= 1e-12,
        f"polydisc squeezing witness off by {abs(sq.value * math.sqrt(2.0) - 1.0):.2e} relative",
    )
    return res


def suite_alexander(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("centered-polydisc-in-ball-image")
    for n in (2, 3, 4):
        c = invariants.largest_centered_polydisc(invariants.ball_inclusion_into_polydisc(n))
        res.expect(
            c * math.sqrt(n) <= 1.0 + 1e-12,
            f"polyradius {c} exceeds 1/sqrt({n}) by more than 1e-12 relative",
        )
        res.expect(
            c * math.sqrt(n) >= 1.0 - 1e-12,
            f"polyradius {c} falls short of 1/sqrt({n}) by more than 1e-12 relative",
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
    for family, kind in ((fam, "isotropic"), (aniso, "anisotropic")):
        for dil, p in zip(family.dilations, family.approach.points()):
            gap = max(abs(u - v) for u, v in zip(dil.forward(p), family.basepoint))
            res.expect(gap <= 1e-12, f"{kind} normalization broken")
    # 10,000 round trips of each kind, drawn as rows: one check per row
    z = rng.uniform(-2, 2, size=(10_000, 1)) + 1j * rng.uniform(-2, 2, size=(10_000, 1))
    err = _round_trip_errors(fam, z, rng.integers(len(fam), size=len(z)))
    res.expect_rows(err <= 1e-12 * (1 + np.abs(z[:, 0])), lambda k: f"isotropic round trip off by {err[k]:.2e}")
    zz = rng.uniform(-2, 2, size=(10_000, 2)) + 1j * rng.uniform(-2, 2, size=(10_000, 2))
    err = _round_trip_errors(aniso, zz, rng.integers(len(aniso), size=len(zz)))
    res.expect_rows(err <= 1e-12 * 3, lambda k: f"anisotropic round trip off by {err[k]:.2e}")
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
    inc = scaling.ball_inclusion_check(fam, radius=0.5, eps=0.05, samples=100, seed=cfg.seed)
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
