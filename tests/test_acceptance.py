"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing defers to later calibration.
"""

import math

import numpy as np

from biholo.covering import (
    TWO_PI,
    deck_minimum,
    deck_minimum_enumerated,
    grid_circle_supremum,
    grid_slit_distance,
    slit_distance,
)
from biholo.domains import Ball, Multitype, Polydisc, PuncturedDisc, UpperHalfPlane, modulus_power
from biholo.hyperbolic import MetricMode, halfplane_distance, halfplane_distance_acosh
from biholo.metrics import kobayashi_distance
from biholo.invariants import (
    RadiusSearch,
    ball_inclusion_into_polydisc,
    fridman_bounds_punctured,
    fridman_exact,
    fridman_upper_from_embedding,
    largest_centered_polydisc,
    scaled_polydisc_into_ball,
    squeezing_exact,
    squeezing_lower_from_embedding,
)
from biholo.scaling import (
    BoundaryApproach,
    ball_inclusion_check,
    complex_grid,
    convergence_experiment,
    hausdorff_check,
    invariance_check,
    make_isotropic,
)

P_UNIT = math.exp(-math.pi)
# the library is Kobayashi throughout; criteria stated in Poincare units
# (curvature -1, twice the distances, half the Fridman values) convert by this
POINCARE = MetricMode.POINCARE.factor


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_polydisc_invariant_and_witness():
    """Closed-form polydisc invariant, reproduced by the inclusion witness."""
    worst_exact = 0.0
    worst_est = 0.0
    search = RadiusSearch(tol=1e-7, samples=256, seed=0)
    for n in range(2, 7):
        expected = 2.0 / math.log((math.sqrt(n) + 1.0) / (math.sqrt(n) - 1.0))
        got = fridman_exact(Polydisc(n), (0j,) * n)
        worst_exact = max(worst_exact, abs(got - expected))
        est = fridman_upper_from_embedding(
            Polydisc(n), (0j,) * n, ball_inclusion_into_polydisc(n), search
        )
        worst_est = max(worst_est, abs(est.value - expected))
    ok = worst_exact <= 1e-12 and worst_est <= 1e-4
    assert report(
        1, ok, f"exact err {worst_exact:.2e} (tol 1e-12), witness err {worst_est:.2e} (tol 1e-4)"
    )


def test_criterion_02_punctured_bracket():
    """L = U/2 exactly; U(e^-pi) = 2/log(1+sqrt2); divergence at the puncture."""
    rng = np.random.default_rng(0)
    worst_ratio = 0.0
    for _ in range(1000):
        est = fridman_bounds_punctured(float(rng.uniform(1e-3, 1.0 - 1e-3)))
        worst_ratio = max(worst_ratio, abs(est.lower - est.upper / 2.0))
    u_unit = fridman_bounds_punctured(P_UNIT).upper
    unit_err = abs(u_unit - 2.0 / math.log(1.0 + math.sqrt(2.0)))
    seq = [fridman_bounds_punctured(10.0**-k) for k in range(1, 7)]
    monotone = all(
        b.upper > a.upper and b.lower > a.lower for a, b in zip(seq, seq[1:])
    )
    ok = worst_ratio <= 2e-12 and unit_err <= 2e-9 and monotone
    assert report(
        2,
        ok,
        f"L=U/2 err {worst_ratio:.2e} (tol 2e-12), U(e^-pi) err {unit_err:.2e} (tol 2e-9), "
        f"divergence monotone: {monotone}",
    )


def test_criterion_03_deck_oracle():
    """Deck closed form equals enumeration over k in [-100, 100]."""
    rng = np.random.default_rng(1)
    worst = 0.0
    # offsets up to pi, where the direct translate is the deck infimum;
    # larger offsets wrap (deck index -1) and are pinned separately below
    for _ in range(1000):
        p = float(rng.uniform(0.01, 0.99))
        theta = float(rng.uniform(0.0, math.pi))
        worst = max(worst, abs(deck_minimum(p, theta) - deck_minimum_enumerated(p, theta)))
    worst_wrap = 0.0
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.99))
        theta = float(rng.uniform(math.pi, TWO_PI))
        worst_wrap = max(
            worst_wrap,
            abs(deck_minimum(p, TWO_PI - theta) - deck_minimum_enumerated(p, theta)),
        )
    zero = deck_minimum(0.5, 0.0)
    ok = worst <= 5e-13 and worst_wrap <= 5e-13 and zero == 0.0
    assert report(
        3,
        ok,
        f"enumeration err {worst:.2e}, wrapped err {worst_wrap:.2e} (tol 5e-13), "
        f"theta=0 -> {zero}",
    )


def test_criterion_04_slit_and_circle_oracles():
    """Grid minimization/supremum oracles and the s = 2r identity."""
    worst_slit = max(
        abs(slit_distance(p) - grid_slit_distance(p)) for p in (P_UNIT, 0.4, 0.9)
    )
    worst_sup = 0.0
    for p in (P_UNIT, 0.5):
        sup, _ = grid_circle_supremum(p)
        worst_sup = max(worst_sup, abs(sup - deck_minimum(p, TWO_PI)))
    rng = np.random.default_rng(2)
    worst_ratio = max(
        abs(deck_minimum(p, TWO_PI) - 2.0 * slit_distance(p))
        for p in rng.uniform(0.01, 0.99, 1000)
    )
    ok = worst_slit <= 5e-5 and worst_sup <= 5e-5 and worst_ratio <= 5e-13
    assert report(
        4,
        ok,
        f"slit grid err {worst_slit:.2e} (tol 5e-5), circle grid err {worst_sup:.2e} "
        f"(tol 5e-5), s-2r err {worst_ratio:.2e} (tol 5e-13)",
    )


def test_criterion_05_halfplane_form_vs_acosh():
    """Log-ratio form vs the acosh oracle, and the exact mode factor."""
    rng = np.random.default_rng(3)
    worst = 0.0
    factor_exact = True
    halfplane = UpperHalfPlane()
    for _ in range(10_000):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        w = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        d = halfplane_distance(z, w)
        worst = max(worst, abs(d - halfplane_distance_acosh(z, w)))
        factor_exact &= kobayashi_distance(halfplane, z, w, MetricMode.POINCARE) == 2.0 * d
    ok = worst <= 5e-13 and factor_exact
    assert report(
        5, ok, f"acosh err {worst:.2e} (tol 5e-13), factor-2 exact: {factor_exact}"
    )


def test_criterion_06_planar_scaling():
    """Defining-function decay at unit slope, and stabilized ball inclusion."""
    approach = BoundaryApproach.geometric((1.0,), (1.0,), 3, 12)
    family = make_isotropic(Ball(1), approach)
    hausdorff = hausdorff_check(family, complex_grid(-2, 2, 21), tol=1e-2)
    inclusion = ball_inclusion_check(family, radius=1.0 / POINCARE, eps=0.1 / POINCARE, samples=120, seed=0)
    stabilized = inclusion.passed and all(
        row.inside for row in inclusion.rows if row.j >= inclusion.j0
    )
    ok = (
        hausdorff.passed
        and hausdorff.slope is not None
        and abs(hausdorff.slope - 1.0) <= 0.15
        and stabilized
    )
    assert report(
        6,
        ok,
        f"sup-error slope {hausdorff.slope:.3f} (1.0 +/- 0.15), final err "
        f"{hausdorff.rows[-1].sup_error:.2e} < 1e-2, ball inclusion j0={inclusion.j0}",
    )


def test_criterion_07_dilation_invariance():
    """Weight-one models are dilation invariant; the counterexample is not."""
    cases = [
        (modulus_power(1, 0, 1), Multitype((1, 2))),
        (modulus_power(1, 0, 2), Multitype((1, 4))),
        (modulus_power(2, 0, 1) + modulus_power(2, 1, 1), Multitype((1, 2, 2))),
    ]
    good = all(invariance_check(p, m, trials=10_000, seed=0) for p, m in cases)
    bad = invariance_check(
        modulus_power(1, 0, 2) + modulus_power(1, 0, 1, 2.0),
        Multitype((1, 4)),
        trials=10_000,
        seed=0,
    )
    ok = good and not bad
    assert report(
        7, ok, f"homogeneous cases invariant: {good}, inhomogeneous rejected: {not bad}"
    )


def test_criterion_08_boundary_decay():
    """Upper bound decays along p = 1 - 2^-j; U(0.9) and U(0.99) pinned;
    U first drops below 0.12 at j = 10.

    U(p) = 1/asinh(-pi/log p) is the reciprocal of the slit distance in
    Poincare units, half the Kobayashi value the library returns.  Its value
    at 0.99 is 0.155327, which the grid oracle reproduces.  U crosses 0.12
    at |p*| = exp(-pi/sinh(1/0.12)) = 0.998491, which lies between rows
    j = 9 (|p| = 0.998047) and j = 10 (|p| = 0.999023).
    """
    approach = BoundaryApproach.geometric((1.0,), (1.0,), 1, 12)
    table = convergence_experiment(PuncturedDisc(), approach)
    u_09 = 1.0 / (POINCARE * slit_distance(0.9))
    u_099 = 1.0 / (POINCARE * slit_distance(0.99))
    u_099_grid = 1.0 / (POINCARE * grid_slit_distance(0.99))
    grid_rel = abs(u_099_grid - u_099) / u_099
    uppers = [(row.j, row.upper_bound / POINCARE) for row in table.rows]
    below = [j for j, u in uppers if u < 0.12]
    above = [j for j, u in uppers if u > 0.12]
    decay_ok = table.strictly_decreasing and abs(u_09 - 0.2446) <= 1e-3
    pin_ok = abs(u_099 - 0.155327) <= 1e-6
    grid_ok = grid_rel <= 1e-9
    crossing_ok = below == list(range(10, 13)) and above == list(range(1, 10))
    ok = decay_ok and pin_ok and grid_ok and crossing_ok
    report(
        8,
        ok,
        f"strictly decreasing: {table.strictly_decreasing}, U(0.9)={u_09:.6f} "
        f"(0.2446 +/- 1e-3), U(0.99)={u_099:.6f} (0.155327 +/- 1e-6, grid "
        f"oracle rel err {grid_rel:.1e}, tol 1e-9), rows below 0.12: j={below} "
        f"(exactly j >= 10 required)",
    )
    assert decay_ok, (
        f"strictly decreasing: {table.strictly_decreasing}, "
        f"U(0.9) = {u_09:.6f} (0.2446 +/- 1e-3 required)"
    )
    assert pin_ok, f"U(0.99) = {u_099:.9f}; 0.155327 +/- 1e-6 required"
    assert grid_ok, (
        f"U(0.99) = {u_099:.12f} but the grid oracle gives {u_099_grid:.12f} "
        f"(rel err {grid_rel:.1e}, tol 1e-9)"
    )
    assert crossing_ok, (
        f"rows with U < 0.12: j = {below}, U > 0.12: j = {above}; the crossing "
        "|p*| = 0.998491 lies between j = 9 and j = 10"
    )


def test_criterion_09_centered_polydisc_cap():
    """No shipped ball-to-polydisc witness image holds a polydisc wider
    than polyradius 1/sqrt(n)."""
    worst = -1.0
    details = []
    for n in (2, 3, 4):
        c = largest_centered_polydisc(ball_inclusion_into_polydisc(n), samples=128)
        excess = c - 1.0 / math.sqrt(n)
        worst = max(worst, excess)
        details.append(f"n={n}: {c:.7f}")
    ok = worst <= 1e-6
    assert report(9, ok, f"max excess over 1/sqrt(n): {worst:.2e} (tol 1e-6); " + ", ".join(details))


def test_criterion_10_squeezing():
    """Ball squeezing is 1; the scaled polydisc witness certifies 1/sqrt 2."""
    exact_ok = all(squeezing_exact(Ball(n)) == 1.0 for n in (2, 3, 5))
    est = squeezing_lower_from_embedding(
        Polydisc(2),
        (0j, 0j),
        scaled_polydisc_into_ball(2),
        RadiusSearch(r_max=1.0, tol=1e-7, samples=256, seed=0),
    )
    err = abs(est.value - 1.0 / math.sqrt(2.0))
    ok = exact_ok and err <= 1e-4
    assert report(
        10, ok, f"ball squeezing exact: {exact_ok}, polydisc witness err {err:.2e} (tol 1e-4)"
    )
