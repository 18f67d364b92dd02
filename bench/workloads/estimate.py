"""``estimate``: a fixed list of bisection estimator ops.

Why: ``invariants`` (witness ``validate`` plus the sphere tests),
``domains.sample_point``/``contains``, ``maps.Chain`` and
``metrics.sample_metric_sphere`` do the work; no distance is computed.
Every op runs at ``RadiusSearch.samples`` 256 and at 1024, which shifts the
split between validation (fixed 10,000 rounds) and the sphere tests.

Ops, each at both sample counts:

* ``fridman_upper_from_embedding`` on ``Polydisc(n)``, n = 2..5, with
  ``ball_inclusion_into_polydisc`` (KOBAYASHI);
* the same on ``PuncturedDisc`` at p = 0.2, 0.5, 0.8 (POINCARE), with
  ``slit_embedding_of_disc`` built inside the op, because a user pays its
  validation;
* ``squeezing_lower_from_embedding`` on polydisc 2 and 3;
* ``largest_centered_polydisc`` for n = 2..4.

The seed is the estimators' sampling seed.

Check, against closed forms written out here: polydisc values within 1e-4
of ``1/artanh(1/sqrt n)``; punctured values within 1e-5 of the slit
bracket's upper end ``1/asinh(-pi/log p)`` (0.7032585 at p = 0.2);
squeezing within 1e-4 of 1/sqrt(n); polyradius in
[1/sqrt(n) - 1e-5, 1/sqrt(n) + 1e-6].
"""

from __future__ import annotations

import math

from biholo import MetricMode, Polydisc, PuncturedDisc, invariants

from harness import Check, OpError

NAME = "estimate"
WHY = (
    "Chosen because invariants (witness validate, sphere tests), domains.sample_point/"
    "contains, maps.Chain and metrics.sample_metric_sphere do the work; no distance."
)
PREDICTIONS = {
    "item 1 (stable closed forms)": "unchanged",
    "item 2 (closed-form deck selection)": "unchanged: no distance is computed",
    "item 3 (observability)": "no metric worse",
    "item 4 (batch kernels)": "op_cost_ref down, ops_per_s up, op_p50_ms down (validate is 20-80% of an op)",
}

SAMPLES = (256, 1024)
PUNCTURED_MODULI = (0.2, 0.5, 0.8)


def _ops() -> list[tuple[str, str, float, int]]:
    ops = []
    for s in SAMPLES:
        ops += [("fridman", "polydisc", n, s) for n in range(2, 6)]
        ops += [("fridman", "punctured", p, s) for p in PUNCTURED_MODULI]
        ops += [("squeezing", "polydisc", n, s) for n in (2, 3)]
        ops += [("centered", "polydisc", n, s) for n in range(2, 5)]
    return ops


class Estimate:
    name = NAME

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.ops = _ops()
        self.labels = [f"{kind}.{domain}{arg}.s{s}" for kind, domain, arg, s in self.ops]

    def run(self, i: int) -> float:
        kind, domain, arg, samples = self.ops[i]
        if kind == "fridman" and domain == "polydisc":
            n = arg
            search = invariants.RadiusSearch(samples=samples, seed=self.seed)
            return invariants.fridman_upper_from_embedding(
                Polydisc(n), (0j,) * n, invariants.ball_inclusion_into_polydisc(n), search
            ).value
        if kind == "fridman":
            search = invariants.RadiusSearch(samples=samples, seed=self.seed)
            return invariants.fridman_upper_from_embedding(
                PuncturedDisc(),
                (complex(arg),),
                invariants.slit_embedding_of_disc(arg),
                search,
                MetricMode.POINCARE,
            ).value
        if kind == "squeezing":
            n = arg
            search = invariants.RadiusSearch(r_max=1.0, samples=samples, seed=self.seed)
            return invariants.squeezing_lower_from_embedding(
                Polydisc(n), (0j,) * n, invariants.scaled_polydisc_into_ball(n), search
            ).value
        return invariants.largest_centered_polydisc(
            invariants.ball_inclusion_into_polydisc(arg), samples=samples, seed=self.seed
        )

    def expected(self, i: int) -> tuple[float, float, float]:
        """(expected value, allowed excess below, allowed excess above)."""
        kind, domain, arg, _ = self.ops[i]
        if kind == "fridman" and domain == "polydisc":
            # fridman_exact in KOBAYASHI normalization
            return 1.0 / math.atanh(1.0 / math.sqrt(arg)), 1e-4, 1e-4
        if kind == "fridman":
            # upper end 1/r of the bracket, r = asinh(-pi / log p) the
            # POINCARE distance from p to the slit
            return 1.0 / math.asinh(-math.pi / math.log(arg)), 1e-5, 1e-5
        if kind == "squeezing":
            return 1.0 / math.sqrt(arg), 1e-4, 1e-4
        return 1.0 / math.sqrt(arg), 1e-5, 1e-6

    def check(self, records) -> Check:
        failed = 0
        messages = []
        for i, out in records:
            value, below, above = self.expected(i)
            if isinstance(out, OpError) or not (isinstance(out, float) and value - below <= out <= value + above):
                failed += 1
                messages.append(f"{self.labels[i]}: {out!r}, expected {value!r}")
        return Check(failed, messages)


def build(seed: int, workdir) -> Estimate:
    return Estimate(seed, workdir)
