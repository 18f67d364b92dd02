"""``verify``: ``biholo.verify`` at the default ``RunConfig``; one op is one
suite, a pass is ``run_all``.

Why: it is the only workload that runs the oracles (deck enumeration, grid
slit and circle searches, independent membership), and ROADMAP's first
meaning of "end to end".  Changes that move work between production code
and the oracles show only here.  A single pass spreads ~15%, so the
benchmark reports medians over several passes.

The inputs are the suites' defaults (``RunConfig().seed`` = 0), whatever
the benchmark seed: the check counts are pinned at that config.

Check: every suite passes, and each of the 13 suites makes exactly the
number of checks it makes at the seed commit (45,212 in total).
"""

from __future__ import annotations

from biholo import verify

from harness import Check, OpError

NAME = "verify"
WHY = (
    "Chosen because it is the only workload that runs the oracles, and ROADMAP's "
    "first meaning of end to end; work moved between production and oracles shows here."
)
PREDICTIONS = {
    "item 1 (stable closed forms)": "unchanged (a new relative-error suite adds its own op)",
    "item 2 (closed-form deck selection)": "op_cost_ref down, ops_per_s up (deck suite 1.1 s, punctured-metric suite)",
    "item 3 (observability)": "no metric worse",
    "item 4 (batch kernels)": "op_cost_ref down, ops_per_s up (domain-membership, estimator and scaling suites)",
}

CHECKS = {
    "halfplane-closed-form-vs-acosh": 10_003,
    "metric-axioms": 2_001,
    "mobius-invariance": 1_000,
    "vertical-line-foot": 36,
    "deck-closed-form-vs-enumeration": 2_401,
    "slit-and-circle-oracles": 1_012,
    "punctured-disc-metric": 600,
    "domain-membership": 5_014,
    "weighted-polynomials": 104,
    "punctured-disc-bracket": 3_001,
    "embedding-estimators": 5,
    "centered-polydisc-in-ball-image": 6,
    "scaling-machinery": 20_029,
}


class Verify:
    name = NAME

    def __init__(self, seed: int, workdir) -> None:
        self.config = verify.RunConfig()
        self.suites = list(verify.ALL_SUITES)
        self.labels = [suite.__name__ for suite in self.suites]

    def run(self, i: int):
        return self.suites[i](self.config)

    def check(self, records) -> Check:
        failed = 0
        messages = []
        seen = set()
        for i, res in records:
            if isinstance(res, OpError):
                problem = f"raised {res.kind}: {res.message}"
            elif not res.passed:
                problem = f"{res.name} failed: {res.failures[:3]}"
            elif res.name in CHECKS and res.checks != CHECKS[res.name]:
                problem = f"{res.name} made {res.checks} checks, expected {CHECKS[res.name]}"
            else:
                seen.add(res.name)
                continue
            failed += 1
            messages.append(f"{self.labels[i]}: {problem}")
        missing = sorted(set(CHECKS) - seen)
        whole_pass = {i for i, _ in records} == set(range(len(self.labels)))
        if whole_pass and missing and not failed:
            failed += 1
            messages.append(f"suites missing from run_all: {missing}")
        return Check(failed, messages)


def build(seed: int, workdir) -> Verify:
    return Verify(seed, workdir)
