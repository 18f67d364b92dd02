"""Tests of the verification suites themselves."""

import itertools
from pathlib import Path

from biholo import covering, verify
from biholo.domains import SlitDisc, sample_rows
from biholo.verify import RunConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_suite_passes_with_its_pinned_count(monkeypatch):
    """Each suite makes the number of checks the benchmark's verify workload
    pins (``bench/workloads/verify.py::CHECKS``, read, not changed), and
    passes them all: scaling-machinery, for one, makes 22 normalizations,
    20,000 round trips on rows (one check per row) and 7 checks of the
    scaling machinery."""
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads.verify import CHECKS

    results = verify.run_all(RunConfig())
    assert {res.name: res.checks for res in results} == CHECKS
    assert {res.name: res.failures for res in results} == {name: [] for name in CHECKS}


def _perturbed_at(original, index: int, record: list):
    """``original`` with its ``index``-th call (from 0) off by 1e-9; the
    arguments of that call go to ``record``."""
    calls = itertools.count()

    def perturbed(*args):
        value = original(*args)
        if next(calls) == index:
            record.append(args)
            value += 1e-9
        return value

    return perturbed


def test_halfplane_suite_reports_the_one_failing_pair(monkeypatch):
    """One acosh value off by 1e-9 is one failed check among the 10,003,
    and only that failure's message is formatted; it names the pair."""
    record = []
    perturbed = _perturbed_at(verify.halfplane_distance_acosh, 4_321, record)
    monkeypatch.setattr(verify, "halfplane_distance_acosh", perturbed)
    res = verify.suite_halfplane_forms(RunConfig())
    assert res.checks == 10_003
    assert len(res.failures) == 1
    assert res.failures[0].startswith("closed form deviates from acosh by 1.000e-09 at ")
    assert res.failures[0].endswith(repr(record[0]))


def test_deck_suite_reports_the_failing_row(monkeypatch):
    """A deck closed form off by 1e-9 at one (p, theta) fails the two checks
    made against it, the enumeration and the punctured distance, and no
    other of the 2,401."""
    record = []
    monkeypatch.setattr(covering, "deck_minimum", _perturbed_at(covering.deck_minimum, 777, record))
    res = verify.suite_deck_oracle(RunConfig())
    assert res.checks == 2_401
    p, theta = record[0]
    assert len(res.failures) == 2
    assert all(msg.endswith(f"at p={p}, theta={theta}") for msg in res.failures)


def test_polynomial_suite_reports_an_evaluation_error(monkeypatch):
    """A ``ValueError`` from ``poly_eval`` is one failed check per
    polynomial, not a traceback out of ``run_all``; the count stays 104."""

    def broken(poly, w):
        raise ValueError("polynomial evaluated to a non-real value")

    monkeypatch.setattr(verify, "poly_eval", broken)
    res = verify.suite_polynomials(RunConfig())
    assert res.checks == 104
    assert len(res.failures) == 4
    assert all("does not evaluate to real values" in msg for msg in res.failures)


def test_domain_suite_checks_the_slit_sampler(monkeypatch):
    """The suite's last check fails on a sampled slit-disc row on the slit,
    which the two membership tests agree on and so cannot catch."""
    assert verify.suite_domains(RunConfig()).failures == []

    def onto_the_slit(dom, rng, m):
        rows = sample_rows(dom, rng, m)
        if isinstance(dom, SlitDisc):
            rows[0, 0] = -0.5
        return rows

    monkeypatch.setattr(verify, "sample_rows", onto_the_slit)
    res = verify.suite_domains(RunConfig())
    assert res.checks == 5_014
    assert res.failures == ["1 sampled slit-disc points off the punctured disc or on the slit"]
