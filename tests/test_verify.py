"""Tests of the verification suites themselves."""

import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
    acosh = verify.halfplane_distance_acosh

    def perturbed(z, w):
        value = acosh(z, w)
        value[4_321] += 1e-9
        record.append((z[4_321].item(), w[4_321].item()))
        return value

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


def test_slit_distance_is_checked_against_an_independent_length(monkeypatch):
    """The deck translation length is ``deck_minimum(p, 2 pi)``, not twice
    the slit distance, so a slit distance 1e-9 off in relative terms fails
    the "twice the slit distance" rows of one suite and the "bracket ratio"
    rows of the other, 1,000 each; the grid oracle's 5e-5 does not see it."""
    slit_distance = covering.slit_distance
    monkeypatch.setattr(covering, "slit_distance", lambda p: (1 + 1e-9) * slit_distance(p))
    oracles = verify.suite_slit_circle_oracles(RunConfig())
    bracket = verify.suite_punctured_bounds(RunConfig())
    assert (oracles.checks, bracket.checks) == (1_012, 3_001)
    assert len(oracles.failures) == 1_000
    assert all(msg.startswith("deck translation length is not twice the slit distance") for msg in oracles.failures)
    assert len(bracket.failures) == 1_000
    assert all(msg.startswith("bracket ratio broken") for msg in bracket.failures)


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


def _suite_arguments(monkeypatch, module, name, suite):
    """The arguments of every call the suite makes to ``module.<name>``."""
    calls, original = [], getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    suite(RunConfig())
    monkeypatch.undo()
    return calls


def _deck_rows():
    """The deck suite's 1,000 + 200 ``(p, theta)`` rows, drawn as it draws
    them, as two arrays."""
    rng = np.random.default_rng(RunConfig().seed + 4)
    bounds = ((1_000, 0.0, math.pi), (200, math.pi, covering.TWO_PI))
    return tuple(np.concatenate([rng.uniform([0.01, low], [0.99, high], size=(n, 2)) for n, low, high in bounds]).T)


def test_the_acosh_oracle_on_arrays_agrees_with_its_points(monkeypatch):
    """On the half-plane suite's one call, 10,000 pairs, the array form is
    within 1e-15 relative of the scalar form of each pair."""
    [(z, w)] = _suite_arguments(monkeypatch, verify, "halfplane_distance_acosh", verify.suite_halfplane_forms)
    assert z.shape == w.shape == (10_000,)
    points = [verify.halfplane_distance_acosh(a, b) for a, b in zip(z.tolist(), w.tolist())]
    assert verify.halfplane_distance_acosh(z, w) == pytest.approx(points, rel=1e-15, abs=0.0)


def test_the_deck_enumeration_on_arrays_agrees_with_its_rows(monkeypatch):
    """On the deck suite's two calls, 1,000 and 200 rows, the array form is
    within 1e-15 relative of the scalar form of each row."""
    calls = _suite_arguments(monkeypatch, covering, "deck_minimum_enumerated", verify.suite_deck_oracle)
    assert [len(p) for p, _ in calls] == [1_000, 200]
    p, theta = (np.concatenate(column) for column in zip(*calls))
    assert np.array_equal(np.stack((p, theta)), _deck_rows())
    rows = [covering.deck_minimum_enumerated(a, t) for a, t in zip(p.tolist(), theta.tolist())]
    assert covering.deck_minimum_enumerated(p, theta) == pytest.approx(rows, rel=1e-15, abs=0.0)


def test_poly_eval_on_columns_agrees_with_its_points(monkeypatch):
    """On the polynomial suite's four calls, 2,500 points each as columns,
    every value is within 1e-15 relative of the point's."""
    calls = _suite_arguments(monkeypatch, verify, "poly_eval", verify.suite_polynomials)
    assert [columns.shape[1] for _, columns in calls] == [2_500] * 4
    for poly, columns in calls:
        points = [verify.poly_eval(poly, w) for w in columns.T.tolist()]
        assert verify.poly_eval(poly, columns) == pytest.approx(points, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: covering.grid_circle_supremum(0.5),
        lambda: verify.suite_vertical_line(RunConfig()),
        lambda: covering.grid_slit_distance(0.5),
        functools.partial(covering.deck_minimum_enumerated, *_deck_rows()),
    ],
    ids=["grid_circle_supremum", "suite_vertical_line", "grid_slit_distance", "deck_minimum_enumerated"],
)
def test_grids_are_swept_in_blocks(sweep):
    """The circle oracle's ``CIRCLE_GRID`` angles, the vertical-line suite's
    million heights, the slit oracle's ``SLIT_GRID`` moduli and the deck
    suite's 1,200 rows of ``2 DECK_RANGE + 1`` translates are never one
    array: each sweep's traced peak stays below 2 MiB, where one
    million-entry float array alone is 7.6 MiB and one 1,200 x 201 float
    array 1.9 MiB (built whole, the first three read 15.3, 23.6 and
    3.1 MiB)."""
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
