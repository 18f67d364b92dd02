"""Tests of the verification suites themselves."""

from biholo import verify
from biholo.domains import SlitDisc, sample_rows
from biholo.verify import RunConfig, suite_scaling


def test_scaling_suite_passes_with_its_pinned_count():
    """22 normalizations, 20,000 round trips on rows (one check per row) and
    7 checks of the scaling machinery: the count the benchmark pins."""
    res = suite_scaling(RunConfig())
    assert res.failures == []
    assert res.checks == 20_029


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
