"""Tests of the verification suites themselves."""

from biholo.verify import RunConfig, suite_scaling


def test_scaling_suite_passes_with_its_pinned_count():
    """22 normalizations, 20,000 round trips on rows (one check per row) and
    7 checks of the scaling machinery: the count the benchmark pins."""
    res = suite_scaling(RunConfig())
    assert res.failures == []
    assert res.checks == 20_029
