"""Tests of the benchmark's own correctness checks and tracing.

    python3 -m pytest bench/test_checks.py -q

Each workload's check is fed real outputs, which must pass, then one
deliberately wrong output and one op that raised, which must both count
toward ``fail_ratio``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

from harness import OpError  # noqa: E402

RAISED = OpError("ValueError", "deliberately raised")


def fail_ratio(workload, records) -> float:
    return workload.check(records).failed / len(records)


def run(workload, indices):
    return [(i, workload.run(i)) for i in indices]


def test_distance_check(tmp_path):
    from workloads import distance

    wl = distance.build(3, tmp_path)
    indices = [wl.labels.index(v) for v in distance.VARIANTS]
    records = run(wl, indices)
    assert fail_ratio(wl, records) == 0.0
    (i, value), (j, _) = records[0], records[1]
    records[0] = (i, 1.5 * value + 0.1)
    records[1] = (j, RAISED)
    assert fail_ratio(wl, records) == 2 / len(records)


def test_distance_inputs_repeat_per_seed():
    from workloads import distance

    assert distance.make_queries(5, 64) == distance.make_queries(5, 64)
    assert distance.make_queries(5, 64) != distance.make_queries(6, 64)


def test_estimate_check(tmp_path):
    from workloads import estimate

    wl = estimate.build(3, tmp_path)
    cheapest = wl.labels.index("squeezing.polydisc2.s256")
    records = run(wl, [cheapest]) + [(i, wl.expected(i)[0]) for i in range(len(wl.labels))]
    assert fail_ratio(wl, records) == 0.0
    records[1] = (records[1][0], records[1][1] + 0.01)
    records[2] = (records[2][0], RAISED)
    assert fail_ratio(wl, records) == 2 / len(records)


def test_scale_check(tmp_path):
    from workloads import scale

    wl = scale.build(3, tmp_path)
    indices = [wl.labels.index(label) for label in ("isotropic.csv", "convergence.json", "convergence.csv")]
    records = run(wl, indices)
    assert fail_ratio(wl, records) == 0.0
    (records[0][1].out_dir / "isotropic_hausdorff.csv").unlink()
    records[1] = (records[1][0], RAISED)
    assert fail_ratio(wl, records) == 2 / len(records)


def test_scale_check_wrong_values(tmp_path):
    from workloads import scale

    wl = scale.build(3, tmp_path)
    (i, out), = run(wl, [wl.labels.index("convergence.json")])
    path = out.out_dir / "convergence_convergence.json"
    rows = json.loads(path.read_text())
    rows[3]["upper_bound"] *= 1.001
    path.write_text(json.dumps(rows))
    assert scale.check_output("convergence", "json", out) is not None


def test_verify_check(tmp_path):
    from workloads import verify

    wl = verify.build(3, tmp_path)
    indices = [wl.labels.index("suite_metric_axioms"), wl.labels.index("suite_mobius_invariance")]
    records = run(wl, indices) + run(wl, indices)
    assert fail_ratio(wl, records) == 0.0
    records[0][1].checks += 1
    records[1] = (records[1][0], RAISED)
    assert fail_ratio(wl, records) == 2 / len(records)


def test_tracer_wraps_every_namespace():
    import biholo
    from biholo import domains, metrics, verify

    import layers
    from tracer import Tracer

    original = domains.contains
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert metrics.contains is domains.contains is verify.contains is biholo.contains
        assert domains.contains is not original
        biholo.kobayashi_distance(biholo.PuncturedDisc(), 0.5, -0.5)
    finally:
        tracer.uninstall()
    assert metrics.contains is domains.contains is original
    assert tracer.calls("metrics.kobayashi_distance.punctured") == 1
    assert tracer.counted_under("hyperbolic.halfplane_distance", {"covering.punctured_distance"}) == 201


def test_benchmark_json_matches_the_metrics():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
