"""The per-layer metrics: which ``biholo`` functions are wrapped, how, and
what is derived from the spans and counts.

The layers are the modules of ``src/biholo``.  Every metric is reported on
every workload; a layer that does no work on a workload reads 0.  Beside
each group: the end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import math
from pathlib import Path

from tracer import Tracer
from workloads import distance as distance_workload
from workloads import verify as verify_workload

VERIFY_SUITES = tuple(verify_workload.CHECKS)
DISTANCE_VARIANTS = distance_workload.VARIANTS

PER_LAYER: list[tuple[str, str]] = [
    # -> op_p50_ms (distance)
    ("hyperbolic.halfplane_distance.us_per_call", "us"),
    ("hyperbolic.halfplane_distance.calls_per_op", "calls/op"),
    # -> op_p50_ms (distance, scale)
    ("hyperbolic.disc_distance.us_per_call", "us"),
    # -> op_p99_ms, ops_per_s (distance); ops_per_s (verify)
    ("covering.punctured_distance.us_per_call", "us"),
    # punctured_distance calls / halfplane_distance calls inside them -> ops_per_s (distance)
    ("covering.deck_useful_ratio", "ratio"),
    # DeckRangeWarning retries -> ops_per_s (verify)
    ("covering.deck_widenings", "count/op"),
    # -> op_p50_ms (estimate)
    ("covering.build_slit_map.ms_per_call", "ms"),
    # -> ops_per_s (estimate); op_p50_ms (distance, slit queries)
    ("maps.chain.calls_per_op", "calls/op"),
    ("maps.chain.us_per_call", "us"),
    # -> op_p50_ms (distance); ops_per_s (estimate)
    ("domains.as_point.calls_per_op", "calls/op"),
    ("domains.as_point.self_share", "ratio"),
    # -> ops_per_s (estimate, scale)
    ("domains.contains.calls_per_op", "calls/op"),
    ("domains.contains.us_per_call", "us"),
    ("domains.sample_point.calls_per_op", "calls/op"),
    ("domains.sample_point.us_per_call", "us"),
    # -> op_p50_ms (scale)
    ("domains.defining_value.us_per_call", "us"),
    ("domains.poly_eval.us_per_call", "us"),
    # -> op_p50_ms, op_p99_ms (distance)
    *((f"metrics.kobayashi_distance.{v}.us_per_call", "us") for v in DISTANCE_VARIANTS),
    # results missing a 1e-9 relative tolerance (ROADMAP item 1) (distance)
    ("metrics.kobayashi_distance.rel_miss_ratio", "ratio"),
    # -> ops_per_s (estimate)
    ("metrics.sample_metric_sphere.calls_per_op", "calls/op"),
    ("metrics.sample_metric_sphere.ms_per_call", "ms"),
    ("invariants.validate.ms_per_call", "ms"),
    ("invariants.validate.share", "ratio"),
    ("invariants.image_contains.calls_per_op", "calls/op"),
    ("invariants.image_contains.us_per_call", "us"),
    ("invariants.predicate_evals_per_op", "evals/op"),
    ("invariants.sphere_points_tested_ratio", "ratio"),
    # -> op_p50_ms (scale); ops_per_s (verify)
    ("scaling.hausdorff_check.ms_per_call", "ms"),
    ("scaling.ball_inclusion_check.ms_per_call", "ms"),
    ("scaling.invariance_check.ms_per_call", "ms"),
    ("scaling.scaled_defining.calls_per_op", "calls/op"),
    # -> op_p50_ms (scale)
    ("cli.main.self_ms", "ms"),
    ("cli.bytes_written_per_op", "bytes/op"),
    # -> ops_per_s (verify)
    *((f"verify.{s}.{m}", u) for s in VERIFY_SUITES for m, u in (("wall_s", "s"), ("checks", "count"))),
    ("verify.oracle_share", "ratio"),
    # untraced minus traced ops_per_s, same run
    ("tracing.overhead_ops_per_s", "1/s"),
]

ESTIMATORS = (
    "invariants.fridman_upper_from_embedding",
    "invariants.squeezing_lower_from_embedding",
    "invariants.largest_centered_polydisc",
)
SPHERE_SAMPLERS = ("metrics.sample_metric_sphere", "metrics.polydisc_sphere_sample", "invariants._euclidean_sphere")
ORACLE_SPANS = ("covering.deck_minimum_enumerated", "covering.grid_slit_distance", "covering.grid_circle_supremum")
ORACLE_COUNTS = ("verify._independent_membership",)


def _variant(d) -> str:
    kind = type(d).__name__
    if kind == "Ball":
        return "disc" if d.dim == 1 else f"ball{d.dim}"
    if kind in ("Polydisc", "Siegel"):
        return f"{kind.lower()}{d.dim}"
    return {
        "UpperHalfPlane": "halfplane",
        "HalfPlaneC": "halfplaneC",
        "PuncturedDisc": "punctured",
        "SlitDisc": "slit",
    }.get(kind, kind)


def _kobayashi_name(d, *args, **kwargs) -> str:
    return f"metrics.kobayashi_distance.{_variant(d)}"


def _points(tracer, nid, parent, args, result) -> None:
    tracer.amounts["points", nid, parent] += len(result)


def _widenings(tracer, nid, parent, args, result) -> None:
    start = args[3] if len(args) > 3 else 100
    tracer.amounts["widenings", nid, parent] += max(result.deck_range.bit_length() - start.bit_length(), 0)


def _bytes(tracer, nid, parent, args, result) -> None:
    tracer.amounts["bytes", nid, parent] += Path(args[2]).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics are measured at.

    ``keep`` is the size of the argument sample ``Tracer.calibrate`` times
    the function on; functions reported only as counts or self time keep
    none.
    """
    from biholo import cli, invariants, maps, scaling  # noqa: F401  (cli also loads verify)

    def span(module, attr, name=None, after=None, keep=0):
        tracer.patch_function(
            f"biholo.{module}", attr, lambda f: tracer.span(name or f"{module}.{attr}", f, after, keep)
        )

    def count(module, attr, after=None, keep=256):
        tracer.patch_function(f"biholo.{module}", attr, lambda f: tracer.count(f"{module}.{attr}", f, after, keep))

    span("metrics", "kobayashi_distance", _kobayashi_name, keep=32)
    span("covering", "punctured_distance", keep=32)
    span("covering", "build_slit_map", keep=4)
    span("covering", "deck_minimum_enumerated", keep=32)
    span("covering", "grid_slit_distance", keep=4)
    span("covering", "grid_circle_supremum", keep=4)
    span("metrics", "sample_metric_sphere", after=_points, keep=16)
    span("metrics", "polydisc_sphere_sample", after=_points)
    span("invariants", "_euclidean_sphere", after=_points)
    for attr in ESTIMATORS:
        span("invariants", attr.split(".")[1])
    span("scaling", "make_isotropic")
    span("scaling", "make_anisotropic")
    span("scaling", "convergence_experiment")
    for attr in ("hausdorff_check", "ball_inclusion_check", "invariance_check"):
        span("scaling", attr, keep=4)
    span("cli", "main")

    count("hyperbolic", "halfplane_distance")
    count("hyperbolic", "disc_distance")
    for attr in ("as_point", "contains", "defining_value", "sample_point", "poly_eval"):
        count("domains", attr)
    count("covering", "punctured_distance_detail", after=_widenings, keep=0)
    count("verify", "_independent_membership")
    count("cli", "write_rows", after=_bytes, keep=0)

    witness = invariants.EmbeddingWitness
    tracer.patch_method(witness, "validate", lambda f: tracer.span("invariants.validate", f, keep=4))
    tracer.patch_method(witness, "image_contains", lambda f: tracer.count("invariants.image_contains", f))
    tracer.patch_method(maps.Chain, "apply", lambda f: tracer.count("maps.Chain.apply", f))
    tracer.patch_method(maps.Chain, "unapply", lambda f: tracer.count("maps.Chain.unapply", f))
    tracer.patch_method(scaling.ScaledFamily, "scaled_defining", lambda f: tracer.count("scaling.scaled_defining", f))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tracer: Tracer, per_call: dict[str, float], *, ops: int, untraced_op_s: float,
           untraced_ops_per_s: float, traced_ops_per_s: float, op_wall_s: dict[str, float],
           suite_checks: dict[str, int], rel_miss_ratio: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced phase of ``ops`` ops.

    ``per_call`` holds the calibrated seconds per call; ``untraced_op_s``
    the mean op time of the untraced phase, which shares are taken of;
    ``op_wall_s`` the fastest untraced latency by verify suite name.
    """
    calls = tracer.calls

    def per_op(name: str) -> float:
        return _ratio(calls(name), ops)

    def us(name: str) -> float:
        return 1e6 * per_call.get(name, 0.0)

    def share(*names: str) -> float:
        return _ratio(sum(per_op(n) * per_call.get(n, 0.0) for n in names), untraced_op_s)

    m: dict[str, float] = {}
    m["hyperbolic.halfplane_distance.us_per_call"] = us("hyperbolic.halfplane_distance")
    m["hyperbolic.halfplane_distance.calls_per_op"] = per_op("hyperbolic.halfplane_distance")
    m["hyperbolic.disc_distance.us_per_call"] = us("hyperbolic.disc_distance")

    m["covering.punctured_distance.us_per_call"] = us("covering.punctured_distance")
    inside = tracer.counted_under("hyperbolic.halfplane_distance", {"covering.punctured_distance"})
    m["covering.deck_useful_ratio"] = _ratio(calls("covering.punctured_distance"), inside)
    m["covering.deck_widenings"] = _ratio(tracer.amount("widenings"), ops)
    m["covering.build_slit_map.ms_per_call"] = 1e-3 * us("covering.build_slit_map")

    chain = {k: calls(f"maps.Chain.{k}") for k in ("apply", "unapply")}
    m["maps.chain.calls_per_op"] = _ratio(sum(chain.values()), ops)
    m["maps.chain.us_per_call"] = _ratio(sum(n * us(f"maps.Chain.{k}") for k, n in chain.items()), sum(chain.values()))

    m["domains.as_point.calls_per_op"] = per_op("domains.as_point")
    m["domains.as_point.self_share"] = share("domains.as_point")
    for attr in ("contains", "sample_point"):
        m[f"domains.{attr}.calls_per_op"] = per_op(f"domains.{attr}")
        m[f"domains.{attr}.us_per_call"] = us(f"domains.{attr}")
    m["domains.defining_value.us_per_call"] = us("domains.defining_value")
    m["domains.poly_eval.us_per_call"] = us("domains.poly_eval")

    for v in DISTANCE_VARIANTS:
        m[f"metrics.kobayashi_distance.{v}.us_per_call"] = us(f"metrics.kobayashi_distance.{v}")
    m["metrics.kobayashi_distance.rel_miss_ratio"] = rel_miss_ratio
    m["metrics.sample_metric_sphere.calls_per_op"] = per_op("metrics.sample_metric_sphere")
    m["metrics.sample_metric_sphere.ms_per_call"] = 1e-3 * us("metrics.sample_metric_sphere")

    m["invariants.validate.ms_per_call"] = 1e-3 * us("invariants.validate")
    m["invariants.validate.share"] = share("invariants.validate")
    m["invariants.image_contains.calls_per_op"] = per_op("invariants.image_contains")
    m["invariants.image_contains.us_per_call"] = us("invariants.image_contains")
    evals = sum(tracer.spans_under(s, ESTIMATORS) for s in SPHERE_SAMPLERS)
    m["invariants.predicate_evals_per_op"] = _ratio(evals, ops)
    tested = tracer.counted_under("invariants.image_contains", ESTIMATORS)
    sampled = sum(tracer.amount("points", s, ESTIMATORS) for s in SPHERE_SAMPLERS)
    m["invariants.sphere_points_tested_ratio"] = _ratio(tested, sampled)

    for attr in ("hausdorff_check", "ball_inclusion_check", "invariance_check"):
        m[f"scaling.{attr}.ms_per_call"] = 1e-3 * us(f"scaling.{attr}")
    m["scaling.scaled_defining.calls_per_op"] = per_op("scaling.scaled_defining")

    # spec parsing and write_rows: the span's time outside its scaling spans
    main_self = tracer.self_time.get(tracer.name_id("cli.main"), 0.0)
    m["cli.main.self_ms"] = 1e3 * _ratio(main_self, calls("cli.main"))
    m["cli.bytes_written_per_op"] = _ratio(tracer.amount("bytes"), ops)

    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.wall_s"] = op_wall_s.get(suite, 0.0)
        m[f"verify.{suite}.checks"] = suite_checks.get(suite, 0)
    m["verify.oracle_share"] = share(*ORACLE_SPANS, *ORACLE_COUNTS) if suite_checks else 0.0

    m["tracing.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s
    missing = [name for name, _ in PER_LAYER if name not in m or not math.isfinite(m[name])]
    if missing:
        raise RuntimeError(f"per-layer metrics not derived: {missing}")
    return m


def best_wall_by_suite(phase, suite_names: dict[int, str]) -> dict[str, float]:
    """Fastest latency (s) across passes of each verify op, by suite name."""
    return {name: float(phase.best_latency[i]) for i, name in suite_names.items()}
