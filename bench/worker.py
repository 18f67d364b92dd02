"""One workload in one process: set up, run the timed passes, check, and
print the record as JSON on the last line of standard output.

Started by ``bench/run.py`` with ``src`` on ``PYTHONPATH`` and one BLAS
thread.  ``--setup-only`` stops after printing ``ready``, which is how
``run.py`` times set-up.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("distance", "estimate", "scale", "verify")
OUT_DIR = ROOT / ".bench_out"


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _import_biholo() -> None:
    import biholo

    src = (ROOT / "src").resolve()
    if src not in Path(biholo.__file__).resolve().parents:
        raise SystemExit(f"bench: imported biholo from {biholo.__file__}, not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "closed loop, 1 process, 1 caller thread",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _untraced(workload, seconds: float) -> dict:
    from harness import cost_in_reference_units, latency_percentiles, run_passes, throughput

    phase = run_passes(workload, seconds)
    rss = _peak_rss_mb()
    p50, p99 = latency_percentiles(phase)
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "messages": phase.messages,
        "stats": phase.stats,
        "metrics": {
            "op_cost_ref": {"value": cost_in_reference_units(phase), "unit": "ref"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
        "printed": {"ops_per_s": throughput(phase), "op_p50_ms": 1e3 * p50, "op_p99_ms": 1e3 * p99},
        "samples": {
            "passes": len(phase.pass_walls),
            "ops_per_pass": len(workload.labels),
            "ops": phase.ops,
            "timed_s": phase.wall,
        },
    }


def _traced(workload, seconds: float, spans_path: Path) -> dict:
    import layers
    from harness import OpError, run_passes, throughput
    from tracer import Tracer

    plain = run_passes(workload, seconds / 2, min_passes=1)
    tracer = Tracer()
    op_span = tracer.span("op", workload.run)

    def traced_op(i: int):
        tracer.op += 1
        return op_span(i)

    layers.install(tracer)
    try:
        traced = run_passes(workload, seconds / 2, traced_op, min_passes=1)
    finally:
        tracer.uninstall()
    per_call = tracer.calibrate()

    suite_names, suite_checks = {}, {}
    if workload.name == "verify":
        for i, res in enumerate(plain.last_outputs):
            if not isinstance(res, OpError):
                suite_names[i] = res.name
                suite_checks[res.name] = res.checks
    untraced_ops_per_s = throughput(plain)
    values = layers.derive(
        tracer,
        per_call,
        ops=traced.ops,
        untraced_op_s=1.0 / untraced_ops_per_s,
        untraced_ops_per_s=untraced_ops_per_s,
        traced_ops_per_s=throughput(traced),
        op_wall_s=layers.best_wall_by_suite(plain, suite_names),
        suite_checks=suite_checks,
        rel_miss_ratio=plain.stats.get("rel_miss_ratio", 0.0),
    )
    tracer.save(spans_path)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "messages": (plain.messages + traced.messages)[:10],
        "stats": plain.stats,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER},
        "samples": {
            "untraced_passes": len(plain.pass_walls),
            "traced_passes": len(traced.pass_walls),
            "traced_ops": traced.ops,
            "spans": len(tracer.span_name),
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(BENCH))
    _import_biholo()
    module = importlib.import_module(f"workloads.{args.workload}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    workload = module.build(args.seed, workdir)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            record = _traced(workload, args.seconds, spans)
        else:
            record = _untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["why"] = module.WHY
    record["predictions"] = module.PREDICTIONS
    record["environment"] = _environment()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
