"""The biholo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload distance --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  Workloads: ``distance``, ``estimate``,
``scale``, ``verify`` (see ``bench/workloads/``).  Load is closed-loop: one
process, one caller thread, each op starting after the previous one ends.
The workload runs in a fresh interpreter with ``src`` on ``PYTHONPATH`` and
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of launch until the first op is ready: ``import biholo``
plus building the inputs from the seed), ``op_cost_ref`` (the mean op
latency in units of a fixed reference kernel timed beside it, each op's
median ratio across the run's passes) and ``peak_rss_mb``.  The machine's
speed drifts by up to 2x over minutes from load outside the process; the
reference kernel slows with it, so the ratio holds still where wall-clock
rates do not.  It also prints, ungated, ``ops_per_s`` (a pass in which every
op takes its fastest latency), ``op_p50_ms`` and, on ``distance``,
``op_p99_ms`` (percentiles over a pass's ops of each op's fastest latency).
``--trace 1`` runs half the time untraced and half with the wrappers of
``bench/layers.py`` installed, and reports the per-layer metrics, including
the tracing overhead.  Every op's output is checked after the timed window.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report, and the full record, with the environment, is also
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import BENCH, OUT_DIR, ROOT, WORKLOADS

SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150.0
END_TO_END = (
    ("setup_s", "s"),
    ("op_cost_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
# Printed, not gated: wall-clock rates and latencies follow the machine's
# speed, which drifts by up to 2x over minutes, so they spread 20-60% from
# run to run on the workloads with long ops.  p99 has ten ops beyond it only
# on ``distance``.
PRINTED = {"ops_per_s": ("1/s", WORKLOADS), "op_p50_ms": ("ms", WORKLOADS), "op_p99_ms": ("ms", ("distance",))}


class BenchError(RuntimeError):
    pass


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def _worker_cmd(args, *extra) -> list[str]:
    return [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace), *extra,
    ]


def _time_setup(args, env) -> float:
    """Seconds from launching a fresh interpreter until it reports ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(_worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up run exited {code} before it was ready")
    return elapsed


def _run_worker(args, env) -> dict:
    cmd = _worker_cmd(args, "--seconds", str(args.seconds))
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _report(args, record, metrics) -> list[str]:
    s = record["samples"]
    lines = [
        f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "env: " + ", ".join(f"{k}={v}" for k, v in record["environment"].items()),
        f"why: {record['why']}",
        *(f"prediction, {item}: {what}" for item, what in record["predictions"].items()),
        f"{'metric':<58} {'value':>14}  {'unit':<9} samples",
    ]
    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        samples = f"{s['traced_ops']} traced ops, {s['traced_passes']} passes; spans in {s['spans_file']}"
        notes = dict.fromkeys(metrics, samples)
    else:
        per_op = f"{s['ops_per_pass']} ops, each the fastest of {s['passes']} passes"
        notes = {
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
            "op_cost_ref": f"{s['ops_per_pass']} ops, each the median ratio of {s['passes']} passes",
            "peak_rss_mb": "worker process, after the timed passes",
        }
    rows = [(name, m["value"], m["unit"], notes[name]) for name, m in metrics.items()]
    if not args.trace:
        rows += [
            (name, record["printed"][name], unit, f"{per_op}; printed, not gated")
            for name, (unit, workloads) in PRINTED.items() if args.workload in workloads
        ]
    rows.append(("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops failed"))
    rows += [(f"check.{k}", v, "ratio", f"{attempted} ops") for k, v in sorted(record["stats"].items())]
    lines += [f"{name:<58} {value:>14.6g}  {unit:<9} {samples}" for name, value, unit, samples in rows]
    lines += [f"failure: {msg}" for msg in record["messages"]]
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "biholo" / "__init__.py").is_file():
        print(f"bench: no biholo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _child_env()
    try:
        setup = None
        if not args.trace:
            _time_setup(args, env)  # untimed: compiles the package's bytecode once
            setup = statistics.median(_time_setup(args, env) for _ in range(SETUP_RUNS))
        record = _run_worker(args, env)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = record["metrics"]
    if not args.trace:
        metrics = dict(metrics, setup_s={"value": setup, "unit": "s"})
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    full = dict(record, **result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n"
    )
    for line in _report(args, record, metrics):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
