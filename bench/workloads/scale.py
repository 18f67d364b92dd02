"""``scale``: ``biholo scale`` experiment specs run in-process through
``cli.main``, each written as CSV and as JSON.

Why: ``scaling``, ``domains.defining_value``/``poly_eval`` on fixed grids,
``disc_distance`` through dilations, and ``cli`` spec parsing and file
output do the work.  It uses ``domains`` differently from ``estimate``:
defining values on grids, not sample-and-contains on random points, so a
batch membership kernel that helps one and slows the other shows.

Specs (one op per spec and format; the seed is the CLI ``--seed``):

* isotropic disc, hausdorff + ball_inclusion (the README example);
* anisotropic multitype (1, 4), ``|z|^4`` with an ``|z|^6`` remainder,
  hausdorff + invariance with 10k trials (the README example).  It exits 1
  on its default grid: sup error 16.0 at j = 10 against tol 1e-2, while its
  slope 0.50 is the predicted rate, so exit 1 is the correct verdict;
* Siegel weight-one (1, 2), hausdorff + ball_inclusion + invariance;
* punctured-disc convergence.

Check: exit code and verdict line, one file per declared check with its
columns, the Hausdorff log-log slope within 0.1 of the predicted rate (sup
error at rounding level for the exactly invariant Siegel model), ``j0``
present where ball inclusion is declared, and the convergence bound equal
to ``1/asinh(-pi/log |p|)`` and strictly decreasing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil

import numpy as np

from biholo import cli

from harness import Check, OpError

NAME = "scale"
WHY = (
    "Chosen because scaling, domains.defining_value/poly_eval on fixed grids, "
    "disc_distance through dilations and cli spec parsing and file output do the work."
)
PREDICTIONS = {
    "item 1 (stable closed forms)": "unchanged",
    "item 2 (closed-form deck selection)": "unchanged: no punctured distance is computed",
    "item 3 (observability)": "no metric worse",
    "item 4 (batch kernels)": "op_cost_ref down, ops_per_s up, op_p50_ms down (defining values on grids)",
}

SPECS = {
    "isotropic": {
        "kind": "isotropic", "rho": "disc", "base_point": "1", "normal": "1",
        "deltas": {"j_start": 3, "j_end": 12},
        "grid": {"min": -2, "max": 2, "n": 21}, "tol": 1e-2,
        "checks": ["hausdorff", "ball_inclusion"],
        "ball_inclusion": {"R": 1.0, "eps": 0.1, "samples": 120},
    },
    "anisotropic": {
        "kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
        "remainder": {"type": "abs_power", "exponents": [6]}, "gamma": 1.5,
        "deltas": {"j_start": 1, "j_end": 10},
        "checks": ["hausdorff", "invariance"], "trials": 10_000,
    },
    "siegel": {
        "kind": "anisotropic", "multitype": [1, 2], "poly": "1.0 1 | 1\n",
        "deltas": {"j_start": 1, "j_end": 10},
        "checks": ["hausdorff", "ball_inclusion", "invariance"],
    },
    "convergence": {
        "kind": "convergence", "domain": "punctured", "base_point": "1", "normal": "1",
        "deltas": {"j_start": 1, "j_end": 12},
    },
}
EXIT_CODE = {"isotropic": 0, "anisotropic": 1, "siegel": 0, "convergence": 0}
# predicted Hausdorff decay rate: O(delta) for the disc, the weight-calculus
# rate 6 * (1/4) - 1 for the remainder; None where the scaled domains equal
# the limit exactly
SLOPE = {"isotropic": 1.0, "anisotropic": 0.5, "siegel": None}
COLUMNS = {
    "hausdorff": ["j", "delta", "sup_error", "membership_agreement"],
    "ball_inclusion": ["j", "delta", "inside", "max_distance"],
    "invariance": ["invariant_under_dilations"],
    "convergence": ["j", "modulus", "upper_bound"],
}
FORMATS = ("csv", "json")


class ScaleOutput:
    """Exit code, printed verdict and output directory of one ``biholo scale`` run."""

    def __init__(self, code: int, stdout: str, out_dir) -> None:
        self.code, self.stdout, self.out_dir = code, stdout, out_dir

    def __repr__(self) -> str:
        return f"ScaleOutput({self.code}, {self.stdout!r}, {str(self.out_dir)!r})"


def _read_rows(path, fmt: str) -> tuple[list[str], list[dict]]:
    if fmt == "json":
        rows = json.loads(path.read_text())
        return list(rows[0]), rows
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames), rows


def _true(value) -> bool:
    return value is True or value == "True"


def _slope(rows: list[dict]) -> float:
    x = np.log([float(r["delta"]) for r in rows])
    y = np.log([float(r["sup_error"]) for r in rows])
    return float(np.polyfit(x, y, 1)[0])


def check_output(spec_name: str, fmt: str, out) -> str | None:
    """None if the output of one op is correct, else what is wrong."""
    if isinstance(out, OpError):
        return f"raised {out.kind}: {out.message}"
    spec = SPECS[spec_name]
    if out.code != EXIT_CODE[spec_name]:
        return f"exit code {out.code}, expected {EXIT_CODE[spec_name]}"
    verdict = "pass" if out.code == 0 else "FAIL"
    if not out.stdout.startswith(verdict + ":"):
        return f"verdict line {out.stdout!r}"
    checks = ["convergence"] if spec["kind"] == "convergence" else spec["checks"]
    tables = {}
    for check in checks:
        path = out.out_dir / f"{spec_name}_{check}.{fmt}"
        if not path.is_file():
            return f"missing {path.name}"
        columns, rows = _read_rows(path, fmt)
        if fmt == "json":  # written with sorted keys
            columns = [c for c in COLUMNS[check] if c in columns] + [c for c in columns if c not in COLUMNS[check]]
        if columns != COLUMNS[check] or not rows:
            return f"{path.name}: columns {columns}"
        tables[check] = rows
    if "hausdorff" in tables:
        rows = tables["hausdorff"]
        rate = SLOPE[spec_name]
        if rate is None:
            if max(float(r["sup_error"]) for r in rows) > 1e-12:
                return "sup error above rounding for an exactly invariant model"
        elif abs(_slope(rows) - rate) > 0.1:
            return f"hausdorff slope {_slope(rows):.3f}, predicted {rate}"
        if (float(rows[-1]["sup_error"]) < spec.get("tol", 1e-2)) != (out.code == 0):
            return "final sup error disagrees with the exit code"
    if "ball_inclusion" in tables and not _true(tables["ball_inclusion"][-1]["inside"]):
        return "no j0: ball inclusion fails at the last step"
    if "invariance" in tables and not _true(tables["invariance"][0]["invariant_under_dilations"]):
        return "weight-one model reported not invariant"
    if "convergence" in tables:
        rows = tables["convergence"]
        bounds = [float(r["upper_bound"]) for r in rows]
        if not all(b < a for a, b in zip(bounds, bounds[1:])):
            return "convergence bound not strictly decreasing"
        for r, bound in zip(rows, bounds):
            expected = 1.0 / math.asinh(-math.pi / math.log(float(r["modulus"])))
            if abs(bound - expected) > 1e-12 * expected:
                return f"convergence bound {bound!r} at modulus {r['modulus']}, expected {expected!r}"
    return None


class Scale:
    name = NAME

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir / "scale"
        shutil.rmtree(self.workdir, ignore_errors=True)
        spec_dir = self.workdir / "specs"
        spec_dir.mkdir(parents=True)
        self.specs = {}
        for name, spec in SPECS.items():
            path = spec_dir / f"{name}.json"
            path.write_text(json.dumps(spec))
            self.specs[name] = path
        self.ops = [(name, fmt) for name in SPECS for fmt in FORMATS]
        self.labels = [f"{name}.{fmt}" for name, fmt in self.ops]
        self._runs = 0
        self._dirs = [None] * len(self.ops)

    def run(self, i: int) -> ScaleOutput:
        name, fmt = self.ops[i]
        # a fresh directory per run, so that a file the run failed to write
        # cannot be read from an earlier run; the previous pass's is checked
        if self._dirs[i] is not None:
            shutil.rmtree(self._dirs[i], ignore_errors=True)
        self._runs += 1
        out_dir = self._dirs[i] = self.workdir / "out" / str(self._runs)
        argv = ["scale", str(self.specs[name]), "--out", str(out_dir), "--format", fmt, "--seed", str(self.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return ScaleOutput(code, buf.getvalue(), out_dir)

    def check(self, records) -> Check:
        failed = 0
        messages = []
        for i, out in records:
            problem = check_output(*self.ops[i], out)
            if problem is not None:
                failed += 1
                messages.append(f"{self.labels[i]}: {problem}")
        return Check(failed, messages)


def build(seed: int, workdir) -> Scale:
    return Scale(seed, workdir)
