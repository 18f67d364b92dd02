"""Command-line experiment runner.

Subcommands::

    biholo dist <domain> <p> <q>        distance between two points
    biholo fridman <domain> <point>      Fridman invariant (exact or bracket)
    biholo squeeze <domain> <point>      squeezing function (exact value)
    biholo scale <spec.json>             scaling experiments -> CSV/JSON files
    biholo verify                        closed-form vs oracle suites

Domains are written ``ball2``, ``polydisc3``, ``siegel2``, ``disc``,
``halfplane``, ``punctured``, ``slit``; points are comma-separated complex
literals like ``0.5+0.1i``, and one that starts with ``-`` (``-0.2+0.1i``,
``-i``) is read as a point, not as a flag.  All randomness is seeded (``--seed``), so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import invariants, scaling, verify
from .domains import (
    Ball,
    ModelDomain,
    Multitype,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UnsupportedDomainError,
    UpperHalfPlane,
    as_point,
    format_complex,
    parse_complex_literal,
    parse_polynomial,
)
from .hyperbolic import MetricMode
from .metrics import kobayashi_distance

_DOMAIN_RE = re.compile(r"^(ball|polydisc|siegel)(\d+)$")


class CliError(Exception):
    """User-facing command error; message goes to stderr, exit code 2."""


def parse_domain(spec: str) -> ModelDomain:
    spec = spec.strip().lower()
    if spec == "disc":
        return Ball(1)
    if spec == "halfplane":
        return UpperHalfPlane()
    if spec == "punctured":
        return PuncturedDisc()
    if spec == "slit":
        return SlitDisc()
    m = _DOMAIN_RE.match(spec)
    if m:
        kind, dim = m.group(1), int(m.group(2))
        try:
            return {"ball": Ball, "polydisc": Polydisc, "siegel": Siegel}[kind](dim)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError(
        f"unknown domain {spec!r}; expected ball<N>, polydisc<N>, siegel<N>, "
        "disc, halfplane, punctured or slit"
    )


def parse_point(text: str):
    try:
        return tuple(parse_complex_literal(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


class _PointWord:
    """Matches a word that :func:`parse_point` accepts."""

    @staticmethod
    def match(word: str) -> bool:
        try:
            parse_point(word)
        except CliError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every point as a value.

    ``argparse`` takes a word that starts with ``-`` for a value only when
    its ``_negative_number_matcher`` matches it, by default a plain negative
    number; here it matches every point, so ``-0.2+0.1i`` and ``-i`` need
    no ``--``.  Subparsers are made of the same class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _PointWord


def _json_safe(value):
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return repr(value)
    return value


def emit_record(record: dict, fmt: str, out: str | None) -> None:
    record = _json_safe(record)
    if fmt == "json":
        text = json.dumps(record, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = sorted(record)
        writer.writerow(keys)
        writer.writerow([record[k] for k in keys])
        text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def write_rows(rows: list[dict], fmt: str, path: Path) -> None:
    rows = [_json_safe(r) for r in rows]
    if fmt == "json":
        path.write_text(json.dumps(rows, sort_keys=True, indent=1) + "\n")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _mode(args) -> MetricMode:
    return MetricMode(args.mode)


def cmd_dist(args) -> int:
    domain = parse_domain(args.domain)
    p = parse_point(args.p)
    q = parse_point(args.q)
    try:
        value = kobayashi_distance(domain, p, q, _mode(args))
    except (ValueError, UnsupportedDomainError) as exc:
        raise CliError(str(exc)) from exc
    emit_record(
        {
            "command": "dist",
            "domain": domain.label,
            "p": p,
            "q": q,
            "mode": args.mode,
            "method": "closed-form",
            "distance": value,
        },
        args.format,
        args.out,
    )
    return 0


def cmd_invariant(args) -> int:
    domain = parse_domain(args.domain)
    point = parse_point(args.point)
    record = {"command": args.kind, "domain": domain.label, "point": point}
    try:
        point = as_point(point, domain.dim)
        if args.kind == "fridman":
            # a Fridman value is a reciprocal radius: divided by the factor
            factor = _mode(args).factor
            record["mode"] = args.mode
            if isinstance(domain, PuncturedDisc):
                est = invariants.fridman_bounds_punctured(point[0])
                record.update(
                    lower=est.lower / factor,
                    upper=est.upper / factor,
                    lower_witness=est.lower_witness,
                    upper_witness=est.upper_witness,
                )
            else:
                record["value"] = invariants.fridman_exact(domain, point) / factor
        else:
            record["mode"] = "euclidean"  # squeezing is a ratio of euclidean radii
            record["value"] = invariants.squeezing_exact(domain, point)
    except UnsupportedDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    emit_record(record, args.format, args.out)
    return 0


def _object(name: str, value) -> dict:
    """``value``, which the spec must give as a JSON object."""
    if not isinstance(value, dict):
        raise CliError(f"{name} must be a JSON object, got {value!r}")
    return value


def _integers(spec: dict, key: str) -> list[int]:
    """The spec's ``key``, which must be a JSON list of integers."""
    value = spec[key]
    if not isinstance(value, list) or not all(type(m) is int for m in value):
        raise CliError(f"{key} must be a JSON list of integers, got {value!r}")
    return value


def _approach_from_spec(spec: dict, dim: int) -> scaling.BoundaryApproach:
    base, normal = (_spec_point(spec, key, dim) for key in ("base_point", "normal"))
    deltas_spec = spec.get("deltas", {})
    if isinstance(deltas_spec, list):
        return scaling.BoundaryApproach(base, normal, tuple(float(d) for d in deltas_spec))
    deltas_spec = _object("deltas", deltas_spec)
    j0, j1 = int(deltas_spec.get("j_start", 1)), int(deltas_spec.get("j_end", 10))
    ratio = float(deltas_spec.get("ratio", 0.5))
    return scaling.BoundaryApproach.geometric(base, normal, j0, j1, ratio)


def _spec_point(spec: dict, key: str, dim: int) -> tuple[complex, ...]:
    """The spec's ``key`` as a point of the kind's dimension ``dim``; a single
    value stands for every coordinate."""
    value = spec.get(key, "1")
    coords = value if isinstance(value, list) else [value] * dim
    if len(coords) != dim:
        raise CliError(f"{key}: expected a point of dimension {dim}, got {len(coords)}")
    return tuple(parse_complex_literal(str(c)) for c in coords)


# the checks each experiment kind runs; the first is its default
_KIND_CHECKS = {
    "isotropic": ("hausdorff", "ball_inclusion"),
    "anisotropic": ("hausdorff", "ball_inclusion", "invariance"),
    "convergence": ("convergence",),
}


def _hausdorff_grid(lo: float, hi: float, n: int, dim: int) -> np.ndarray:
    """The Hausdorff check's grid: in the plane the ``n`` by ``n`` grid of
    :func:`scaling.complex_grid`; in ``dim`` variables every ``dim``-tuple of
    points of its coarser ``max(3, n // 3)`` grid, the last coordinate
    running fastest, as rows of shape ``[k ** dim, dim]``."""
    if dim == 1:
        return scaling.complex_grid(lo, hi, n)
    coarse = scaling.complex_grid(lo, hi, max(3, n // 3))
    return np.stack(np.meshgrid(*[coarse] * dim, indexing="ij"), -1).reshape(-1, dim)


def _run_scale_spec(spec: dict, args) -> tuple[dict[str, list[dict]], bool]:
    """Execute one experiment spec; returns (files to write, all passed)."""
    kind = spec.get("kind")
    if kind not in _KIND_CHECKS:
        raise CliError(f"unknown experiment kind {kind!r}")
    runs = _KIND_CHECKS[kind]
    checks = spec.get("checks", [runs[0]])
    if not isinstance(checks, list) or not checks or not all(c in runs for c in checks):
        raise CliError(f"checks must be a nonempty list of {', '.join(runs)}, got {checks!r}")
    outputs: dict[str, list[dict]] = {}
    passed = True
    if kind == "isotropic":
        if spec.get("rho", "disc") != "disc":
            raise CliError("only the unit-disc defining function is built in; rho must be 'disc'")
        approach = _approach_from_spec(spec, 1)
        family = scaling.make_isotropic(Ball(1), approach)
    elif kind == "anisotropic":
        mt = Multitype(_integers(spec, "multitype"))
        poly = parse_polynomial(str(spec["poly"]))
        rem_spec = _object("remainder", spec.get("remainder", {}))
        exponents = None
        if rem_spec:
            if rem_spec.get("type") != "abs_power":
                raise CliError("remainder type must be 'abs_power'")
            exponents = _integers(rem_spec, "exponents")
        approach = _approach_from_spec(
            {"base_point": ["0"] * mt.dim, "normal": ["0"] * (mt.dim - 1) + ["1"], **spec},
            mt.dim,
        )
        family = scaling.make_anisotropic(poly, mt, approach, exponents)
        if "invariance" in checks:
            ok = scaling.invariance_check(poly, mt, int(spec.get("trials", 10_000)), args.seed)
            outputs["invariance"] = [{"invariant_under_dilations": ok}]
            passed &= ok
    else:
        if spec.get("domain", "punctured") != "punctured":
            raise CliError("only the punctured disc is built in; domain must be 'punctured'")
        approach = _approach_from_spec(spec, 1)
        report = scaling.convergence_experiment(PuncturedDisc(), approach)
        factor = _mode(args).factor
        outputs["convergence"] = [dict(vars(r), upper_bound=r.upper_bound / factor) for r in report.rows]
        return outputs, report.strictly_decreasing

    if "hausdorff" in checks:
        g = _object("grid", spec.get("grid", {}))
        lo, hi, n = float(g.get("min", -2)), float(g.get("max", 2)), int(g.get("n", 15))
        grid = _hausdorff_grid(lo, hi, n, family.limit.dim)
        report = scaling.hausdorff_check(family, grid, float(spec.get("tol", 1e-2)))
        outputs["hausdorff"] = [dict(vars(r)) for r in report.rows]
        passed &= report.passed
    if "ball_inclusion" in checks:
        bi = _object("ball_inclusion", spec.get("ball_inclusion", {}))
        # R and eps are in the units of --mode; R/f - eps/f == (R - eps)/f exactly
        factor = _mode(args).factor
        report = scaling.ball_inclusion_check(
            family,
            radius=float(bi.get("R", 1.0)) / factor,
            eps=float(bi.get("eps", 0.1)) / factor,
            samples=int(bi.get("samples", 200)),
            seed=args.seed,
        )
        outputs["ball_inclusion"] = [dict(vars(r), max_distance=r.max_distance * factor) for r in report.rows]
        passed &= report.passed
    return outputs, passed


def cmd_scale(args) -> int:
    path = Path(args.spec)
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read experiment spec {path}: {exc}") from exc
    try:
        outputs, passed = _run_scale_spec(_object("the experiment spec", spec), args)
    except KeyError as exc:
        raise CliError(f"experiment spec {path} lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad experiment spec {path}: {exc}") from exc
    out_dir = Path(args.out) if args.out else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "json"
    for name, rows in sorted(outputs.items()):
        write_rows(rows, args.format, out_dir / f"{path.stem}_{name}.{ext}")
    print(f"{'pass' if passed else 'FAIL'}: {', '.join(sorted(outputs))} -> {out_dir}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    results = verify.run_all(verify.RunConfig(seed=args.seed))
    failed = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.checks} checks")
        for msg in res.failures[:5]:
            print(f"      {msg}")
        failed += not res.passed
    total = sum(r.checks for r in results)
    print(f"{len(results) - failed}/{len(results)} suites passed ({total} checks)")
    return 0 if failed == 0 else 1


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds a generator only from a nonnegative integer."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: every call
    returns the same parser."""
    parser = _Parser(
        prog="biholo",
        description="hyperbolic metrics and biholomorphic invariants on model domains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["json", "csv"], default="json", help="output format")
    output.add_argument("--out", default=None, help="output file (dist/fridman/squeeze) or directory (scale)")
    metric = argparse.ArgumentParser(add_help=False)
    metric.add_argument("--mode", choices=["poincare", "kobayashi"], default="poincare",
                        help="metric normalization (poincare = twice kobayashi)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0, help="RNG seed (a nonnegative integer)")

    p_dist = sub.add_parser("dist", parents=[metric, output], help="Kobayashi distance between two points")
    p_dist.add_argument("domain")
    p_dist.add_argument("p")
    p_dist.add_argument("q")
    p_dist.set_defaults(func=cmd_dist)

    # squeezing is a ratio of euclidean radii, so squeeze takes no --mode
    for kind, blurb, parents in (
        ("fridman", "Fridman invariant", [metric, output]),
        ("squeeze", "squeezing function", [output]),
    ):
        p_inv = sub.add_parser(kind, parents=parents, help=blurb)
        p_inv.add_argument("domain")
        p_inv.add_argument("point")
        p_inv.set_defaults(func=cmd_invariant, kind=kind)

    p_scale = sub.add_parser(
        "scale",
        parents=[metric, output, seeded],
        help="run a scaling experiment spec",
        epilog=(
            "Writes one file per declared check. Stable CSV columns: "
            "hausdorff -> j, delta, sup_error, membership_agreement; "
            "ball_inclusion -> j, delta, inside, max_distance; "
            "convergence -> j, modulus, upper_bound."
        ),
    )
    p_scale.add_argument("spec", help="JSON experiment spec file")
    p_scale.set_defaults(func=cmd_scale)

    p_verify = sub.add_parser("verify", parents=[seeded], help="closed-form vs oracle suites")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:  # an OSError here is an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
