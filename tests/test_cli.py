"""Tests for the command-line runner."""

import argparse
import json
import math

import pytest

from biholo import verify
from biholo.cli import build_parser, main, parse_domain, parse_point
from biholo.domains import (
    Ball,
    Polydisc,
    PuncturedDisc,
    Siegel,
    SlitDisc,
    UpperHalfPlane,
    format_complex,
    parse_complex_literal,
)
from biholo.metrics import kobayashi_distance


class TestParsing:
    def test_domains(self):
        assert parse_domain("ball2") == Ball(2)
        assert parse_domain("polydisc3") == Polydisc(3)
        assert parse_domain("siegel2") == Siegel(2)
        assert parse_domain("disc") == Ball(1)
        assert parse_domain("halfplane") == UpperHalfPlane()
        assert parse_domain("punctured") == PuncturedDisc()

    def test_unknown_domain(self):
        from biholo.cli import CliError

        with pytest.raises(CliError):
            parse_domain("torus")

    def test_points(self):
        assert parse_point("0,0") == (0j, 0j)
        assert parse_point("i") == (1j,)
        assert parse_point("0.5+0.1i,-2i") == (0.5 + 0.1j, -2j)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDist:
    def test_halfplane(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "halfplane", "i", "2i")
        assert code == 0
        record = json.loads(out)
        assert record["distance"] == pytest.approx(0.6931471805599453, abs=1e-12)
        assert record["mode"] == "poincare"

    def test_disc_kobayashi(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "disc", "0", "0.761594", "--mode", "kobayashi"
        )
        record = json.loads(out)
        assert record["distance"] == pytest.approx(1.0, abs=1e-5)
        assert record["mode"] == "kobayashi"

    def test_one_parser_serves_every_call(self, capsys):
        """The parser is built once per process; a flag given to one call
        does not carry over to the next."""
        assert build_parser() is build_parser()
        _, first, _ = run_cli(capsys, "dist", "disc", "0", "0.5", "--mode", "kobayashi")
        _, second, _ = run_cli(capsys, "dist", "disc", "0", "0.5")
        first, second = json.loads(first), json.loads(second)
        assert (first["mode"], second["mode"]) == ("kobayashi", "poincare")
        assert second["distance"] == 2.0 * first["distance"]

    def test_punctured_antipodal(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "punctured", "0.04321", "-0.04321")
        record = json.loads(out)
        # antipodal points of modulus r are 2 asinh(pi / (-2 log r)) apart (Poincare)
        assert record["distance"] == pytest.approx(2.0 * math.asinh(math.pi / (-2.0 * math.log(0.04321))), rel=1e-12)

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "dist", "halfplane", "spam", "2i")
        assert code == 2
        assert "error" in err

    def test_exterior_point_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "dist", "disc", "0", "2")
        assert code == 2

    def test_slit(self, capsys):
        """The CLI's slit disc is the library's, at twice the Kobayashi value."""
        code, out, _ = run_cli(capsys, "dist", "slit", "0.5", "0.3i", "--mode", "poincare")
        assert code == 0
        record = json.loads(out)
        assert record["domain"] == "slit"
        assert record["distance"] == 2.0 * kobayashi_distance(SlitDisc(), 0.5, 0.3j) == 1.8421135644461544

    @pytest.mark.parametrize(
        "spec, message",
        [("siegel1", "the Siegel domain needs dimension >= 2"), ("ball0", "dimension must be >= 1")],
    )
    def test_dimension_out_of_range_is_a_usage_error(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "dist", spec, "0", "0")
        assert code == 2
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("target", [".", "missing/out.json"], ids=["directory", "missing-parent"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, target):
        code, out, err = run_cli(capsys, "dist", "disc", "0", "0.5", "--out", str(tmp_path / target))
        assert code == 2
        assert out == "" and err.startswith("error: ") and str(tmp_path) in err


# dist and fridman records in both modes, as float.hex: the library computes
# Kobayashi values and the CLI converts them by the exact factor, so every
# POINCARE record is the KOBAYASHI one times 2 (distances) or over 2
# (Fridman values), bit for bit
PINNED_RECORDS = [
    (("dist", "disc", "0", "0.5"), {"distance": "0x1.193ea7aad030bp-1"}),
    (("dist", "polydisc3", "0,0,0", "0.5,0.2,-0.7i"), {"distance": "0x1.bc0ed0947fbe9p-1"}),
    (("dist", "punctured", "0.5", "-0.3+0.2i"), {"distance": "0x1.36337567275f6p+0"}),
    (("fridman", "polydisc2", "0,0"), {"value": "0x1.2274aa148de08p+0"}),
    (("fridman", "polydisc3", "0.1,0,0"), {"value": "0x1.84c6572759a9bp+0"}),
    (("fridman", "punctured", "0.5"), {"lower": "0x1.ce05afa2cfd97p-2", "upper": "0x1.ce05afa2cfd97p-1"}),
    (("fridman", "ball2", "0,0"), {"value": "0x0.0p+0"}),
]


@pytest.mark.parametrize("mode", ["poincare", "kobayashi"])
@pytest.mark.parametrize(
    "argv, kobayashi", PINNED_RECORDS, ids=["-".join(argv[:2]) for argv, _ in PINNED_RECORDS]
)
def test_records_are_pinned_bit_for_bit(capsys, argv, kobayashi, mode):
    code, out, _ = run_cli(capsys, *argv, "--mode", mode)
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == mode
    scale = 2.0 if mode == "poincare" else 1.0
    if argv[0] == "fridman":
        scale = 1.0 / scale
    assert {key: record[key] for key in kobayashi} == {
        key: float.fromhex(value) * scale for key, value in kobayashi.items()
    }


@pytest.mark.parametrize("literal", ["-0.2+0.1i", "-i", "-2i"])
class TestPointStartingWithMinus:
    """A point that starts with ``-`` and is not a plain number is a value,
    not a flag, for every subcommand that takes points."""

    def test_dist(self, capsys, literal):
        code, out, _ = run_cli(capsys, "dist", "siegel2", "0,-1", f"{literal},-3")
        assert code == 0
        assert json.loads(out)["q"] == [format_complex(parse_complex_literal(literal)), "-3.0"]

    def test_fridman(self, capsys, literal):
        code, out, _ = run_cli(capsys, "fridman", "siegel2", f"{literal},-3")
        assert code == 0
        assert json.loads(out)["point"] == [format_complex(parse_complex_literal(literal)), "-3.0"]

    def test_squeeze(self, capsys, literal):
        code, out, _ = run_cli(capsys, "squeeze", "siegel2", f"{literal},-3")
        assert code == 0
        record = json.loads(out)
        assert record["point"] == [format_complex(parse_complex_literal(literal)), "-3.0"]
        assert record["value"] == 1.0


class TestInvariantCommands:
    def test_fridman_polydisc(self, capsys):
        code, out, _ = run_cli(capsys, "fridman", "polydisc2", "0,0", "--mode", "kobayashi")
        record = json.loads(out)
        assert record["value"] == pytest.approx(1.134593, abs=1e-6)

    @pytest.mark.parametrize("mode, lower, upper", [
        ("poincare", "0.2255967828332188", "0.4511935656664376"),
        ("kobayashi", "0.4511935656664376", "0.9023871313328752"),
    ])
    def test_fridman_punctured_record_bytes(self, capsys, mode, lower, upper):
        code, out, _ = run_cli(capsys, "fridman", "punctured", "0.5", "--mode", mode)
        assert code == 0
        assert out == (
            f'{{"command": "fridman", "domain": "punctured", "lower": {lower}, "lower_witness": '
            '"the metric ball whose radius is the deck translation length contains the circle of '
            'radius 0.5 around the puncture; a simply connected image cannot", '
            f'"mode": "{mode}", "point": ["0.5"], "upper": {upper}, '
            '"upper_witness": "disc embedded onto the slit disc with 0 -> 0.5"}\n'
        )

    def test_fridman_punctured_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "fridman", "punctured", "0.04321")
        record = json.loads(out)
        assert record["lower"] == pytest.approx(0.567296, abs=1e-4)
        assert record["upper"] == pytest.approx(1.134593, abs=2e-4)
        assert "witness" in record["upper_witness"] or record["upper_witness"]

    @pytest.mark.parametrize(
        "argv",
        [("fridman", "punctured", "0.5,0.3"), ("fridman", "disc", "0.5,0.3"), ("squeeze", "ball2", "0.5")],
        ids=["punctured", "disc", "ball2"],
    )
    def test_wrong_dimension_point_is_a_usage_error(self, tmp_path, capsys, argv):
        out_file = tmp_path / "never.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: expected a point of dimension") and err.count("\n") == 1
        assert out == ""
        assert not out_file.exists()

    def test_squeeze_ball(self, capsys):
        code, out, _ = run_cli(capsys, "squeeze", "ball2", "0,0")
        record = json.loads(out)
        assert record["value"] == 1.0
        assert record["mode"] == "euclidean"

    def test_squeeze_polydisc(self, capsys):
        code, out, _ = run_cli(capsys, "squeeze", "polydisc2", "0.5,-0.1i")
        assert code == 0
        assert json.loads(out)["value"] == 1.0 / math.sqrt(2.0)

    def test_squeeze_punctured_suggests_estimator(self, capsys):
        code, _, err = run_cli(capsys, "squeeze", "punctured", "0.5")
        assert code == 1
        assert "squeezing_lower_from_embedding" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "fridman", "polydisc2", "0,0", "--format", "csv")
        header, row = out.strip().splitlines()
        assert "value" in header.split(",")
        assert code == 0


class TestScale:
    def make_spec(self, tmp_path, payload, name="exp.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_isotropic_spec(self, tmp_path, capsys):
        spec = self.make_spec(
            tmp_path,
            {
                "kind": "isotropic",
                "rho": "disc",
                "base_point": "1",
                "normal": "1",
                "deltas": {"j_start": 3, "j_end": 12},
                "grid": {"min": -2, "max": 2, "n": 15},
                "tol": 1e-2,
                "checks": ["hausdorff", "ball_inclusion"],
                "ball_inclusion": {"R": 1.0, "eps": 0.1, "samples": 60},
            },
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "scale", str(spec), "--out", str(out_dir), "--format", "csv"
        )
        assert code == 0
        hausdorff = (out_dir / "exp_hausdorff.csv").read_text().splitlines()
        assert hausdorff[0] == "j,delta,sup_error,membership_agreement"
        errors = [float(line.split(",")[2]) for line in hausdorff[1:]]
        assert errors == sorted(errors, reverse=True)
        assert (out_dir / "exp_ball_inclusion.csv").exists()

    def test_convergence_spec(self, tmp_path, capsys):
        spec = self.make_spec(
            tmp_path,
            {
                "kind": "convergence",
                "domain": "punctured",
                "base_point": "1",
                "normal": "1",
                "deltas": {"j_start": 1, "j_end": 10},
            },
        )
        out_dir = tmp_path / "conv"
        code, out, _ = run_cli(
            capsys, "scale", str(spec), "--out", str(out_dir), "--format", "csv"
        )
        assert code == 0
        rows = (out_dir / "exp_convergence.csv").read_text().splitlines()
        uppers = [float(line.split(",")[2]) for line in rows[1:]]
        assert uppers == sorted(uppers, reverse=True)
        # |p| = 1 - 2^-j passes 0.9 between j=3 and j=4
        assert uppers[3] < 0.25

    def test_anisotropic_spec_with_invariance(self, tmp_path, capsys):
        spec = self.make_spec(
            tmp_path,
            {
                "kind": "anisotropic",
                "multitype": [1, 4],
                "poly": "1.0 2 | 2\n",
                "remainder": {"type": "abs_power", "exponents": [6]},
                "gamma": 1.5,
                "deltas": {"j_start": 1, "j_end": 10},
                "grid": {"min": -1, "max": 1, "n": 9},
                "tol": 0.5,
                "checks": ["hausdorff", "invariance"],
                "trials": 2000,
            },
        )
        out_dir = tmp_path / "aniso"
        code, out, _ = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 0
        inv = json.loads((out_dir / "exp_invariance.json").read_text())
        assert inv[0]["invariant_under_dilations"] is True

    def test_out_that_is_a_file_is_a_usage_error(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {
            "kind": "convergence", "domain": "punctured", "base_point": "1", "normal": "1",
            "deltas": {"j_start": 1, "j_end": 2},
        })
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(taken))
        assert code == 2
        assert out == "" and err.startswith("error: ") and str(taken) in err
        assert taken.read_text() == ""

    def test_malformed_spec_writes_nothing(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {"kind": "isotropic", "rho": "mystery"})
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "anisotropic", "poly": "1.0 2 | 2\n"},
            {"kind": "anisotropic", "multitype": 4, "poly": "1.0 2 | 2\n"},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 1 | 1\n"},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
             "remainder": {"type": "abs_power", "exponents": [4]}},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
             "remainder": {"type": "abs_power"}},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
             "checks": ["ball_inclusion"]},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
             "checks": ["invariance"], "trials": 0},
            {"kind": "anisotropic", "multitype": [1, 2], "poly": "1.0 1 | 1\n",
             "checks": ["ball_inclusion"], "ball_inclusion": {"samples": 0}},
            {"kind": "isotropic", "base_point": "1", "normal": "1",
             "checks": ["ball_inclusion"], "ball_inclusion": {"R": float("nan")}},
            {"kind": "isotropic", "base_point": "1", "normal": "1",
             "checks": ["ball_inclusion"], "ball_inclusion": {"eps": float("nan")}},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
             "deltas": [float("nan"), 0.25]},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "nan 2 | 2\n"},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "tol": float("nan")},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "tol": 0.0},
            [1, 2],
            {"kind": "anisotropic", "multitype": [1, 4], "poly": 5},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "grid": 5},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "deltas": 5},
            {"kind": "isotropic", "base_point": "1", "normal": "1",
             "checks": ["ball_inclusion"], "ball_inclusion": 5},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n", "remainder": "x"},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "checks": ["nope"]},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "checks": "hausdorff"},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "checks": ["invariance"]},
            {"kind": "isotropic", "base_point": "0.5", "normal": "1", "deltas": {"j_start": 3, "j_end": 8}},
            {"kind": "convergence", "domain": "disc", "base_point": "1", "normal": "1"},
            {"kind": "isotropic", "base_point": "1", "normal": "1", "deltas": []},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n", "normal": ["1", "0"]},
            {"kind": "convergence", "domain": "punctured", "base_point": "1", "normal": "1", "deltas": [2.0]},
            {"kind": "anisotropic", "multitype": [1], "poly": "1.0 2 | 2\n"},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "| 2\n"},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2 2\n"},
            {"kind": "anisotropic", "multitype": [1, 4], "poly": "# none\n\n"},
            {"kind": "anisotropic", "multitype": [1, 2], "poly": "1.0 1 | 1\n-1.0 1 | 1\n"},
            {"kind": "anisotropic", "multitype": [1, 4, 4], "poly": "1.0 2 | 2\n"},
        ],
        ids=["no-multitype", "scalar-multitype", "not-weight-one", "rate-0-remainder",
             "no-exponents", "no-distance", "zero-trials", "zero-samples", "nan-radius", "nan-eps",
             "nan-delta", "nan-coefficient", "nan-tol", "zero-tol", "list-spec", "number-poly",
             "number-grid", "number-deltas", "number-ball-inclusion", "string-remainder",
             "unknown-check", "string-checks", "isotropic-invariance", "base-off-the-boundary",
             "convergence-disc", "empty-deltas", "off-normal", "convergence-outside", "one-entry-multitype",
             "missing-coefficient", "index-lengths-differ", "no-terms", "zero-polynomial", "poly-dimension"],
    )
    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys, payload):
        """Exit 2 with an ``error:`` line, not a traceback, and no file."""
        spec = self.make_spec(tmp_path, payload)
        out_dir = tmp_path / "never"
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""
        assert not out_dir.exists()

    def test_missing_spec_file_is_a_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "scale", str(tmp_path / "missing.json"))
        assert code == 2
        assert out == "" and err.startswith("error: cannot read experiment spec ")

    def test_unknown_kind_is_a_usage_error(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {"kind": "foo"})
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(tmp_path / "never"))
        assert code == 2
        assert out == "" and err == "error: unknown experiment kind 'foo'\n"
        assert not (tmp_path / "never").exists()

    def test_remainder_type_must_be_abs_power(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {
            "kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
            "remainder": {"type": "power", "exponents": [6]},
        })
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(tmp_path / "never"))
        assert code == 2
        assert out == "" and err == "error: remainder type must be 'abs_power'\n"
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("multitype", ["14", 14, ["1", "4"]], ids=["string", "number", "strings"])
    def test_multitype_must_be_a_list_of_integers(self, tmp_path, capsys, multitype):
        """A string is not read one character at a time."""
        spec = self.make_spec(
            tmp_path, {"kind": "anisotropic", "multitype": multitype, "poly": "1.0 2 | 2\n"}
        )
        out_dir = tmp_path / "never"
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: multitype must be a JSON list of integers") and err.count("\n") == 1
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("exponents", [[6.5], ["6"], 6], ids=["fraction", "string", "number"])
    def test_exponents_must_be_a_list_of_integers(self, tmp_path, capsys, exponents):
        """``[6.5]`` is not run as the remainder ``|z1|^6``."""
        spec = self.make_spec(tmp_path, {
            "kind": "anisotropic", "multitype": [1, 4], "poly": "1.0 2 | 2\n",
            "remainder": {"type": "abs_power", "exponents": exponents},
        })
        out_dir = tmp_path / "never"
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: exponents must be a JSON list of integers") and err.count("\n") == 1
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["base_point", "normal"])
    def test_approach_point_of_the_wrong_dimension_is_named(self, tmp_path, capsys, key):
        spec = self.make_spec(tmp_path, {"kind": "isotropic", key: [1, 2]})
        out_dir = tmp_path / "never"
        code, out, err = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 2
        assert err == f"error: {key}: expected a point of dimension 1, got 2\n"
        assert out == ""
        assert not out_dir.exists()

    def test_deterministic_output(self, tmp_path, capsys):
        payload = {
            "kind": "isotropic",
            "rho": "disc",
            "base_point": "1",
            "normal": "1",
            "deltas": {"j_start": 1, "j_end": 6},
            "tol": 0.5,
            "checks": ["hausdorff", "ball_inclusion"],
            "ball_inclusion": {"R": 1.0, "eps": 0.1, "samples": 40},
        }
        outputs = []
        for run in ("a", "b"):
            spec = self.make_spec(tmp_path, payload, name=f"det.json")
            out_dir = tmp_path / f"det_{run}"
            code, _, _ = run_cli(
                capsys, "scale", str(spec), "--out", str(out_dir), "--seed", "11"
            )
            assert code == 0
            outputs.append(
                tuple(
                    (p.name, p.read_bytes())
                    for p in sorted(out_dir.iterdir())
                )
            )
        assert outputs[0] == outputs[1]


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.endswith("\n13/13 suites passed (45212 checks)\n")
        assert "FAIL" not in out

    def test_a_failing_suite_fails_the_run(self, capsys, monkeypatch):
        """A failed suite prints FAIL and its first five messages, indented,
        and the run exits 1."""

        def broken(cfg):
            result = verify.SuiteResult("broken")
            for k in range(7):
                result.expect(k == 0, f"message {k}")
            return result

        monkeypatch.setattr(verify, "ALL_SUITES", [broken, *verify.ALL_SUITES[1:]])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL  broken: 7 checks\n" + "".join(f"      message {k}\n" for k in range(1, 6)) + "pass  " in out
        assert "message 6" not in out
        assert out.splitlines()[-1].startswith("12/13 suites passed (")


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {opt for action in p._actions for opt in action.option_strings if opt != "-h"}
            for name, p in sub.choices.items()
        }
        out = {"--format", "--out"}
        assert flags == {
            "dist": {"--help", "--mode"} | out,
            "fridman": {"--help", "--mode"} | out,
            "squeeze": {"--help"} | out,
            "scale": {"--help", "--mode", "--seed"} | out,
            "verify": {"--help", "--seed"},
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "halfplane", "i", "2i", "--seed", "1"],
            ["squeeze", "ball2", "0,0", "--mode", "kobayashi"],
            ["scale", "spec.json", "--tol", "1e-3"],
            ["verify", "--mode", "kobayashi"],
            ["verify", "--format", "csv"],
            ["verify", "--deck-k", "1"],
        ],
        ids=["dist-seed", "squeeze-mode", "scale-tol", "verify-mode", "verify-format", "verify-deck-k"],
    )
    def test_unread_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify"], ["scale", "spec.json"]], ids=["verify", "scale"])
    def test_negative_seed_is_rejected(self, capsys, argv):
        """numpy seeds only from nonnegative integers; both seeded
        subcommands refuse ``-1`` while parsing, with the same message."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "error: argument --seed: must be a nonnegative integer, got '-1'" in err
