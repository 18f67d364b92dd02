"""Tests for the command-line runner."""

import json

import pytest

from biholo.cli import main, parse_domain, parse_point
from biholo.domains import Ball, Polydisc, PuncturedDisc, Siegel, UpperHalfPlane


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

    def test_punctured_antipodal(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "punctured", "0.04321", "-0.04321")
        record = json.loads(out)
        assert record["distance"] == pytest.approx(0.962424, abs=2e-4)

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "dist", "halfplane", "spam", "2i")
        assert code == 2
        assert "error" in err

    def test_exterior_point_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "dist", "disc", "0", "2")
        assert code == 2


class TestInvariantCommands:
    def test_fridman_polydisc(self, capsys):
        code, out, _ = run_cli(capsys, "fridman", "polydisc2", "0,0", "--mode", "kobayashi")
        record = json.loads(out)
        assert record["value"] == pytest.approx(1.134593, abs=1e-6)

    def test_fridman_punctured_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "fridman", "punctured", "0.04321")
        record = json.loads(out)
        assert record["lower"] == pytest.approx(0.567296, abs=1e-4)
        assert record["upper"] == pytest.approx(1.134593, abs=2e-4)
        assert "witness" in record["upper_witness"] or record["upper_witness"]

    def test_squeeze_ball(self, capsys):
        code, out, _ = run_cli(capsys, "squeeze", "ball2", "0,0")
        record = json.loads(out)
        assert record["value"] == 1.0
        assert record["mode"] == "euclidean"

    def test_squeeze_polydisc_suggests_estimator(self, capsys):
        code, _, err = run_cli(capsys, "squeeze", "polydisc2", "0,0")
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

    def test_malformed_spec_writes_nothing(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {"kind": "isotropic", "rho": "mystery"})
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "scale", str(spec), "--out", str(out_dir))
        assert code == 2
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
    @pytest.mark.parametrize("oracle_width", [[], ["--deck-k", "1"]], ids=["default", "deck-k-1"])
    def test_scaled_down_run_passes(self, capsys, oracle_width):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--theta-grid", "20000",
            "--slit-grid", "5000",
            "--samples", "64",
            *oracle_width,
        )
        assert code == 0
        assert "suites passed" in out
        assert "FAIL" not in out

    def test_invalid_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tol", "0.5")
        assert code == 2
        assert "tolerance" in err
