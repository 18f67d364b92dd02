"""Byte identity of ``biholo scale``: the four experiment specs of the
benchmark's ``scale`` workload (``bench/workloads/scale.py``), run through
``cli.main`` in both formats and both modes at seeds 0 and 1 (the
workload's seed), write files whose sha256 is pinned here.  The library computes Kobayashi radii and distances and the
CLI converts at its edge by an exact power of two, so no byte may move.
This reads ``bench/`` and changes nothing there."""

import hashlib
import json
from pathlib import Path

import pytest

from biholo import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

EXIT = {"isotropic": 0, "anisotropic": 1, "siegel": 0, "convergence": 0}
SHA256 = {
    "poincare": {
        "anisotropic_hausdorff.csv": "a0b63706268969c9cca7ffec2e4d52cd77f8ecc611226e26eb7ee81546c7ed51",
        "anisotropic_hausdorff.json": "5ba50ee580d002f10ca5fe400f24aeabcee5196ad55506ac5326e82d0c40b0ca",
        "anisotropic_invariance.csv": "9f9dedf650dd67688859b8e8d838f007e76280e582062d3521cdbb47658b2d8f",
        "anisotropic_invariance.json": "646dedd3aa1412fbfc0859d1fed280ab7fabae2e4d38c3c02dd1da9397c0e5d5",
        "convergence_convergence.csv": "0ee8d0f9abaf925947f10ba74ea157ad58b6e2731adfdb2da55dd602fe114c5b",
        "convergence_convergence.json": "ab421523e4cf13266fac15e981a2a713568c59958949358d0a50f1160d369ebd",
        "isotropic_ball_inclusion.csv": "b5c3cfd2b39433d57c96e63af009461fd23bc8b49876a63013a70251f4bab49c",
        "isotropic_ball_inclusion.json": "493078fba898887a1f0b54efe50b75e860b44de79c4cd5370c2beafc83ca3a31",
        "isotropic_hausdorff.csv": "51061fd1e73d6f13f9050d42c56014b12f923709ee9f3ecfd93d07247b05c411",
        "isotropic_hausdorff.json": "0ed5501fa2a91f0b560711749e924e1b8afac692a7279c61abee7fc660f183b8",
        "siegel_ball_inclusion.csv": "78c643ce32e5dd539c0bf55aa01d8c63073a7e570c0a3846b623aa1ab735dc9f",
        "siegel_ball_inclusion.json": "91e968cf11e969e12d4d247d1b43634b4d8221efd3c290d4038355f28546fb36",
        "siegel_hausdorff.csv": "f72cfa1ca565922bcce8bb13c1a47c52d9f1dfcc85810205d94f30997bc5944d",
        "siegel_hausdorff.json": "e097488ce3106160c90c114cc1bd1e0653b87562759e19d89c3f787e3da9be53",
        "siegel_invariance.csv": "9f9dedf650dd67688859b8e8d838f007e76280e582062d3521cdbb47658b2d8f",
        "siegel_invariance.json": "646dedd3aa1412fbfc0859d1fed280ab7fabae2e4d38c3c02dd1da9397c0e5d5",
    },
    "kobayashi": {
        "anisotropic_hausdorff.csv": "a0b63706268969c9cca7ffec2e4d52cd77f8ecc611226e26eb7ee81546c7ed51",
        "anisotropic_hausdorff.json": "5ba50ee580d002f10ca5fe400f24aeabcee5196ad55506ac5326e82d0c40b0ca",
        "anisotropic_invariance.csv": "9f9dedf650dd67688859b8e8d838f007e76280e582062d3521cdbb47658b2d8f",
        "anisotropic_invariance.json": "646dedd3aa1412fbfc0859d1fed280ab7fabae2e4d38c3c02dd1da9397c0e5d5",
        "convergence_convergence.csv": "50eaa7965685b52d6bdc466a5b4aa5a9bf38ba1dc0b1289da5ec24f82b78444e",
        "convergence_convergence.json": "e1260900f21b142a41cc047fd2d85ec6e3c2ab4b43e4abf40d4f7deebf840126",
        "isotropic_ball_inclusion.csv": "08a64adfbf72aedcfe4627899f5d0c927f4f15b9085361cc04a6f50146ca5075",
        "isotropic_ball_inclusion.json": "9ca1d14b75de1c29cbf9895842388de1e6b5d8f0410689dde16e8384b1383a38",
        "isotropic_hausdorff.csv": "51061fd1e73d6f13f9050d42c56014b12f923709ee9f3ecfd93d07247b05c411",
        "isotropic_hausdorff.json": "0ed5501fa2a91f0b560711749e924e1b8afac692a7279c61abee7fc660f183b8",
        "siegel_ball_inclusion.csv": "065597f4abaefa7bce16f647fec36af6db980ae276b3bb7a0d3ce2dd6d31fb68",
        "siegel_ball_inclusion.json": "601df93ccf1e2954774aa7725ff53afb3c7e4661cefcc0fa88f45bd05f028dbd",
        "siegel_hausdorff.csv": "f72cfa1ca565922bcce8bb13c1a47c52d9f1dfcc85810205d94f30997bc5944d",
        "siegel_hausdorff.json": "e097488ce3106160c90c114cc1bd1e0653b87562759e19d89c3f787e3da9be53",
        "siegel_invariance.csv": "9f9dedf650dd67688859b8e8d838f007e76280e582062d3521cdbb47658b2d8f",
        "siegel_invariance.json": "646dedd3aa1412fbfc0859d1fed280ab7fabae2e4d38c3c02dd1da9397c0e5d5",
    },
}


# At seed 1 only the Siegel ball-inclusion files differ from seed 0's: the
# Hausdorff, convergence and invariance files and the isotropic ball-inclusion
# files come out the same at both seeds.  Recorded before the steps of an
# approach were evaluated as one array.
SHA256_SEED_1 = {
    "poincare": dict(
        SHA256["poincare"],
        **{
            "siegel_ball_inclusion.csv": "998793170cb0246d1250758d74ca18714d87f3bfdbeef8cf0253b726c3c9a6a0",
            "siegel_ball_inclusion.json": "6b602fd37971f45fbac45322d39189a66a09a0a4fbc29b9501883930ebbb8267",
        },
    ),
    "kobayashi": dict(
        SHA256["kobayashi"],
        **{
            "siegel_ball_inclusion.csv": "06fca93ed4857f29e2ef7b7f2bdace163f03605876eb72afce2d7db64b141d22",
            "siegel_ball_inclusion.json": "a067a0abd0e8b7a60dae519118449e871036b04eb481e0f54911379783bdd1af",
        },
    ),
}
PINS = {0: SHA256, 1: SHA256_SEED_1}


@pytest.fixture
def specs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads.scale import SPECS

    return SPECS


def run_scale(specs, tmp_path, capsys, name, fmt, mode, seed):
    """The sha256 of each file one ``biholo scale`` run writes, and of each
    file it should write, by name."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(specs[name]))
    out = tmp_path / "out"
    code = cli.main(["scale", str(path), "--out", str(out), "--format", fmt, "--mode", mode, "--seed", str(seed)])
    capsys.readouterr()
    assert code == EXIT[name]
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    expected = {k: v for k, v in PINS[seed][mode].items() if k.startswith(f"{name}_") and k.endswith(f".{fmt}")}
    return got, expected


@pytest.mark.parametrize("mode", ["poincare", "kobayashi"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(EXIT))
def test_scale_files_are_byte_identical(specs, tmp_path, capsys, name, fmt, mode):
    got, expected = run_scale(specs, tmp_path, capsys, name, fmt, mode, 0)
    assert got == expected


@pytest.mark.parametrize("mode", ["poincare", "kobayashi"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(EXIT))
def test_scale_files_are_byte_identical_at_seed_1(specs, tmp_path, capsys, name, fmt, mode):
    """The seed of the benchmark's ``scale`` workload."""
    got, expected = run_scale(specs, tmp_path, capsys, name, fmt, mode, 1)
    assert got == expected
