"""Scenario runner: exit codes, reports, determinism, output files."""

import json

import numpy as np
import pytest

from nhfields.cli import dumps_report, load_config, main
from nhfields.exceptions import ConfigError


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"name": "wave"},
        "constraint": {"name": "linear-transport", "params": {"speed": 2.0}},
        "task": "verify",
        "seed": 1,
        "points": 5,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_verify_wave_passes(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["pass"] is True
    assert len(report["points"]) == 5
    assert report["tolerances"]["nh_form"] == 1e-8
    for entry in report["points"]:
        assert entry["nh_form_residual"] < 1e-8
        assert entry["zeta_residual"] < 1e-9


def test_verify_characteristic_constraint_fails_compatibility(tmp_path, capsys):
    path = write_config(
        tmp_path, constraint={"name": "linear-transport", "params": {"speed": 1.0}}
    )
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "compatibility" in err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["pass"] is False
    assert "compatibility" in report["summary"]["first_failure"]


def test_unknown_model_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, model={"name": "nope"})
    assert main(["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "verify", "frobnicate": 1}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_seeded_reports_are_byte_identical(tmp_path):
    path = write_config(tmp_path, points=3)
    outA = tmp_path / "A"
    outB = tmp_path / "B"
    assert main(["--config", str(path), "--out", str(outA)]) == 0
    assert main(["--config", str(path), "--out", str(outB)]) == 0
    assert (outA / "report.json").read_bytes() == (outB / "report.json").read_bytes()


def test_seed_override_changes_report(tmp_path):
    path = write_config(tmp_path, points=3)
    outA = tmp_path / "A"
    outB = tmp_path / "B"
    assert main(["--config", str(path), "--out", str(outA), "--seed", "1"]) == 0
    assert main(["--config", str(path), "--out", str(outB), "--seed", "2"]) == 0
    assert (outA / "report.json").read_bytes() != (outB / "report.json").read_bytes()


def test_evolve_outputs(tmp_path):
    path = write_config(
        tmp_path,
        task="evolve",
        dt=2e-3,
        steps=10,
        grid={"nu": 32},
        initial={"amplitude": 0.1},
    )
    assert main(["--config", str(path)]) == 0
    out = tmp_path / "out"
    for name in ("traj_fields.csv", "diag_max_phi.csv", "diag_energy.csv",
                 "diag_eta.csv", "diag_holonomy.csv", "report.json"):
        assert (out / name).exists()
    header = (out / "traj_fields.csv").read_text().splitlines()[0]
    assert header.startswith("t,u1,y1")
    report = json.loads((out / "report.json").read_text())
    assert report["max_phi"] < 1e-12  # linear constraint preserved exactly


def test_free_evolve_without_constraint(tmp_path):
    path = write_config(
        tmp_path, task="evolve", constraint=None, dt=1e-3, steps=5,
        grid={"nu": 16},
    )
    assert main(["--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["constraint"] is None


def test_custom_coefficient_mode_from_csv(tmp_path):
    coeffs = tmp_path / "C.csv"
    coeffs.write_text("1.0,-2.0\n")
    path = write_config(
        tmp_path,
        points=3,
        constraint={
            "name": "linear-transport",
            "params": {"speed": 2.0},
            "mode": "custom",
            "coeffs_csv": str(coeffs),
        },
    )
    assert main(["--config", str(path)]) == 0


def test_custom_evolve_reproduces_chetaev_run(tmp_path):
    # the CSV holds the Chetaev coefficients dphi/dv = (1, -2), so both
    # runs must write the same bytes
    coeffs = tmp_path / "C.csv"
    coeffs.write_text("1.0,-2.0\n")
    runs = {}
    for mode in ("chetaev", "custom"):
        constraint = {"name": "linear-transport", "params": {"speed": 2.0},
                      "mode": mode, "coeffs_csv": str(coeffs)}
        path = write_config(tmp_path, name=f"{mode}.json", task="evolve",
                            constraint=constraint, dt=2e-3, steps=5,
                            grid={"nu": 16}, output_dir=str(tmp_path / mode))
        assert main(["--config", str(path)]) == 0
        runs[mode] = tmp_path / mode
    for name in ("report.json", "traj_fields.csv"):
        assert (runs["custom"] / name).read_bytes() == (runs["chetaev"] / name).read_bytes()


def test_fd4_on_a_grid_below_the_stencil_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, task="evolve", derivative="fd4", grid={"nu": 2},
                        steps=1)
    assert main(["--config", str(path)]) == 2
    assert "grid.nu" in capsys.readouterr().err


def test_fluid_evolve_smoke(tmp_path):
    path = write_config(
        tmp_path,
        task="evolve",
        model={"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}},
        constraint={"name": "incompressibility"},
        dt=1e-3,
        steps=2,
        grid={"nu": 4},
        initial={"amplitude": 0.01, "velocity": 0.005},
        drift_tol=1e-4,
    )
    assert main(["--config", str(path)]) == 0
    header = (tmp_path / "out" / "traj_fields.csv").read_text().splitlines()[0]
    assert header.startswith("t,u1,u2,u3,y1,y2,y3,v0_1")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_phi"] < 1e-5


def test_fluid_identities_task(tmp_path):
    path = write_config(tmp_path, task="fluid-identities", model={"name": "fluid"},
                        constraint=None)
    assert main(["--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["pass"] is True
    grids = report["null_lagrangian"]["grids"]
    assert grids[1]["residual"] < 1e-4
    assert 10.0 <= grids[2]["ratio_vs_previous"] <= 22.0
    for row in report["psi_divergence"]:
        assert row["residual"] < 1e-6


def test_float_formatting_17_digits():
    text = dumps_report({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert dumps_report(float("nan")) == '"nan"'


def test_verify_default_scale_all_residuals_within_1e8(tmp_path):
    # the documented reference run: 50 seeded points on the wave scenario
    path = write_config(tmp_path, points=50)
    assert main(["--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    maxima = report["summary"]["max_residuals"]
    assert all(v < 1e-8 for v in maxima.values())
    assert "point" in report["points"][0]


def test_fluid_verify_small(tmp_path):
    path = write_config(
        tmp_path,
        points=3,
        tuples=20,
        model={"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}},
        constraint={"name": "incompressibility"},
    )
    assert main(["--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["pass"] is True
