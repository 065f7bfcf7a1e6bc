"""Scenario runner: exit codes, reports, determinism, output files."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nhfields
from nhfields.cli import (
    CONFIG_TABLE,
    DEFAULT_TOLERANCES,
    MAX_GRID_POINTS,
    MAX_POINTS,
    MAX_TUPLES,
    dumps_report,
    format_float,
    load_config,
    main,
)
from nhfields.exceptions import ConfigError, NhfieldsError
from nhfields.verify import CHECK_BOUNDS, first_failure

from helpers import traced_peak


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


def test_an_ill_conditioned_compatibility_matrix_fails_as_compatibility(tmp_path, capsys):
    path = write_config(
        tmp_path, constraint={"name": "linear-transport", "params": {"speed": 1.000000000001}},
        tolerances={"compatibility": 1e-16})
    assert main(["--config", str(path)]) == 1
    assert "CompatibilityError" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["points"]) == 5
    for entry in report["points"]:
        assert entry["error"].startswith("CompatibilityError: ")
        assert "condition number" in entry["error"]


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
    for mode, csv in (("chetaev", ""), ("custom", str(coeffs))):
        constraint = {"name": "linear-transport", "params": {"speed": 2.0},
                      "coeffs_csv": csv}
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


# the smallest fluid grid (nu^3 points) beyond the grid bound
_FLUID_NU_BEYOND = round(MAX_GRID_POINTS ** (1 / 3)) + 1
assert (_FLUID_NU_BEYOND - 1) ** 3 <= MAX_GRID_POINTS < _FLUID_NU_BEYOND ** 3


@pytest.mark.parametrize("overrides, key", [
    ({"task": "evolve", "grid": {"nu": "x"}}, "grid.nu"),
    ({"task": "evolve", "grid": {"nu": 0}}, "grid.nu"),
    ({"task": "evolve", "dt": "abc"}, "dt"),
    ({"task": "evolve", "dt": 0}, "dt"),
    ({"task": "evolve", "dt": -1e-3}, "dt"),
    ({"task": "evolve", "dt": float("nan")}, "dt"),
    ({"task": "evolve", "dt": float("inf")}, "dt"),
    ({"task": "evolve", "steps": -5}, "steps"),
    ({"task": "evolve", "steps": "3"}, "steps"),
    ({"points": "x"}, "points"),
    ({"points": 0}, "points"),
    ({"points": 2.5}, "points"),
    ({"tuples": 0}, "tuples"),
    ({"tuples": True}, "tuples"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"tolerances": {"zeta": "x"}}, "tolerances.zeta"),
    ({"tolerances": {"nh_form": 0}}, "tolerances.nh_form"),
    ({"tolerances": {"projector": -1e-9}}, "tolerances.projector"),
    ({"tolerances": {"tangency": float("nan")}}, "tolerances.tangency"),
    ({"tolerances": {"free_ddw": float("inf")}}, "tolerances.free_ddw"),
    ({"task": "evolve", "drift_tol": "x"}, "drift_tol"),
    ({"task": "evolve", "drift_tol": -1}, "drift_tol"),
    ({"task": "evolve", "constraint": None,
      "model": {"name": "quadratic", "params": {"n": "x"}}}, "model.params.n"),
    ({"constraint": {"name": "linear-transport", "params": {"speed": "x"}}},
     "constraint.params.speed"),
    ({"task": "evolve", "constraint": {"name": "linear-transport",
                                       "params": {"speed": "x"}}}, "constraint.params.speed"),
    ({"task": "evolve", "initial": {"amplitude": "x"}}, "initial.amplitude"),
    ({"task": "evolve", "initial": {"mode": "x"}}, "initial.mode"),
    # integers beyond uint64 and beyond the float range
    ({"task": "evolve", "drift_tol": -10**20}, "drift_tol"),
    ({"tolerances": {"free_ddw": 10**400}}, "tolerances.free_ddw"),
    ({"task": "evolve", "initial": {"amplitude": 10**400}}, "initial.amplitude"),
    ({"constraint": {"name": "linear-transport", "params": {"speed": -10**400}}},
     "constraint.params.speed"),
    # sizes beyond their bounds, which are checked before anything is allocated
    ({"task": "evolve", "grid": {"nu": 10**400}}, "grid.nu"),
    ({"task": "evolve", "grid": {"nu": MAX_GRID_POINTS + 1}}, "grid.nu"),
    ({"task": "evolve", "model": {"name": "fluid"}, "constraint": {"name": "incompressibility"},
      "grid": {"nu": _FLUID_NU_BEYOND}}, "grid.nu"),
    ({"points": 10**400}, "points"),
    ({"points": MAX_POINTS + 1}, "points"),
    ({"tuples": 10**400}, "tuples"),
    ({"tuples": MAX_TUPLES + 1}, "tuples"),
])
def test_bad_numeric_key_exits_2_naming_it(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **overrides)
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{key} must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"task": "evolve", "integrator": "rk5"}, "integrator"),
    ({"task": "evolve", "derivative": "cheb"}, "derivative"),
    ({"task": "evolve", "mode": "bogus"}, "mode"),
    ({"task": "evolve", "stabilize": "yes"}, "stabilize"),
    ({"model": "wave"}, "model"),
    ({"constraint": "linear-transport"}, "constraint"),
    ({"output_dir": 5}, "output_dir"),
    ({"tolerances": []}, "tolerances"),
    ({"tolerances": 5}, "tolerances"),
    ({"constraint": {"name": "linear-transport", "coeffs_csv": 5}}, "constraint.coeffs_csv"),
    # keys no table names, at any depth
    ({"task": "evolve", "grid": {"nuu": 9}}, "grid.nuu"),
    ({"task": "evolve", "initial": {"amplitud": 0.1}}, "initial.amplitud"),
    ({"model": {"name": "wave", "prams": {}}}, "model.prams"),
    # keys that are gone: the coefficients follow from coeffs_csv, and the
    # initial data is always a sine
    ({"constraint": {"name": "linear-transport", "mode": "chetaev"}}, "constraint.mode"),
    ({"task": "evolve", "initial": {"type": "sine"}}, "initial.type"),
    # the state mode follows the constraint; a free fulljet run is not offered
    ({"task": "evolve", "mode": "fulljet"}, "mode"),
])
def test_bad_named_key_exits_2_naming_it(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **overrides)
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{key} must be" in err
    assert not (tmp_path / "out").exists()


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    """``python -m nhfields`` with only the source tree on the path is the
    ``nhfields`` script: a bad key exits 2 and names it."""
    path = write_config(tmp_path, "bad.json", task="evolve", grid={"nuu": 9})
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "nhfields", "--config", str(path)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error") and "grid.nuu must be" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, named", [
    ({"model": {"name": "nope"}}, "model.name must be"),
    ({"constraint": {"params": {"speed": 2.0}}}, "constraint.name must be"),
    ({"constraint": None}, "constraint must be"),
    ({"points": 1, "tuples": 2}, "tuples = 2 is below 3"),
    ({"task": "evolve", "constraint": None, "steps": 1, "grid": {"nu": 4},
      "model": {"name": "quadratic", "params": {"n": 2}}}, "model must be"),
    ({"task": "evolve", "constraint": None, "steps": 1, "grid": {"nu": 4},
      "model": {"name": "quadratic", "params": {"n": 1.5}}}, "n must be an integer >= 1"),
    ({"model": {"name": "wave", "params": {"speed": 1.0}}}, "model.params"),
    ({"constraint": {"name": "linear-transport", "params": {"dims": 1}}},
     "constraint.params"),
])
def test_scenario_error_exits_2_without_an_output_directory(tmp_path, capsys, overrides,
                                                             named):
    path = write_config(tmp_path, **overrides)
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not (tmp_path / "out").exists()


def test_output_dir_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "out").write_text("")
    assert main(["--config", str(write_config(tmp_path, points=1))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "output_dir must be" in err
    assert (tmp_path / "out").is_file()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_initial_data_beyond_the_float_range_exits_1(tmp_path, capsys):
    # the spectral derivative of a 1e308 sine overflows before the Newton
    # projection onto the constraint set starts
    path = write_config(tmp_path, task="evolve", steps=1, grid={"nu": 8},
                        initial={"amplitude": 1e308})
    assert main(["--config", str(path)]) == 1
    assert "non-finite constraint values" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, failure", [
    ({"points": 1}, "verify FAILED: RegularityError at point 0"),
    ({"task": "evolve", "grid": {"nu": 4}, "steps": 1}, "error: RegularityError"),
])
def test_a_non_finite_zeta_exits_1_with_a_regularity_error(tmp_path, capsys, overrides,
                                                            failure):
    # a density of 1e-308 leaves a Hessian whose zeta solve is not finite
    path = write_config(tmp_path, model={"name": "fluid", "params": {"rho": 1e-308}},
                        constraint={"name": "incompressibility"}, **overrides)
    assert main(["--config", str(path)]) == 1
    assert failure in capsys.readouterr().err


def test_fluid_defaults_fill_a_fluid_evolve_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "evolve", "model": {"name": "fluid"},
                                "constraint": {"name": "incompressibility"}}))
    cfg = load_config(path)
    assert cfg["grid"]["nu"] == 8
    assert cfg["initial"]["amplitude"] == 0.01
    assert cfg["initial"]["velocity"] == 0.005


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--seed", "-1"]) == 2
    assert "seed must be" in capsys.readouterr().err


def test_integrator_name_is_case_insensitive(tmp_path):
    assert load_config(write_config(tmp_path, integrator="RK4"))["integrator"] == "RK4"


def test_verify_needs_more_tuples_than_fitted_multipliers(tmp_path, capsys):
    # linear transport on the wave: the form check fits k(n+1) = 2 multipliers
    path = write_config(tmp_path, points=1, tuples=2)
    assert main(["--config", str(path)]) == 2
    assert "tuples = 2 is below 3" in capsys.readouterr().err
    path = write_config(tmp_path, points=1, tuples=3)
    assert main(["--config", str(path)]) == 0


def test_sampled_points_depend_on_the_seed_alone(tmp_path):
    points = []
    for tuples in (5, 50):
        out = tmp_path / f"tuples{tuples}"
        path = write_config(tmp_path, points=4, tuples=tuples, output_dir=str(out))
        assert main(["--config", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        points.append([entry["point"] for entry in report["points"]])
    assert points[0] == points[1]


FLUID = {"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}}
INCOMPRESSIBILITY = {"name": "incompressibility"}


@pytest.mark.parametrize("chunk_bytes, chunks", [(None, 1), (1, 3)])
def test_verify_builds_one_bundle_and_one_constraint_pass_per_chunk(
        tmp_path, monkeypatch, chunk_bytes, chunks):
    # the Newton sampling of the points makes constraint passes of its own
    from nhfields import cli, verify
    from nhfields.constraint import ConstraintSpec

    calls = {"bundle": 0, "dphi": 0}
    sampling = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += not sampling[0]
            return fn(*args, **kwargs)
        return wrapper

    def sample(*args):
        sampling[0] = True
        try:
            return real_sample(*args)
        finally:
            sampling[0] = False

    real_sample = cli.sample_constraint_point
    monkeypatch.setattr(cli, "sample_constraint_point", sample)
    monkeypatch.setattr(verify, "derivative_bundle_arrays",
                        counted("bundle", verify.derivative_bundle_arrays))
    # every constraint evaluation (dphidv_arrays included) is one evaluate pass
    monkeypatch.setattr(ConstraintSpec, "evaluate", counted("dphi", ConstraintSpec.evaluate))
    if chunk_bytes is not None:  # a chunk of one point
        monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
    path = write_config(tmp_path, points=3, tuples=5, model=FLUID, constraint=INCOMPRESSIBILITY)
    assert main(["--config", str(path)]) == 0
    assert calls == {"bundle": chunks, "dphi": chunks}
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(entry["semiholonomic"] == 0.0 for entry in report["points"])


SAMPLED = {
    "fluid": (FLUID, INCOMPRESSIBILITY),
    "wave": ({"name": "wave"}, {"name": "linear-transport", "params": {"speed": 2.0}}),
    "coupled": ({"name": "quadratic", "params": {"n": 3, "m": 3, "coupling": 0.5}},
                INCOMPRESSIBILITY),
}


@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("scenario", sorted(SAMPLED))
def test_sampled_points_do_not_depend_on_the_chunk_size(tmp_path, scenario, seed):
    from nhfields import cli

    from helpers import sample_point_oracle

    model_cfg, constraint_cfg = SAMPLED[scenario]
    cfg = load_config(write_config(tmp_path, model=model_cfg, constraint=constraint_cfg))
    model, spec = cli.build_scenario(cfg)
    rng = np.random.default_rng(seed)
    oracle = [sample_point_oracle(model, spec, rng) for _ in range(7)]

    def bits(pts):
        return [p.x.tobytes() + p.y.tobytes() + p.v.tobytes() for p in pts]

    for size in (1, 3, 7):
        chunked = np.random.default_rng(seed)
        pts = []
        for lo in range(0, 7, size):
            pts += cli.sample_constraint_point(model, spec, chunked, min(size, 7 - lo), lo)
        assert bits(pts) == bits(oracle)
        assert chunked.bit_generator.state == rng.bit_generator.state


def test_a_failed_newton_projection_names_its_point():
    from nhfields import cli
    from nhfields.constraint import ConstraintSpec
    from nhfields.jet import Dims

    # phi = v0^2 + x0 has no real root where x0 > 0, and |phi| >= x0 there
    spec = ConstraintSpec(Dims(1, 1, 1), [lambda x, y, v: v[0][0] * v[0][0] + x[0]])
    draws = np.random.default_rng(3)
    x0 = []
    for _ in range(6):  # the draws of each wave point: x, y, v
        x0.append(draws.uniform(-1.0, 1.0, 2)[0])
        draws.uniform(-1.0, 1.0, 1)
        draws.uniform(-1.0, 1.0, (1, 2))
    bad = next(i for i, x in enumerate(x0) if x > 0)
    assert bad > 0
    with pytest.raises(NhfieldsError, match="Newton projection onto the constraint set "
                       rf"failed at point {10 + bad}: max\|phi\| = (\S+) after 50 steps") as exc:
        cli.sample_constraint_point(cli.make_model("wave"), spec, np.random.default_rng(3), 6, 10)
    assert float(re.search(r"= (\S+) after", str(exc.value))[1]) >= x0[bad]


# A custom coefficient field whose compatibility matrix is near singular at
# point 6 of seed 1 (its projector invariants fail there, after the zeta
# tuples are drawn), incompatible at point 2 under a loose compatibility
# tolerance, and sampled points off the constraint set by about 1e-16 from
# point 3 on.
MIXED_COEFFS = "0,0,0,0,0,0,0,-0.967,0,0,0.627,0\n"
MIXED = {"model": {"name": "quadratic", "params": {"n": 3, "m": 3}},
         "constraint": {"name": "incompressibility", "coeffs_csv": "C.csv"}}


def pointwise_chain(model, spec, p, rng, tols, tuples):
    """The identity chain at one point through the pointwise API, in the
    order of its checks: the oracle of the batched chain."""
    from nhfields.constraint import ConstraintPoint, constraint_rank_check
    from nhfields.ddw import (
        nh_ddw_residual,
        project_connection,
        solve_constrained_ddw,
        solve_free_ddw,
    )
    from nhfields.jet import semiholonomic_residual
    from nhfields.lagrangian import derivative_bundle, regularity_check
    from nhfields.projector import (
        build_projectors,
        compatibility_matrix,
        solve_zeta,
        zeta_residual,
    )

    out = {}
    bundle = derivative_bundle(model, p)
    reg = regularity_check(bundle)
    out["hessian_det"], out["regular"] = reg["det"], reg["regular"]
    cp = spec.at(p)
    out["rank"] = constraint_rank_check(cp)
    zb = solve_zeta(bundle, cp.coeffs)
    out["zeta_residual"] = zeta_residual(bundle, cp.coeffs, zb, p, rng, tuples)
    comp = compatibility_matrix(zb.zeta, cp.dphidv, tols["compatibility"])
    out["compatibility_det"], out["compatible"] = comp["det"], comp["compatible"]
    if not comp["compatible"]:
        return out
    pp = build_projectors(zb, cp, tol=tols["projector"], comp=comp)
    out["projector_residual"] = max(np.abs(pp.P @ pp.P - pp.P).max(),
                                    np.abs(pp.P + pp.Q - np.eye(len(pp.P))).max(),
                                    np.abs(pp.dphi @ pp.P).max())
    free = solve_free_ddw(bundle, p.v)
    out["free_ddw_residual"] = nh_ddw_residual(
        bundle, ConstraintPoint.unconstrained(p), free, rng, tuples)["form_residual"]
    out["semiholonomic"] = semiholonomic_residual(free.coeffs, p)
    res = nh_ddw_residual(bundle, cp, project_connection(free, pp), rng, tuples)
    out["nh_form_residual"] = res["form_residual"]
    out["nh_tangency_residual"] = res["tangency_residual"]
    out["lambda_match"] = res["lam_gap"]
    res = nh_ddw_residual(bundle, cp, solve_constrained_ddw(bundle, cp), rng, tuples)
    out["direct_form_residual"] = res["form_residual"]
    out["direct_tangency_residual"] = res["tangency_residual"]
    return out


@pytest.mark.parametrize("overrides, outcomes", [
    ({"points": 5, "tuples": 3}, {"pass"}),
    ({"points": 4, "model": {"name": "quadratic", "params": {"n": 3, "m": 3, "coupling": 0.5}},
      "constraint": INCOMPRESSIBILITY}, {"pass"}),
    ({"points": 4, "model": FLUID, "constraint": INCOMPRESSIBILITY}, {"pass"}),
    ({"points": 8, **MIXED, "tolerances": {"compatibility": 1e-16, "projector": 1e-14}},
     {"pass", "CompatibilityError"}),
    ({"points": 5, **MIXED,
      "tolerances": {"compatibility": 0.02, "projector": 1e-14, "on_constraint": 1e-16}},
     {"pass", "incompatible", "OffConstraintError"}),
], ids=["wave", "coupled", "fluid", "mixed-error", "mixed-off"])
def test_a_batch_of_points_equals_batches_of_one_bitwise(tmp_path, monkeypatch, overrides,
                                                         outcomes):
    from nhfields import cli, verify

    overrides = {"tuples": 5, **overrides}
    if "coeffs_csv" in overrides.get("constraint", {}):
        (tmp_path / "C.csv").write_text(MIXED_COEFFS)
        overrides["constraint"] = {**overrides["constraint"], "coeffs_csv": str(tmp_path / "C.csv")}
    cfg = load_config(write_config(tmp_path, **overrides))
    model, spec = cli.build_scenario(cfg)
    rng = np.random.default_rng(cfg["seed"])
    pts = cli.sample_constraint_point(model, spec, rng, cfg["points"])

    def chunked(size):
        tuple_rng = np.random.default_rng(7)
        out = []
        for lo in range(0, len(pts), size):
            out += verify.verify_points(model, spec, pts[lo:lo + size], tuple_rng,
                                        cfg["tolerances"], cfg["tuples"])
        return ([list(o.items()) if isinstance(o, dict) else f"{type(o).__name__}: {o}"
                 for o in out], tuple_rng.bit_generator.state)

    batch, state = chunked(len(pts))
    assert (batch, state) == chunked(1)
    tuple_rng, oracle = np.random.default_rng(7), []
    # each point takes one block of tuples, however far its checks get
    block = cfg["tuples"] * model.dims.N * (4 * model.dims.nx + 3)
    for p in pts:
        before = tuple_rng.bit_generator.state
        try:
            oracle.append(list(pointwise_chain(model, spec, p, tuple_rng, cfg["tolerances"],
                                               cfg["tuples"]).items()))
        except NhfieldsError as exc:
            oracle.append(f"{type(exc).__name__}: {exc}")
        tuple_rng.bit_generator.state = before
        tuple_rng.uniform(-1.0, 1.0, block)
    assert (batch, state) == (oracle, tuple_rng.bit_generator.state)
    assert {("pass" if dict(o)["compatible"] else "incompatible") if isinstance(o, list)
            else o.split(":")[0] for o in batch} == outcomes
    reports = []
    for chunk_bytes in (verify._CHUNK_BYTES, 1):
        monkeypatch.setattr(verify, "_CHUNK_BYTES", chunk_bytes)
        main(["--config", str(tmp_path / "cfg.json")])
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("tolerances", [
    {"compatibility": 1e-16, "projector": 1e-14},
    {"compatibility": 0.02, "projector": 1e-14, "on_constraint": 1e-16},
], ids=["mixed-error", "mixed-off"])
def test_a_failing_point_moves_no_other_points_checks(tmp_path, tolerances):
    from nhfields import cli, verify

    (tmp_path / "C.csv").write_text(MIXED_COEFFS)
    cfg = load_config(write_config(
        tmp_path, points=20, tuples=5, tolerances=tolerances,
        **{**MIXED, "constraint": {**MIXED["constraint"], "coeffs_csv": str(tmp_path / "C.csv")}}))
    model, spec = cli.build_scenario(cfg)
    pts = cli.sample_constraint_point(model, spec, np.random.default_rng(cfg["seed"]),
                                      cfg["points"])

    def chain(pts):
        return [dumps_report(o) if isinstance(o, dict) else f"{type(o).__name__}: {o}"
                for o in verify.verify_points(model, spec, pts, np.random.default_rng(7),
                                              cfg["tolerances"], cfg["tuples"])]

    checks = chain(pts)
    failing = {i for i, o in enumerate(checks) if '"compatible": true' not in o}
    # some point passes after the first that fails
    assert failing and max(set(range(len(pts))) - failing) > min(failing)
    passing = pts[min(set(range(len(pts))) - failing)]
    mended = chain([passing if i in failing else p for i, p in enumerate(pts)])
    assert ([o for i, o in enumerate(mended) if i not in failing]
            == [o for i, o in enumerate(checks) if i not in failing])


def _checked_entry(**residuals):
    """A compatible point's checks, every residual 0 but those given."""
    return {"compatible": True, "compatibility_det": 1.0,
            **{key: 0.0 for key, _ in CHECK_BOUNDS}, **residuals}


def test_a_nan_residual_fails_its_check():
    entry = _checked_entry(nh_form_residual=float("nan"))
    assert (first_failure(entry, 3, DEFAULT_TOLERANCES)
            == "nh_form_residual at point 3: nan > 1.0e-08")


@pytest.mark.parametrize("residuals", [(1e-12, np.nan), (np.nan, 1e-12)])
def test_a_nan_residual_makes_its_maximum_nan_in_either_order(tmp_path, monkeypatch, capsys,
                                                               residuals):
    from nhfields import cli

    values = iter(residuals)
    monkeypatch.setattr(cli, "verify_points", lambda model, spec, pts, *args: [
        _checked_entry(nh_form_residual=next(values)) for _ in pts])
    assert main(["--config", str(write_config(tmp_path, points=2))]) == 1
    summary = json.loads((tmp_path / "out" / "report.json").read_text())["summary"]
    assert summary["max_residuals"]["nh_form_residual"] == "nan"
    assert summary["first_failure"].startswith(
        f"nh_form_residual at point {residuals.index(np.nan)}: nan")
    assert "verify FAILED: nh_form_residual" in capsys.readouterr().err


@pytest.mark.slow
def test_verify_memory_is_bounded_by_the_chunk(tmp_path):
    import tracemalloc

    def peak(points):
        path = write_config(tmp_path, points=points, tuples=2000, model=FLUID,
                            constraint=INCOMPRESSIBILITY)
        tracemalloc.start()
        try:
            assert main(["--config", str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # at 2,000 tuples a chunk is one fluid point, so 64 points peak as one
    assert peak(64) < 1.5 * peak(1)


@pytest.mark.parametrize("model, constraint", [
    ({"name": "wave"}, {"name": "linear-transport", "params": {"speed": 2.0}}),
    ({"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}}, {"name": "incompressibility"}),
])
def test_verify_never_builds_a_term_list_form(tmp_path, monkeypatch, model, constraint):
    # the exterior.Form term lists are the oracle of the form kernels, not a
    # path of the pointwise checks
    from nhfields.exterior import Form

    def refuse(*args, **kwargs):
        raise AssertionError("verify built an exterior.Form")

    monkeypatch.setattr(Form, "eval_batch", refuse)
    monkeypatch.setattr(Form, "from_terms", staticmethod(refuse))
    path = write_config(tmp_path, points=2, model=model, constraint=constraint)
    assert main(["--config", str(path)]) == 0


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


@pytest.mark.parametrize("rows", [128, 2])
def test_table_writer_gives_the_bytes_of_savetxt(tmp_path, monkeypatch, rows):
    """Each block has the text ``np.savetxt`` gives it, non-finite, signed
    zero and subnormal values included, whether or not it is split into
    several % operations."""
    from nhfields import cli

    monkeypatch.setattr(cli, "_TABLE_ROWS", rows)
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(11)
    blocks = [
        np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, tiny], [-tiny, 1e-310, 1.0 / 3.0],
                  [1e300, -1e-300, 123456789.0], [-np.nan, 5e-324, 2.0**-1074 * 3]]),
        np.array([[0.1, -2.5, 7.0]]),  # one row
        np.array([[np.inf], [-0.0], [tiny], [0.5]]),  # one column
        rng.normal(size=(9, 3)) * 10.0 ** rng.uniform(-300, 300, (9, 3)),
    ]
    for i, block in enumerate(blocks):
        for table in ([block], blocks[i:]):
            cli._write_table(tmp_path / "got.csv", ["a", "b"], table)
            with open(tmp_path / "want.csv", "w", newline="") as fh:
                fh.write("a,b\r\n")
                for b in table:
                    np.savetxt(fh, b, fmt="%.17g", delimiter=",", newline="\r\n")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _has_mallopt() -> bool:
    import ctypes
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


FAULTS_OF_A_SECOND_CALL = """
import resource, sys
from nhfields.cli import main
argv = ["--config", sys.argv[1]]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_repeated_fluid_evolve_takes_few_page_faults(tmp_path):
    """With freed buffers kept in the process, a second evolve-fluid call
    (8^3, 2 RK4 steps) reuses the first one's memory; with glibc's default
    thresholds it takes about 5,000 minor faults.  A fresh interpreter,
    since an earlier large allocation in this one raises glibc's dynamic
    thresholds and would hide the faults."""
    path = write_config(tmp_path, task="evolve", model=FLUID, constraint=INCOMPRESSIBILITY,
                        grid={"nu": 8}, dt=1e-3, steps=2,
                        initial={"amplitude": 0.01, "velocity": 0.005})
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", FAULTS_OF_A_SECOND_CALL, str(path)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 200


def test_an_evolve_fluid_call_peaks_below_its_traced_bound(tmp_path, capsys):
    """One evolve-fluid call (8^3, 2 RK4 steps) peaks at 2.12 MiB under
    tracemalloc: each field evaluation holds only the derivative blocks it
    still reads.  It peaked at 2.53 MiB with gathered copies of supports
    placed in several runs, a scratch block per product of one support, J
    held past W and every bundle output allocated, and at 2.77 MiB when
    each product of one support and each scalar map also held its Hessian
    terms in temporaries of their own."""
    path = write_config(tmp_path, task="evolve", model=FLUID, constraint=INCOMPRESSIBILITY,
                        grid={"nu": 8}, dt=1e-3, steps=2, integrator="rk4",
                        derivative="spectral", initial={"amplitude": 0.01, "velocity": 0.005})
    assert traced_peak(lambda: main(["--config", str(path)])) <= 2.2 * 2**20
    capsys.readouterr()


class _NoMallopt:
    def __init__(self, *args, **kwargs):
        pass


def _no_library(*args, **kwargs):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_library, _NoMallopt])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, cdll):
    """Where the C library cannot be loaded or has no ``mallopt``, ``main``
    runs as before and writes the same report."""
    import ctypes

    path = write_config(tmp_path, **_fluid_evolve())
    assert main(["--config", str(path)]) == 0
    want = (tmp_path / "out" / "report.json").read_bytes()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["--config", str(path), "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "report.json").read_bytes() == want


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


def test_zeta_check_draws_the_configured_tuples(tmp_path, monkeypatch):
    import inspect

    from nhfields import verify

    seen = []
    real = verify.zeta_residual_batch

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        seen.append(bound.arguments["vecs"].shape[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "zeta_residual_batch", spy)
    path = write_config(tmp_path, points=2, tuples=7)
    assert main(["--config", str(path)]) == 0
    assert seen == [(2, 7)]  # both points, 7 tuples each


def test_verify_tests_compatibility_once_per_chunk_at_the_configured_tolerance(
        tmp_path, monkeypatch):
    import inspect

    from nhfields import projector, verify

    seen = []
    real = projector.compatibility_matrix

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append((bound.arguments["tol"], len(bound.arguments["zeta"])))
        return real(*args, **kwargs)

    # the projector module's own calls (build_projectors) are seen too
    monkeypatch.setattr(verify, "compatibility_matrix", spy)
    monkeypatch.setattr(projector, "compatibility_matrix", spy)
    path = write_config(tmp_path, points=3, tolerances={"compatibility": 1e-9})
    assert main(["--config", str(path)]) == 0
    assert seen == [(1e-9, 3)]  # one call for the chunk of 3 points


@pytest.mark.parametrize("tolerances, failure", [
    # the sampled points sit within about 1e-17 of the constraint set
    ({"on_constraint": 1e-300}, "OffConstraintError at point 0"),
    # no point's multiplier matrix is that well conditioned
    ({"compatibility": 1e300}, "compatibility at point 0"),
])
def test_verify_reads_its_constraint_tolerances(tmp_path, capsys, tolerances, failure):
    path = write_config(tmp_path, points=2, tolerances=tolerances)
    assert main(["--config", str(path)]) == 1
    assert failure in capsys.readouterr().err


def test_unreadable_coefficient_csv_exits_2_naming_it(tmp_path, capsys):
    path = write_config(tmp_path, constraint={
        "name": "linear-transport", "coeffs_csv": "no-such-file.csv"})
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "constraint.coeffs_csv must be" in err


@pytest.mark.parametrize("entry", ["nan", "inf"])
@pytest.mark.parametrize("task", ["verify", "evolve"])
def test_non_finite_coefficient_csv_exits_2_naming_it(tmp_path, capsys, task, entry):
    coeffs = tmp_path / "C.csv"
    coeffs.write_text(f"{entry},1\n")
    path = write_config(tmp_path, task=task, dt=2e-3, steps=1, grid={"nu": 16}, constraint={
        "name": "linear-transport", "params": {"speed": 2.0}, "coeffs_csv": str(coeffs)})
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "constraint.coeffs_csv" in err
    assert "non-finite" in err
    assert not (tmp_path / "out").exists()


def _fluid_evolve(**extra):
    return dict(task="evolve", model={"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}},
                constraint={"name": "incompressibility"}, dt=1e-3, steps=1,
                grid={"nu": 4}, initial={"amplitude": 0.01, "velocity": 0.005},
                drift_tol=1e-4, **extra)


@pytest.mark.parametrize("overrides, header", [
    (dict(task="evolve", constraint=None, dt=1e-3, steps=3, grid={"nu": 8}),
     "t,u1,y1,ydot1"),
    (_fluid_evolve(),
     "t,u1,u2,u3,y1,y2,y3,v0_1,v0_2,v0_3,"
     "v1_1,v2_1,v3_1,v1_2,v2_2,v3_2,v1_3,v2_3,v3_3"),
])
def test_csv_files_round_trip_the_packed_states(tmp_path, monkeypatch, overrides, header):
    from nhfields import cli
    from nhfields.cauchy import _pack

    results = []
    cli_evolve = cli.evolve

    def keep(*args, **kwargs):
        results.append(cli_evolve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "evolve", keep)
    assert main(["--config", str(write_config(tmp_path, **overrides))]) == 0
    (result,) = results
    out = tmp_path / "out"

    def read(name, expected_header):
        raw = (out / name).read_bytes()
        assert raw.endswith(b"\r\n")
        lines = raw[:-2].split(b"\r\n")
        assert not any(b"\n" in line or b"\r" in line for line in lines)
        assert lines[0].decode() == expected_header
        return np.array([[float(v) for v in line.split(b",")] for line in lines[1:]])

    def bit_equal(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    shape = result.states[0].grid_shape
    coords = np.indices(shape).reshape(len(shape), -1).T / np.array(shape)
    expected = np.concatenate([
        np.column_stack([np.full(len(coords), s.t), coords,
                         _pack(s).reshape(len(coords), -1)])
        for s in result.states
    ])
    assert bit_equal(read("traj_fields.csv", header), expected)
    diags = result.diagnostics
    assert set(diags) == {"t", "max_phi", "holonomy", "eta", "energy"}
    for name in set(diags) - {"t"}:
        table = read(f"diag_{name}.csv", f"t,{name}")
        assert bit_equal(table, np.column_stack([diags["t"], diags[name]]))


def _dotted_keys(table, path=""):
    for key, (rule, _) in table.items():
        if key != "*":
            yield path + key
            if isinstance(rule, dict):
                yield from _dotted_keys(rule, path + key + ".")


def test_readme_config_table_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config keys")[1].split("\n#")[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("| `")]
    assert rows == [f"`{key}`" for key in _dotted_keys(CONFIG_TABLE)]


def _has(obj, dotted: str) -> bool:
    try:
        for part in dotted.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        return False
    return True


def test_readme_module_table_names_only_existing_objects():
    """Every code name in the "What is in the box" table, a call `name(...)`,
    a dotted path `a.b[.c]` or a snake_case identifier, is an attribute of its
    row's module or a dotted path under the nhfields package."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## What is in the box")[1].split("\n## ")[0]
    name = r"[A-Za-z_]\w*"
    checked = []
    for line in section.splitlines():
        if not line.startswith("| `nhfields."):
            continue
        cells = line.split("|")
        module = importlib.import_module(cells[1].strip().strip("`"))
        for token in re.findall(r"`([^`]+)`", "|".join(cells[2:])):
            match = (re.fullmatch(rf"({name}(?:\.{name})*)\(.*", token)
                     or re.fullmatch(rf"({name}(?:\.{name})+)", token)
                     or re.fullmatch(rf"({name}_{name})", token))
            if match is None:
                continue
            dotted = match.group(1)
            assert _has(module, dotted) or ("." in dotted and _has(nhfields, dotted)), \
                f"{module.__name__}: `{token}`"
            checked.append(dotted)
    assert "phi_eval_batch" in checked and "ConstraintSpec.at" in checked


# keys whose integer values set the size of a run, and the first value
# beyond the bound of those that have one
_SIZE_KEYS = {"points", "steps", "tuples", "grid.nu"}
_BEYOND = {"points": MAX_POINTS + 1, "tuples": MAX_TUPLES + 1,
           "grid.nu": MAX_GRID_POINTS + 1}

_FUZZ_BASE = {
    "model": {"name": "wave"},
    "constraint": {"name": "linear-transport", "params": {"speed": 2.0}},
    "points": 1, "steps": 1, "tuples": 5, "grid": {"nu": 8},
}


def _json_values(ints):
    leaf = st.one_of(st.none(), st.booleans(), ints,
                     st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8))
    return st.one_of(leaf, st.lists(leaf, max_size=3),
                     st.dictionaries(st.text(max_size=8), leaf, max_size=3))


@st.composite
def _fuzzed_configs(draw):
    keys = sorted(set(_dotted_keys(CONFIG_TABLE)) | {"constraint.params.speed"})
    key = draw(st.sampled_from(keys))
    if key in _SIZE_KEYS:
        ints = st.integers(-2, 12)
        if key in _BEYOND:
            ints = st.one_of(ints, st.sampled_from([_BEYOND[key], 10**400]))
    else:
        ints = st.one_of(st.integers(), st.sampled_from([2**64, -(2**64) - 1, 10**400]))
    cfg = json.loads(json.dumps(_FUZZ_BASE))
    cfg["task"] = draw(st.sampled_from(["verify", "evolve"]))
    *parents, last = key.split(".")
    node = cfg
    for name in parents:
        if not isinstance(node.get(name), dict):
            node[name] = {}
        node = node[name]
    values = _json_values(ints)
    if key == "output_dir":
        # a string stays a plain relative name, placed in the run's temporary
        # directory below
        values = st.one_of(st.text("abc", min_size=1, max_size=4),
                           values.filter(lambda val: not isinstance(val, str)))
    node[last] = draw(values)
    return cfg


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzzed_configs())
def test_main_never_raises_on_a_fuzzed_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        name = cfg.get("output_dir", "out")
        out = root / (name if isinstance(name, str) else "out")
        cfg["output_dir"] = str(out) if isinstance(name, str) else name
        path = root / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()


@pytest.mark.parametrize("x, text", [
    (float("nan"), '"nan"'), (float("inf"), '"inf"'), (float("-inf"), '"-inf"'),
    (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"), (0.1, "0.10000000000000001"),
])
def test_report_numbers_format_as_before(x, text):
    assert format_float(x) == text
