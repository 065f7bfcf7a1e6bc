"""Scenario runner: exit codes, reports, determinism, output files."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhfields.cli import CONFIG_TABLE, dumps_report, load_config, main
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
    ({"constraint": {"name": "linear-transport", "mode": "custom", "coeffs_csv": 5}},
     "constraint.coeffs_csv"),
    # keys no table names, at any depth
    ({"task": "evolve", "grid": {"nuu": 9}}, "grid.nuu"),
    ({"task": "evolve", "initial": {"amplitud": 0.1}}, "initial.amplitud"),
    ({"model": {"name": "wave", "prams": {}}}, "model.prams"),
])
def test_bad_named_key_exits_2_naming_it(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **overrides)
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{key} must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, named", [
    ({"model": {"name": "nope"}}, "model.name must be"),
    ({"constraint": {"name": "linear-transport", "mode": "bogus"}}, "constraint.mode must be"),
    ({"constraint": {"params": {"speed": 2.0}}}, "constraint.name must be"),
    ({"task": "evolve", "initial": {"type": "cosine"}}, "initial.type must be"),
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


def test_verify_point_builds_one_bundle_and_one_constraint_evaluation(monkeypatch):
    from nhfields import lagrangian
    from nhfields.cli import DEFAULT_TOLERANCES, _CHECK_BOUNDS, _point_checks, sample_constraint_point
    from nhfields.constraint import ConstraintSpec, make_constraint

    model = lagrangian.make_model("fluid", {"kappa": 1.0, "beta": 1.0})
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(1)
    p = sample_constraint_point(model, spec, rng)
    calls = {"bundle": 0, "dphi": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lagrangian, "derivative_bundle_arrays",
                        counted("bundle", lagrangian.derivative_bundle_arrays))
    # every constraint-derivative evaluation (dphidv_arrays included)
    # goes through the full differentials
    monkeypatch.setattr(ConstraintSpec, "full_differentials_arrays",
                        counted("dphi", ConstraintSpec.full_differentials_arrays))
    out = _point_checks(model, spec, p, rng, DEFAULT_TOLERANCES, 5)
    assert calls == {"bundle": 1, "dphi": 1}
    assert all(out[key] < DEFAULT_TOLERANCES[tol] for key, tol in _CHECK_BOUNDS)
    assert out["semiholonomic"] == 0.0


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


def test_zeta_check_draws_the_configured_tuples(tmp_path, monkeypatch):
    import inspect

    from nhfields import cli

    seen = []
    real = cli.zeta_residual

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["tuples"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "zeta_residual", spy)
    path = write_config(tmp_path, points=2, tuples=7)
    assert main(["--config", str(path)]) == 0
    assert seen == [7, 7]


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
        "name": "linear-transport", "mode": "custom", "coeffs_csv": "no-such-file.csv"})
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "constraint.coeffs_csv must be" in err


def _fluid_evolve(**extra):
    return dict(task="evolve", model={"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}},
                constraint={"name": "incompressibility"}, dt=1e-3, steps=1,
                grid={"nu": 4}, initial={"amplitude": 0.01, "velocity": 0.005},
                drift_tol=1e-4, **extra)


@pytest.mark.parametrize("overrides, header", [
    (dict(task="evolve", constraint=None, mode="pde", dt=1e-3, steps=3, grid={"nu": 8}),
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


# keys whose integer values set the size of a run
_SIZE_KEYS = {"points", "steps", "tuples", "grid.nu"}

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
