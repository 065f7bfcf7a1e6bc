"""Scenario runner: verification reports, evolution runs, fluid identities.

Usage:
    nhfields --config scenario.json [--task verify|evolve|fluid-identities]
             [--seed N] [--out DIR]

The config file is plain JSON; command-line flags override its values.
Reports are written with fixed 17-significant-digit float formatting so a
fixed seed reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .cauchy import CauchyState, evolve, grid_derivative
from .constraint import (
    chetaev_coefficients,
    constraint_rank_check,
    load_custom_coeffs_csv,
    make_constraint,
)
from .ddw import nh_ddw_residual, project_connection, solve_constrained_ddw, solve_free_ddw
from .exceptions import (
    ConfigError,
    DriftError,
    IntegrationError,
    NhfieldsError,
)
from .fluid import null_lagrangian_residual, psi_divergence_residual
from .jet import _STENCILS, JetPoint
from .lagrangian import derivative_bundle, make_model, regularity_check
from .projector import build_projectors, compatibility_matrix, solve_zeta, zeta_residual

DEFAULT_TOLERANCES = {
    "on_constraint": 1e-8,
    "zeta": 1e-9,
    "compatibility": 1e-10,
    "projector": 1e-9,
    "free_ddw": 1e-9,
    "nh_form": 1e-8,
    "tangency": 1e-10,
    "lambda_match": 1e-8,
    "null_lagrangian": 1e-4,
    "psi_divergence": 1e-6,
}

DEFAULTS = {
    "task": "verify",
    "seed": 1,
    "points": 50,
    "tuples": 50,
    "model": {"name": "wave", "params": {}},
    "constraint": None,
    "grid": {"nu": 64},
    "dt": 1e-3,
    "steps": 1000,
    "integrator": "rk4",
    "mode": "pde",
    "derivative": "spectral",
    "stabilize": False,
    "drift_tol": 1e-6,
    "initial": {"type": "sine", "amplitude": 1.0, "mode": 1, "velocity": 0.0},
    "output_dir": ".",
}


# ---------------------------------------------------------------------------
# deterministic JSON with fixed float formatting

def format_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def dumps_report(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {dumps_report(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps_report(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


# ---------------------------------------------------------------------------
# configuration

def load_config(path=None, overrides=None) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, val in user.items():
            if key == "tolerances":
                continue
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict) and isinstance(val, dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
        tols = user.get("tolerances", {})
    else:
        tols = {}
    cfg["tolerances"] = dict(DEFAULT_TOLERANCES)
    for key, val in tols.items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance key {key!r}")
        cfg["tolerances"][key] = float(val)
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg[key] = val
    if cfg["task"] not in ("verify", "evolve", "fluid-identities"):
        raise ConfigError(f"unknown task {cfg['task']!r}")
    width = len(_STENCILS[4])
    if cfg["derivative"] == "fd4" and int(cfg["grid"]["nu"]) < width:
        raise ConfigError(
            f"grid.nu = {cfg['grid']['nu']} is too small for the fd4 stencil, "
            f"which needs at least {width} points"
        )
    return cfg


def build_scenario(cfg: dict):
    try:
        return _build_scenario(cfg)
    except (NhfieldsError, TypeError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad scenario: {exc}") from exc


def _build_scenario(cfg: dict):
    model_cfg = cfg.get("model") or {}
    name = model_cfg.get("name", "wave")
    model = make_model(name, model_cfg.get("params") or {})
    spec = None
    ccfg = cfg.get("constraint")
    if ccfg:
        mode = ccfg.get("mode", "chetaev")
        custom = None
        if mode == "custom":
            csv_path = ccfg.get("coeffs_csv")
            if not csv_path:
                raise ConfigError("custom constraint mode needs coeffs_csv")
            dims_probe = make_constraint(ccfg["name"], ccfg.get("params") or {}).dims
            matrix = load_custom_coeffs_csv(csv_path, dims_probe)
            custom = lambda p: matrix
        spec = make_constraint(
            ccfg["name"], ccfg.get("params") or {}, coeff_mode=mode,
            custom_coeffs=custom,
        )
        if (spec.dims.n, spec.dims.m) != (model.dims.n, model.dims.m):
            raise ConfigError(
                f"constraint dims {spec.dims} do not match model dims {model.dims}"
            )
    return model, spec


# ---------------------------------------------------------------------------
# verify task

def sample_constraint_point(model, spec, rng) -> JetPoint:
    """A random point, projected onto the constraint set by Newton steps in
    the jet variables (minimum-norm corrections)."""
    dims = model.dims
    x = rng.uniform(-1.0, 1.0, dims.nx)
    y = rng.uniform(-1.0, 1.0, dims.m)
    if model.name == "fluid":
        v = np.zeros((dims.m, dims.nx))
        v[:, 0] = 0.3 * rng.uniform(-1.0, 1.0, dims.m)
        while True:
            vsp = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))
            if abs(np.linalg.det(vsp)) > 0.3 and np.linalg.cond(vsp) < 20:
                break
        v[:, 1:] = vsp
    else:
        v = rng.uniform(-1.0, 1.0, (dims.m, dims.nx))
    if spec is None:
        return JetPoint(x, y, v)
    for _ in range(50):
        p = JetPoint(x, y, v)
        phi = spec.values(p)
        if np.max(np.abs(phi)) < 1e-12:
            return p
        _, _, dphidv = spec.derivatives(p)
        J = dphidv.reshape(spec.k, -1)
        v = v - (np.linalg.pinv(J) @ phi).reshape(dims.m, dims.nx)
    raise NhfieldsError("Newton projection onto the constraint set failed")


def _point_checks(model, spec, p: JetPoint, rng, tols, tuples: int) -> dict:
    out = {}
    bundle = derivative_bundle(model, p)
    reg = regularity_check(model, p)
    out["hessian_det"] = reg["det"]
    out["regular"] = reg["regular"]
    out["rank"] = constraint_rank_check(spec, p)
    C = chetaev_coefficients(spec, p)
    zb = solve_zeta(bundle, C)
    out["zeta_residual"] = zeta_residual(bundle, C, zb, p, rng=rng)
    comp = compatibility_matrix(zb.zeta, spec.derivatives(p)[2])
    out["compatibility_det"] = comp["det"]
    out["compatible"] = comp["compatible"]
    if not comp["compatible"]:
        return out
    pp = build_projectors(zb, spec, p, tol=tols["projector"])
    N = pp.P.shape[0]
    out["projector_residual"] = float(
        max(
            np.abs(pp.P @ pp.P - pp.P).max(),
            np.abs(pp.P + pp.Q - np.eye(N)).max(),
            np.abs(pp.dphi @ pp.P).max(),
        )
    )
    free = solve_free_ddw(model, p, rng=rng, tuples=tuples)
    out["free_ddw_residual"] = free.residuals["ddw_form"]
    out["semiholonomic"] = free.residuals["semiholonomic"]
    proj = project_connection(free, pp, zb, p, bundle=bundle, coeffs=C,
                              rng=rng, tuples=tuples)
    res = nh_ddw_residual(model, spec, proj, p, rng=rng, tuples=tuples)
    out["nh_form_residual"] = res["form_residual"]
    out["nh_tangency_residual"] = res["tangency_residual"]
    out["lambda_match"] = res["lam_gap"]
    direct = solve_constrained_ddw(model, spec, p, rng=rng, tuples=tuples)
    dres = nh_ddw_residual(model, spec, direct, p, rng=rng, tuples=tuples)
    out["direct_form_residual"] = dres["form_residual"]
    out["direct_tangency_residual"] = dres["tangency_residual"]
    return out


_CHECK_BOUNDS = [
    ("zeta_residual", "zeta"),
    ("projector_residual", "projector"),
    ("free_ddw_residual", "free_ddw"),
    ("semiholonomic", "free_ddw"),
    ("nh_form_residual", "nh_form"),
    ("nh_tangency_residual", "tangency"),
    ("lambda_match", "lambda_match"),
    ("direct_form_residual", "nh_form"),
    ("direct_tangency_residual", "tangency"),
]


def run_verify(cfg: dict, out_dir: Path) -> int:
    model, spec = build_scenario(cfg)
    if spec is None:
        raise ConfigError("the verify task needs a constraint scenario")
    rng = np.random.default_rng(cfg["seed"])
    tols = cfg["tolerances"]
    points = []
    first_failure = None
    for idx in range(int(cfg["points"])):
        p = sample_constraint_point(model, spec, rng)
        entry = {
            "index": idx,
            "point": {
                "x": [float(v) for v in p.x],
                "y": [float(v) for v in p.y],
                "v": [[float(v) for v in row] for row in p.v],
            },
        }
        try:
            entry.update(_point_checks(model, spec, p, rng, tols, int(cfg["tuples"])))
        except NhfieldsError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            if first_failure is None:
                first_failure = f"{type(exc).__name__} at point {idx}"
            points.append(entry)
            continue
        if not entry.get("compatible", False):
            if first_failure is None:
                first_failure = (
                    f"compatibility at point {idx} "
                    f"(det = {entry['compatibility_det']:.3e})"
                )
        else:
            for key, tol_key in _CHECK_BOUNDS:
                if entry[key] > tols[tol_key] and first_failure is None:
                    first_failure = (
                        f"{key} at point {idx}: {entry[key]:.3e} > {tols[tol_key]:.1e}"
                    )
        points.append(entry)

    maxima = {}
    for key, _ in _CHECK_BOUNDS:
        vals = [e[key] for e in points if key in e]
        maxima[key] = max(vals) if vals else None
    report = {
        "task": "verify",
        "model": model.name,
        "constraint": spec.name,
        "seed": int(cfg["seed"]),
        "points": points,
        "tolerances": tols,
        "note": "free solutions use the minimum-norm member of the "
                "underdetermined second-order system",
        "summary": {
            "pass": first_failure is None,
            "first_failure": first_failure,
            "max_residuals": maxima,
        },
    }
    (out_dir / "report.json").write_text(dumps_report(report) + "\n")
    if first_failure is not None:
        print(f"verify FAILED: {first_failure}", file=sys.stderr)
        return 1
    print(f"verify passed: {len(points)} points, report at {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# evolve task

def build_initial_state(cfg: dict, model, spec) -> CauchyState:
    init = cfg.get("initial") or {}
    kind = init.get("type", "sine")
    dims = model.dims
    if model.name == "fluid":
        N = int(cfg["grid"].get("nu", 8))
        u = np.arange(N) / N
        U = np.meshgrid(u, u, u, indexing="ij")
        amp = float(init.get("amplitude", 0.01))
        disp = np.zeros((N, N, N, 3))
        disp[..., 0] = amp * np.sin(2 * np.pi * U[1])
        vi = np.broadcast_to(np.eye(3), (N, N, N, 3, 3)).copy()
        vi[..., 0, 1] += amp * 2 * np.pi * np.cos(2 * np.pi * U[1])
        v0 = np.zeros((N, N, N, 3))
        v0[..., 0] = float(init.get("velocity", 0.005)) * np.sin(2 * np.pi * U[2])
        return CauchyState(0.0, disp, "fulljet", v0=v0, vi=vi, y_offset="identity")
    if dims.n != 1:
        raise ConfigError("evolve initial data is built in for n = 1 and the fluid")
    if kind != "sine":
        raise ConfigError(f"unknown initial data type {kind!r}")
    N = int(cfg["grid"].get("nu", 64))
    u = np.arange(N) / N
    amp = float(init.get("amplitude", 1.0))
    mode = int(init.get("mode", 1))
    y = amp * np.sin(2 * np.pi * mode * u)[:, None] * np.ones(dims.m)
    ydot = float(init.get("velocity", 0.0)) * np.ones((N, dims.m))
    if (cfg["mode"] if spec is None else "fulljet") == "pde":
        return CauchyState(0.0, y, "pde", ydot=ydot)
    v1 = grid_derivative(y, (N,), 0, cfg["derivative"])
    vi = v1[..., None]
    if spec is not None:
        # start on the constraint set: solve phi = 0 for v0 (Newton from ydot)
        v0 = ydot.copy()
        for _ in range(50):
            state = CauchyState(0.0, y, "fulljet", v0=v0, vi=vi)
            xj, yj, vj = state.jet_arrays(cfg["derivative"])
            phi = spec.values_arrays(xj, yj, vj)
            if np.max(np.abs(phi)) < 1e-13:
                break
            dphidv = spec.derivatives_arrays(xj, yj, vj)[2]
            grad0 = dphidv[..., :, :, 0]  # d phi / d v0
            pinv = np.linalg.pinv(grad0)
            v0 = v0 - np.einsum("...ak,...k->...a", pinv, phi)
        return CauchyState(0.0, y, "fulljet", v0=v0, vi=vi)
    return CauchyState(0.0, y, "fulljet", v0=ydot, vi=vi)


def _write_fields_csv(path: Path, states: list):
    n = states[0].n
    m = states[0].m
    mode = states[0].mode
    shape = states[0].grid_shape
    coords = [np.arange(N) / N for N in shape]
    mesh = np.meshgrid(*coords, indexing="ij")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        ucols = [f"u{i + 1}" for i in range(n)]
        if mode == "pde":
            cols = [f"y{a + 1}" for a in range(m)] + [f"ydot{a + 1}" for a in range(m)]
        else:
            cols = (
                [f"y{a + 1}" for a in range(m)]
                + [f"v0_{a + 1}" for a in range(m)]
                + [f"v{i + 1}_{a + 1}" for a in range(m) for i in range(n)]
            )
        writer.writerow(["t"] + ucols + cols)
        for state in states:
            flats = [mm.reshape(-1) for mm in mesh]
            if mode == "pde":
                data = np.concatenate(
                    [state.y.reshape(-1, m), state.ydot.reshape(-1, m)], axis=1
                )
            else:
                data = np.concatenate(
                    [
                        state.y.reshape(-1, m),
                        state.v0.reshape(-1, m),
                        state.vi.reshape(-1, m * n),
                    ],
                    axis=1,
                )
            for row in range(data.shape[0]):
                writer.writerow(
                    [format_float(state.t)]
                    + [format_float(f[row]) for f in flats]
                    + [format_float(val) for val in data[row]]
                )


def run_evolve(cfg: dict, out_dir: Path) -> int:
    model, spec = build_scenario(cfg)
    state0 = build_initial_state(cfg, model, spec)
    try:
        result = evolve(
            model, spec, state0, float(cfg["dt"]), int(cfg["steps"]),
            integrator=cfg["integrator"], method=cfg["derivative"],
            drift_tol=float(cfg["drift_tol"]), stabilize=bool(cfg["stabilize"]),
        )
    except (DriftError, IntegrationError) as exc:
        print(f"evolve FAILED: {exc}", file=sys.stderr)
        return 1
    for name, series in result.diagnostics.items():
        if name == "t":
            continue
        with open(out_dir / f"diag_{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", name])
            for t, val in zip(result.diagnostics["t"], series):
                writer.writerow([format_float(t), format_float(float(val))])
    _write_fields_csv(out_dir / "traj_fields.csv", result.states)
    summary = {
        "task": "evolve",
        "model": model.name,
        "constraint": spec.name if spec else None,
        "steps": int(cfg["steps"]),
        "dt": float(cfg["dt"]),
        "integrator": cfg["integrator"],
        "final_time": result.states[-1].t,
        "max_phi": float(np.max(result.diagnostics["max_phi"])),
        "max_holonomy": float(np.max(result.diagnostics["holonomy"])),
        "energy_drift": float(
            np.max(np.abs(result.diagnostics["energy"] - result.diagnostics["energy"][0]))
        ),
        "tolerances": cfg["tolerances"],
    }
    (out_dir / "report.json").write_text(dumps_report(summary) + "\n")
    print(
        f"evolve finished: t = {summary['final_time']:.6g}, "
        f"max|phi| = {summary['max_phi']:.3e}"
    )
    return 0


# ---------------------------------------------------------------------------
# fluid identities task

def _mixing_section(eps: float, freq: float):
    def fn(xs):
        t, x1, x2, x3 = xs
        return [
            x1 + eps * ad.sin(freq * x2) * ad.cos(freq * x3),
            x2 + eps * ad.sin(freq * x3) * ad.cos(freq * x1),
            x3 + eps * ad.sin(freq * x1) * ad.cos(freq * x2),
        ]
    return fn


PSI_SECTIONS = {
    "identity": lambda xs: [xs[1], xs[2], xs[3]],
    "shear": lambda xs: [xs[1] + 0.7 * xs[2], xs[2], xs[3]],
    "double-x1": lambda xs: [2.0 * xs[1], xs[2], xs[3]],
}


def run_fluid_identities(cfg: dict, out_dir: Path) -> int:
    tols = cfg["tolerances"]
    eps, freq = 0.05, float(np.pi)
    section = _mixing_section(eps, freq)
    table = []
    prev = None
    for N in (8, 16, 32):
        resid = null_lagrangian_residual(section, (4, N, N, N))
        row = {"grid": N, "residual": resid,
               "ratio_vs_previous": (prev / resid) if prev else None}
        table.append(row)
        prev = resid
    psi_rows = [
        {"section": name, "residual": psi_divergence_residual(fn, (6, 8, 8, 8))}
        for name, fn in PSI_SECTIONS.items()
    ]
    failures = []
    r16 = table[1]["residual"]
    if r16 > tols["null_lagrangian"]:
        failures.append(f"null_lagrangian 16^4 residual {r16:.3e}")
    ratio = table[2]["ratio_vs_previous"]
    if not 10.0 <= ratio <= 22.0:
        failures.append(f"null_lagrangian refinement ratio {ratio:.2f} not 4th order")
    for row in psi_rows:
        if row["residual"] > tols["psi_divergence"]:
            failures.append(f"psi_divergence {row['section']} {row['residual']:.3e}")
    report = {
        "task": "fluid-identities",
        "null_lagrangian": {
            "section": f"x^a + {eps} sin(pi x^b) cos(pi x^c), cyclic",
            "grids": table,
        },
        "psi_divergence": psi_rows,
        "tolerances": tols,
        "summary": {"pass": not failures, "failures": failures},
    }
    (out_dir / "report.json").write_text(dumps_report(report) + "\n")
    if failures:
        print(f"fluid-identities FAILED: {failures[0]}", file=sys.stderr)
        return 1
    print(f"fluid-identities passed, report at {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------

def run_scenario(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    task = cfg["task"]
    if task == "verify":
        return run_verify(cfg, out_dir)
    if task == "evolve":
        return run_evolve(cfg, out_dir)
    return run_fluid_identities(cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhfields",
        description="nonholonomic field theory scenario runner",
    )
    parser.add_argument("--config", required=True, help="path to a JSON scenario file")
    parser.add_argument("--task", choices=["verify", "evolve", "fluid-identities"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory (overrides output_dir)")
    args = parser.parse_args(argv)
    overrides = {"task": args.task, "seed": args.seed, "output_dir": args.out}
    try:
        cfg = load_config(args.config, overrides)
        return run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NhfieldsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
