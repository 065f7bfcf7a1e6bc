"""Scenario runner: verification reports, evolution runs, fluid identities.
It reads the config, samples verify's points and writes the reports; the
identity chain that checks the points is ``nhfields.verify``.

Usage:
    nhfields --config scenario.json [--task verify|evolve|fluid-identities]
             [--seed N] [--out DIR]

The config file is plain JSON; command-line flags override its values.
Reports are written with fixed 17-significant-digit float formatting so a
fixed seed reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cauchy import (
    DERIVATIVES,
    INTEGRATORS,
    CauchyState,
    _pack,
    evolve,
    grid_coordinates,
    initial_state,
    packed_names,
)
from .constraint import (CONSTRAINTS, load_custom_coeffs_csv, make_constraint,
                         newton_onto_constraint)
from .ddw import min_check_tuples
from .exceptions import (ConfigError, DriftError, IntegrationError, InvalidArgumentError,
                         NhfieldsError)
from .fluid import (PSI_SECTIONS, mixing_section, null_lagrangian_residual,
                    psi_divergence_residual)
from .jet import STENCIL, JetPoint
# derivative_bundle is no longer called here; it stays bound because the
# benchmark harness test (bench/tests/test_harness.py) traces it as cli's alias
from .lagrangian import MODELS, derivative_bundle, make_model  # noqa: F401
from .verify import CHECK_BOUNDS, chunk_points, first_failure, verify_points

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


# ---------------------------------------------------------------------------
# deterministic JSON with fixed float formatting

def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
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

TASKS = ("verify", "evolve", "fluid-identities")


def _finite(val) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _integer(low: int, high: int | None = None):
    return (f"an integer >= {low}" + ("" if high is None else f" and <= {high}"),
            lambda val: (isinstance(val, int) and not isinstance(val, bool) and val >= low
                         and (high is None or val <= high)))


def _one_of(names, fold=str):
    return (f"one of {list(names)}", lambda val: isinstance(val, str) and fold(val) in names)


# A rule is (text, test); a dict in its place is a nested table, whose key
# "*" stands for any name.  A table entry is (rule, default); a default that
# breaks its rule makes the key required.
NUMBER = ("a finite number", _finite)
POSITIVE = ("a finite number > 0", lambda val: _finite(val) and val > 0)
STRING = ("a string", lambda val: isinstance(val, str))
PARAMS = ({"*": (NUMBER, None)}, {})
# upper bounds of the size keys, so that a size no run could allocate exits 2
# before anything is made; the grid's bound is on its nu^n points
MAX_POINTS = MAX_TUPLES = 10_000
MAX_GRID_POINTS = 2**18
GRID_NU = (f"an integer >= 1 with nu^n <= {MAX_GRID_POINTS} grid points",
           _integer(1, MAX_GRID_POINTS)[1])

CONFIG_TABLE = {
    "task": (_one_of(TASKS), "verify"),
    "seed": (_integer(0), 1),
    "points": (_integer(1, MAX_POINTS), 50),
    "tuples": (_integer(1, MAX_TUPLES), 50),
    "model": ({"name": (_one_of(MODELS), "wave"), "params": PARAMS}, {}),
    # null, the default, is the free problem
    "constraint": ({
        "name": (_one_of(CONSTRAINTS), None),
        "params": PARAMS,
        # a CSV of constant coefficients in place of the Chetaev ones
        "coeffs_csv": (STRING, ""),
    }, None),
    "grid": ({"nu": (GRID_NU, 64)}, {}),
    "dt": (POSITIVE, 1e-3),
    "steps": (_integer(0), 1000),
    "integrator": (_one_of(INTEGRATORS, str.lower), "rk4"),
    "derivative": (_one_of(DERIVATIVES), "spectral"),
    "stabilize": (("true or false", lambda val: isinstance(val, bool)), False),
    "drift_tol": (POSITIVE, 1e-6),
    "initial": ({
        "amplitude": (NUMBER, 1.0),
        "mode": (_integer(0), 1),
        "velocity": (NUMBER, 0.0),
    }, {}),
    "tolerances": ({key: (POSITIVE, tol) for key, tol in DEFAULT_TOLERANCES.items()}, {}),
    "output_dir": (STRING, "."),
}

# defaults that differ by model, by dotted key
MODEL_DEFAULTS = {
    "fluid": {"grid.nu": 8, "initial.amplitude": 0.01, "initial.velocity": 0.005},
}


def _read(table: dict, given: dict, path: str, defaults: dict) -> dict:
    """``given`` checked against ``table``, with the defaults filled in."""
    out = {}
    for key in given if "*" in table else {**table, **given}:
        name = path + key
        if key not in table and "*" not in table:
            raise ConfigError(f"{name} must be a known key; {path[:-1] or 'the config'} "
                              f"takes {list(table)}")
        rule, default = table.get(key) or table["*"]
        val = given[key] if key in given else defaults.get(name, default)
        if isinstance(rule, dict):
            if val is None and default is None:
                out[key] = None
                continue
            if not isinstance(val, dict):
                raise ConfigError(f"{name} must be an object, got {val!r}")
            out[key] = _read(rule, val, name + ".", defaults)
            continue
        text, test = rule
        if not test(val):
            raise ConfigError(f"{name} must be {text}, got {val!r}")
        out[key] = val
    return out


def load_config(path=None, overrides=None) -> dict:
    """The config file with the flags in ``overrides`` on top, every key
    checked against ``CONFIG_TABLE`` and every default filled in."""
    given = {}
    if path is not None:
        try:
            with open(path) as fh:
                given = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config root must be a JSON object")
    given.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    model = given.get("model")
    name = model.get("name") if isinstance(model, dict) else None
    cfg = _read(CONFIG_TABLE, given, "",
                MODEL_DEFAULTS.get(name, {}) if isinstance(name, str) else {})
    width = len(STENCIL)
    if cfg["derivative"] == "fd4" and cfg["grid"]["nu"] < width:
        raise ConfigError(
            f"grid.nu = {cfg['grid']['nu']} is too small for the fd4 stencil, "
            f"which needs at least {width} points"
        )
    return cfg


def build_scenario(cfg: dict):
    """The model and the constraint spec of a checked config."""
    try:
        model = make_model(cfg["model"]["name"], cfg["model"]["params"])
    except (InvalidArgumentError, TypeError) as exc:
        raise ConfigError(f"model.params: {exc}") from exc
    ccfg = cfg["constraint"]
    if ccfg is None:
        return model, None
    try:
        spec = make_constraint(ccfg["name"], ccfg["params"])
    except (InvalidArgumentError, TypeError) as exc:
        raise ConfigError(f"constraint.params: {exc}") from exc
    if (spec.dims.n, spec.dims.m) != (model.dims.n, model.dims.m):
        raise ConfigError(
            f"constraint dims {spec.dims} do not match model dims {model.dims}"
        )
    matrix = None
    if ccfg["coeffs_csv"]:
        try:
            matrix = load_custom_coeffs_csv(ccfg["coeffs_csv"], spec.dims)
        except (OSError, ValueError, InvalidArgumentError) as exc:
            raise ConfigError(
                f"constraint.coeffs_csv must be a readable CSV file of finite "
                f"coefficients: {exc}"
            ) from exc
    return model, dataclasses.replace(
        spec, coeffs=matrix, on_tol=cfg["tolerances"]["on_constraint"])


# ---------------------------------------------------------------------------
# verify task

def sample_constraint_point(model, spec, rng, count: int = 1,
                            first: int = 0) -> list[JetPoint]:
    """``count`` random points, projected onto the constraint set by one
    batched Newton call in the jet variables (minimum-norm corrections, each
    point converging on its own).  The raw points are drawn one after
    another, so the points, and the state ``rng`` is left in, do not depend
    on how a run splits its points into calls.  A failed projection names
    its point by index, counting from ``first``."""
    dims = model.dims
    x = np.empty((count, dims.nx))
    y = np.empty((count, dims.m))
    v = np.zeros((count, dims.m, dims.nx))
    for i in range(count):
        x[i] = rng.uniform(-1.0, 1.0, dims.nx)
        y[i] = rng.uniform(-1.0, 1.0, dims.m)
        if model.name == "fluid":
            v[i, :, 0] = 0.3 * rng.uniform(-1.0, 1.0, dims.m)
            while True:
                vsp = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))
                if abs(np.linalg.det(vsp)) > 0.3 and np.linalg.cond(vsp) < 20:
                    break
            v[i, :, 1:] = vsp
        else:
            v[i] = rng.uniform(-1.0, 1.0, (dims.m, dims.nx))
    if spec is not None:
        v, converged = newton_onto_constraint(spec, x, y, v, slice(None), 1e-12, 50)
        if not converged.all():
            idx = int(np.argmin(converged))
            worst = np.max(np.abs(spec.values_arrays(x[idx], y[idx], v[idx])))
            raise NhfieldsError(
                f"Newton projection onto the constraint set failed at point "
                f"{first + idx}: max|phi| = {worst:.3e} after 50 steps")
    return [JetPoint(*p) for p in zip(x, y, v)]


def run_verify(cfg: dict, model, spec, out_dir: Path) -> int:
    # the points come from the seed alone; the check tuples from a child stream
    rng = np.random.default_rng(cfg["seed"])
    tuple_rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
    tols = cfg["tolerances"]
    points = []
    failure = None
    size = chunk_points(model.dims, cfg["tuples"])
    for lo in range(0, cfg["points"], size):
        chunk = sample_constraint_point(model, spec, rng, min(size, cfg["points"] - lo), lo)
        results = verify_points(model, spec, chunk, tuple_rng, tols, cfg["tuples"])
        for idx, (p, checks) in enumerate(zip(chunk, results), lo):
            entry = {
                "index": idx,
                "point": {
                    "x": [float(v) for v in p.x],
                    "y": [float(v) for v in p.y],
                    "v": [[float(v) for v in row] for row in p.v],
                },
            }
            if isinstance(checks, NhfieldsError):
                entry["error"] = f"{type(checks).__name__}: {checks}"
                if failure is None:
                    failure = f"{type(checks).__name__} at point {idx}"
            else:
                entry.update(checks)
                failure = failure or first_failure(entry, idx, tols)
            points.append(entry)

    maxima = {}
    for key, _ in CHECK_BOUNDS:
        vals = [e[key] for e in points if key in e]
        # np.max, unlike max, is NaN wherever any value is, whatever the order
        maxima[key] = np.max(vals) if vals else None
    report = {
        "task": "verify",
        "model": model.name,
        "constraint": spec.name,
        "seed": cfg["seed"],
        "points": points,
        "tolerances": tols,
        "note": "free solutions use the minimum-norm member of the "
                "underdetermined second-order system",
        "summary": {
            "pass": failure is None,
            "first_failure": failure,
            "max_residuals": maxima,
        },
    }
    (out_dir / "report.json").write_text(dumps_report(report) + "\n")
    if failure is not None:
        print(f"verify FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"verify passed: {len(points)} points, report at {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# evolve task

def build_initial_state(cfg: dict, model, spec) -> CauchyState:
    dims = model.dims
    N = cfg["grid"]["nu"]
    if model.name != "fluid" and dims.n != 1:
        raise ConfigError(
            f"model must be the fluid or have n = 1 for the evolve task, which has "
            f"initial data for those alone; got {model.name} with n = {dims.n}"
        )
    if N ** dims.n > MAX_GRID_POINTS:
        raise ConfigError(f"grid.nu must be {GRID_NU[0]}, got {N}, which gives "
                          f"{N ** dims.n} points for n = {dims.n}")
    init = cfg["initial"]
    return initial_state(model, spec, N, init["amplitude"], init["mode"], init["velocity"],
                         cfg["derivative"])


# Rows of a table formatted by one % operation.  On the evolve-fluid tables
# (8^3, 19 columns) 128 rows write as fast as 512 and hold no more memory
# at once than ``np.savetxt`` (tracemalloc: 244 KB against 255 KB; 545 KB
# with 512 rows).
_TABLE_ROWS = 128


def _write_table(path: Path, header: list, blocks):
    """One CSV file, one 2-D block at a time: %.17g values, commas, CRLF.
    Up to ``_TABLE_ROWS`` rows are formatted by one % operation, with the
    text of ``np.savetxt``, which formats one row at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            row = ",".join(["%.17g"] * block.shape[1]) + "\r\n"
            for start in range(0, len(block), _TABLE_ROWS):
                part = block[start : start + _TABLE_ROWS]
                fh.write((row * len(part)) % tuple(part.ravel().tolist()))


def _write_fields_csv(path: Path, states: list):
    """Rows ``t, u-coordinates, packed state`` for every grid point of every
    state, in the column order of ``_pack``."""
    u = np.column_stack([c.reshape(-1) for c in grid_coordinates(states[0].grid_shape)])
    header = ["t"] + [f"u{i + 1}" for i in range(states[0].n)] + packed_names(states[0])
    _write_table(path, header, (
        np.column_stack([np.full(len(u), s.t), u, _pack(s).reshape(len(u), -1)])
        for s in states
    ))


def run_evolve(cfg: dict, model, spec, state0: CauchyState, out_dir: Path) -> int:
    try:
        result = evolve(
            model, spec, state0, cfg["dt"], cfg["steps"],
            integrator=cfg["integrator"], drift_tol=cfg["drift_tol"],
            stabilize=cfg["stabilize"],
        )
    except (DriftError, IntegrationError) as exc:
        print(f"evolve FAILED: {exc}", file=sys.stderr)
        return 1
    for name, series in result.diagnostics.items():
        if name == "t":
            continue
        _write_table(out_dir / f"diag_{name}.csv", ["t", name],
                     [np.column_stack([result.diagnostics["t"], series])])
    _write_fields_csv(out_dir / "traj_fields.csv", result.states)
    summary = {
        "task": "evolve",
        "model": model.name,
        "constraint": spec.name if spec else None,
        "steps": cfg["steps"],
        "dt": cfg["dt"],
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

def run_fluid_identities(cfg: dict, out_dir: Path) -> int:
    tols = cfg["tolerances"]
    eps, freq = 0.05, float(np.pi)
    section = mixing_section(eps, freq)
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
    """Build everything the task needs, then make the output directory and
    run it, so that a config error leaves no directory behind."""
    model, spec = build_scenario(cfg)
    task = cfg["task"]
    state0 = build_initial_state(cfg, model, spec) if task == "evolve" else None
    if task == "verify":
        if spec is None:
            raise ConfigError("constraint must be an object for the verify task, got None")
        need = min_check_tuples(spec.k, spec.dims.nx)
        if cfg["tuples"] < need:
            raise ConfigError(
                f"tuples = {cfg['tuples']} is below {need}, the fewest the form "
                "check accepts for this scenario"
            )
    out_dir = Path(cfg["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir must be a directory that can be made: {exc}") from exc
    if task == "verify":
        return run_verify(cfg, model, spec, out_dir)
    if task == "evolve":
        return run_evolve(cfg, model, spec, state0, out_dir)
    return run_fluid_identities(cfg, out_dir)


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks in the process for reuse.  By default a
    block above 128 KiB gets a mapping of its own, and a free that leaves
    more than 128 KiB at the top of the heap returns it to the kernel: the
    9x9 and 12x12 Hessian temporaries of an 8^3 fluid bundle (166 KB and
    295 KB per chunk) then fault in about 2 MB of fresh zeroed pages per
    bundle.  Both thresholds are set, since setting either one alone turns
    off glibc's dynamic thresholds and faults more.  Does nothing where the
    C library cannot be loaded or has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)  # the glibc ceiling on 64-bit
    mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = argparse.ArgumentParser(
        prog="nhfields",
        description="nonholonomic field theory scenario runner",
    )
    parser.add_argument("--config", required=True, help="path to a JSON scenario file")
    parser.add_argument("--task", choices=TASKS)
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
