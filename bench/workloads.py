"""The benchmark workloads: CLI scenarios, their sizes and correctness gates.

Each workload is one ``nhfields`` CLI task.  The seed is never part of the
config; the harness hands it to the program through ``--seed`` only.
Evolve and fluid-identities inputs do not depend on it; verify-fluid samples
its points from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

# Later gain claims on verify-fluid must also hold on this seed, which was
# not used while the benchmark was tuned.
HOLDOUT_SEED = 7919

# field evaluations an integrator needs per step
STAGES = {"rk4": 4, "euler": 1}

FLUID_MODEL = {"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}}


def _summary_pass(report: dict) -> str | None:
    if report.get("summary", {}).get("pass") is not True:
        return f"summary.pass is not true: {report.get('summary')}"
    return None


def _max_phi_below(bound: float) -> Callable[[dict], str | None]:
    def gate(report: dict) -> str | None:
        phi = report.get("max_phi")
        if not isinstance(phi, (int, float)) or not phi < bound:
            return f"max_phi {phi!r} is not below {bound:g}"
        return None
    return gate


@dataclass(frozen=True)
class Workload:
    """One CLI scenario.

    ``core`` names a module and the functions in it whose inside time is
    the denominator of ``steps_per_s``; ``units`` counts the steps of one call
    from its report: RK4 steps for evolve, verified points for verify,
    residual evaluations for fluid-identities.
    """

    name: str
    config: dict
    smoke: dict
    gate: Callable[[dict], str | None]
    core: tuple[str, ...]
    units: Callable[[dict], int]
    stages: Callable[[dict], int] = field(default=lambda cfg: 0)

    def scenario(self, smoke: bool = False) -> dict:
        cfg = dict(self.config)
        if smoke:
            cfg.update(self.smoke)
        return cfg


def _evolve_stages(cfg: dict) -> int:
    return int(cfg["steps"]) * STAGES[cfg["integrator"]]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="verify-fluid",
        config={"task": "verify", "model": FLUID_MODEL,
                "constraint": {"name": "incompressibility"}, "points": 4},
        smoke={"points": 1, "tuples": 5},
        gate=_summary_pass,
        core=("cli", "run_verify"),
        units=lambda report: len(report["points"]),
    ),
    Workload(
        name="evolve-wave",
        config={"task": "evolve", "model": {"name": "wave"},
                "constraint": {"name": "linear-transport", "params": {"speed": 2.0}},
                "grid": {"nu": 64}, "dt": 1e-3, "steps": 25,
                "integrator": "rk4", "derivative": "spectral"},
        smoke={"grid": {"nu": 16}, "steps": 3},
        gate=_max_phi_below(1e-12),  # acceptance criterion 9
        core=("cauchy", "evolve"),
        units=lambda report: int(report["steps"]),
        stages=_evolve_stages,
    ),
    Workload(
        name="evolve-fluid",
        config={"task": "evolve", "model": FLUID_MODEL,
                "constraint": {"name": "incompressibility"},
                "grid": {"nu": 8}, "dt": 1e-3, "steps": 2, "integrator": "rk4",
                "derivative": "spectral",
                "initial": {"amplitude": 0.01, "velocity": 0.005}},
        smoke={"grid": {"nu": 4}, "steps": 1},
        gate=_max_phi_below(1e-5),  # acceptance criterion 10
        core=("cauchy", "evolve"),
        units=lambda report: int(report["steps"]),
        stages=_evolve_stages,
    ),
    Workload(
        name="fluid-identities",
        config={"task": "fluid-identities", "model": {"name": "fluid"}},
        smoke={},
        gate=_summary_pass,
        core=("fluid", "null_lagrangian_residual", "psi_divergence_residual"),
        units=lambda report: (len(report["null_lagrangian"]["grids"])
                              + len(report["psi_divergence"])),
    ),
]}
