"""Tests of the benchmark harness itself: span arithmetic, the run
summary, the namespace patch round trip, and a smoke run of every workload
at a tiny size.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import (  # noqa: E402
    ARITHMETIC,
    NamespacePatch,
    Span,
    Tracer,
    inclusive_time,
    package_classes,
    package_modules,
    public_targets,
    self_times,
)
from worker import Call, summarise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.main", "cli", 0.0, 10.0, -1),
        Span("a", "x", 1.0, 4.0, 0),
        Span("b", "x", 2.0, 3.0, 1),
        Span("c", "y", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration
    assert inclusive_time(spans, ["a", "b"]) == 3.0  # b lies inside a
    assert inclusive_time(spans, ["b", "c"]) == 5.0
    assert inclusive_time(spans, ["cli.main", "b"]) == 10.0


def test_summary_means_over_calls():
    calls = [Call(run_s=0.2, core_s=0.1, units=2), Call(run_s=0.6, core_s=0.3, units=2),
             Call(error="gate failed")]
    metrics, problems = summarise(calls, [])
    assert problems == []
    assert metrics["run_s"] == pytest.approx(0.4)
    assert metrics["run_s_fastest"] == 0.2
    assert metrics["samples"] == 2
    assert metrics["steps_per_s"] == pytest.approx(4 / 0.4)  # not a mean of rates


def _function(raw):
    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    return fn if isinstance(fn, types.FunctionType) else None


def _bindings(modules) -> dict:
    out = {}
    for ns in list(modules) + package_classes(modules):
        for key, val in vars(ns).items():
            out[(id(ns), key)] = val
    return out


def _public_own(fn) -> bool:
    return (fn is not None and fn.__module__.startswith("nhfields")
            and (not fn.__name__.startswith(("_", "<")) or fn.__name__ in ARITHMETIC))


def test_patch_wraps_every_binding_and_restores_all():
    modules = package_modules()
    before = _bindings(modules)
    targets = public_targets(modules)
    originals = {id(t.fn) for t in targets}
    expected = [k for k, v in before.items()
                if _function(v) is not None and id(_function(v)) in originals]
    tracer = Tracer()
    with NamespacePatch(modules, targets, tracer.wrap) as patch:
        assert len(patch.saved) == len(expected)
        during = _bindings(modules)
        for key in expected:
            assert _function(during[key]).__wrapped__ is _function(before[key])
        unwrapped = [k for k, v in during.items()
                     if _public_own(_function(v)) and not hasattr(_function(v), "__wrapped__")]
        assert unwrapped == []

        from nhfields import autodiff as ad
        from nhfields import cauchy, cli, constraint, exterior, lagrangian, projector

        # aliases made by ``from .x import f`` share one wrapper
        assert cauchy.derivative_bundle_arrays is lagrangian.derivative_bundle_arrays
        assert cauchy.solve_zeta_flat is projector.solve_zeta_flat
        assert cli.derivative_bundle is lagrangian.derivative_bundle
        assert vars(ad.Dual2)["__rmul__"] is vars(ad.Dual2)["__mul__"]
        for fn in (ad.det, cauchy.derivative_bundle_arrays, cli.derivative_bundle,
                   constraint.ConstraintSpec.values_arrays,
                   cauchy.CauchyState.jet_arrays, exterior.Form.contract,
                   ad.Dual.seed.__func__, ad.Dual2.__mul__):
            assert hasattr(fn, "__wrapped__"), fn

        x = ad.Dual2.seed(np.ones(3), 2, 0)
        ad.det([[x, 2.0], [1.0, x / 2.0]])
        spans = tracer.spans()
        names = [s.name for s in spans]
        assert names[0] == "autodiff.Dual2.seed"
        det = names.index("autodiff.det")
        children = [s.name for s in spans if s.parent == det]
        assert children == ["autodiff.Dual2.__mul__", "autodiff.Dual2.__sub__"]
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(values[m["name"]] > 0 for m in wanted)
        return
    reached = {
        "verify-fluid": ["exterior.calls", "ddw.calls", "projector.zeta_calls",
                         "lagrangian.bundle_calls", "autodiff.dual2_ops"],
        "evolve-wave": ["cauchy.sode_calls", "projector.zeta_calls", "cli.output_mb"],
        "evolve-fluid": ["cauchy.sode_calls", "autodiff.hess_mb", "lagrangian.bundle_points"],
        "fluid-identities": ["autodiff.dual_ops", "fluid.self_s"],
    }[workload]
    assert all(values[name] > 0 for name in reached)
    if workload.startswith("verify") or workload == "fluid-identities":
        assert values["cauchy.sode_calls"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "evolve-wave", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
