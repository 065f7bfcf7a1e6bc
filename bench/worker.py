"""Runs one workload in this process and prints its measurements.

run.py starts this script in a fresh interpreter with the BLAS thread pins
set and ``src`` on ``PYTHONPATH``.  It calls ``nhfields.cli.main`` in a
closed loop with one client (the next call starts when the previous one has
returned) until ``--seconds`` have passed, after one untimed warm-up call.
Every call writes into a fresh directory under ``--tmp`` that is removed
afterwards, and must pass its workload's correctness gate and reproduce the
first call's ``report.json`` byte for byte.

With ``--trace 1`` untraced and traced calls alternate; the traced ones wrap
every public nhfields function (see spans.py) and give the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import NamespacePatch, Tracer, layer_metrics, named_target, package_modules
from spans import public_targets, timer_wrap
from workloads import WORKLOADS

MIN_CALLS = 2  # timed calls per kind, however short --seconds is
# layer values that are counts and must repeat exactly between calls
EXACT = ("autodiff.dual2_ops", "autodiff.hess_mb", "autodiff.dual_ops",
         "lagrangian.bundle_calls", "lagrangian.bundle_points", "cauchy.sode_calls",
         "cauchy.grid_derivative_calls", "projector.zeta_calls", "constraint.calls",
         "ddw.calls", "exterior.calls")


@dataclass
class Call:
    run_s: float | None = None
    core_s: float = 0.0
    units: int = 0
    output_bytes: int = 0
    sys_s: float = 0.0
    minor_faults: int = 0
    error: str | None = None
    layers: dict = field(default_factory=dict)


class Runner:
    """Makes the CLI calls of one workload and checks each result."""

    def __init__(self, workload, config_path: Path, seed: int, tmp: Path):
        from nhfields import cli
        from nhfields.autodiff import Dual, Dual2

        self.cli = cli
        self.workload = workload
        self.config = json.loads(config_path.read_text())
        self.argv = ["--config", str(config_path), "--seed", str(seed)]
        self.tmp = tmp
        self.modules = package_modules()
        module, *names = workload.core
        self.core_targets = [named_target(module, n) for n in names]
        self.trace_targets = public_targets(self.modules)
        self.tracer = Tracer((Dual, Dual2))
        self.first_report: bytes | None = None

    def call(self, traced: bool) -> Call:
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.tmp))
        acc = [0.0]
        if traced:
            patch = NamespacePatch(self.modules, self.trace_targets, self.tracer.wrap)
        else:
            patch = NamespacePatch(self.modules, self.core_targets, timer_wrap(acc))
        result = Call()
        try:
            with patch:
                r0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.perf_counter()
                rc = self.cli.main(self.argv + ["--out", str(out)])
                elapsed = time.perf_counter() - t0
                r1 = resource.getrusage(resource.RUSAGE_SELF)
            result.sys_s = r1.ru_stime - r0.ru_stime
            result.minor_faults = r1.ru_minflt - r0.ru_minflt
            result.output_bytes = sum(
                f.stat().st_size for f in out.rglob("*") if f.is_file()
            )
            result.error, report = self._check(rc, out)
            if result.error is None:
                result.run_s = elapsed
                result.core_s = acc[0]
                result.units = self.workload.units(report)
                if traced:
                    stages = self.workload.stages(self.config)
                    result.layers = layer_metrics(self.tracer.spans(), stages)
        except Exception:  # a failed call is counted, and the loop goes on
            result.error = traceback.format_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
            self.tracer.reset()
        if result.error is not None:
            print(f"call failed: {result.error}", file=sys.stderr)
        return result

    def _check(self, rc, out: Path) -> tuple[str | None, dict | None]:
        """The reason the call failed (or None), and its parsed report."""
        if rc != 0:
            return f"exit code {rc}", None
        data = (out / "report.json").read_bytes()
        report = json.loads(data)
        err = self.workload.gate(report)
        if err is None and self.first_report is None:
            self.first_report = data
        elif err is None and data != self.first_report:
            err = "report.json differs from the first call with the same seed"
        return err, report


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), or None when that would not reach the median."""
    n = len(values)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct < 50:
        return None
    rank = -(-pct * n // 100)  # ceil
    return {"percentile": pct, "value": sorted(values)[rank - 1], "samples": n}


def summarise(calls: list[Call], traced: list[Call]) -> tuple[dict, list[str]]:
    """Metric values from the timed calls, and consistency problems.

    ``run_s`` is the mean call time and ``steps_per_s`` the steps of all
    calls over their total time in the core: other tenants of this machine
    slow stretches of seconds to minutes by up to 1.7x, and a mean over the
    whole run follows that mix more smoothly than the median or the fastest
    call (see README.md).  The median, the fastest call, the tail
    percentile and the sample count are reported alongside.
    """
    problems = []
    ok = [c for c in calls if c.error is None]
    metrics = {}
    if ok:
        run_s = [c.run_s for c in ok]
        metrics["run_s"] = statistics.fmean(run_s)
        metrics["run_s_median"] = statistics.median(run_s)
        metrics["run_s_fastest"] = min(run_s)
        metrics["run_s_tail"] = tail(run_s)
        metrics["samples"] = len(run_s)
        metrics["steps_per_s"] = sum(c.units for c in ok) / sum(c.core_s for c in ok)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sizes = {c.output_bytes for c in calls + traced if c.error is None}
    if len(sizes) > 1:
        problems.append(f"output size differs between calls: {sorted(sizes)}")
    tok = [c for c in traced if c.error is None]
    if tok:
        for key in EXACT:
            vals = [c.layers[key] for c in tok]
            if len(set(vals)) > 1:
                problems.append(f"{key} differs between traced calls: {vals}")
        fastest = min(tok, key=lambda c: c.run_s)
        layers = dict(fastest.layers)  # times that add up within one call
        layers["cli.output_mb"] = fastest.output_bytes / 1e6
        if ok:
            # kernel time and page faults of the untraced calls
            layers["process.sys_s"] = statistics.median(c.sys_s for c in ok)
            layers["process.minor_faults"] = statistics.median(c.minor_faults for c in ok)
            layers["trace.overhead_frac"] = fastest.run_s / metrics["run_s_fastest"] - 1.0
        metrics["layers"] = layers
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tmp", required=True, type=Path)
    args = parser.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], args.config, args.seed, args.tmp)
    attempted = [runner.call(traced=False)]  # warm-up: gated, not timed
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(plain) < MIN_CALLS
           or (args.trace and len(traced) < MIN_CALLS)):
        plain.append(runner.call(traced=False))
        if args.trace:
            traced.append(runner.call(traced=True))
    attempted += plain + traced

    metrics, problems = summarise(plain, traced)
    for msg in problems:
        print(f"inconsistent: {msg}", file=sys.stderr)
    failures = [c.error for c in attempted if c.error is not None]
    print(json.dumps({
        "attempted": len(attempted),
        "failed": len(failures),
        "consistent": not problems,
        "metrics": metrics,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
