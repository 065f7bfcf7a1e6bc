"""nhfields benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Measures set-up time over several fresh interpreters, then runs the workload
in one child process (bench/worker.py) with BLAS and OpenMP pinned to one
thread.  Prints a readable table, the environment, and as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--smoke`` runs every workload at a tiny size.
Exits non-zero without a result when the sources or a child process fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import HOLDOUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
TMP_ROOT = ROOT / ".bench_tmp"
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
# fresh interpreter to ready: import the CLI and load the workload config
PROBE = ("import sys\nfrom nhfields import cli\n"
         "cli.load_config(sys.argv[1])\nprint('ready', flush=True)\n")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(config: Path, env: dict, timeout: float) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(config)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up probe did not exit") from None
    if line != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_worker(args, config: Path, tmp: Path, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--config", str(config),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(args) -> tuple[dict, dict]:
    """Set-up samples and the worker's result, inside a scratch directory
    of the checkout that is removed afterwards."""
    start = time.perf_counter()
    env = child_env()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        config = tmp / "config.json"
        config.write_text(json.dumps(WORKLOADS[args.workload].scenario(args.smoke)))
        setups = []
        if not args.trace:  # the traced run reports no set-up time
            setup_time(config, env, 60)  # warm-up: byte-compiles the sources
            probes = 1 if args.smoke else SETUP_PROBES
            setups = [setup_time(config, env, 60) for _ in range(probes)]
        left = TIME_LIMIT_S - (time.perf_counter() - start)
        result = run_worker(args, config, tmp, env, left)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    setup = {"setup_s": statistics.median(setups), "setup_samples": setups} if setups else {}
    return setup, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, one set-up probe")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nhfields" / "cli.py").is_file():
        print(f"bench: no nhfields sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        setup, result = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    raw = dict(result["metrics"])
    raw.update(setup)
    attempted, failed = result["attempted"], result["failed"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = raw.get("layers", {}) if args.trace else raw
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for {missing} (every call failed?)", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  holdout seed (verify-fluid) {HOLDOUT_SEED}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<30} {failed / attempted:>14.6g} fraction"
          f" ({failed} of {attempted} calls failed)")
    if not args.trace and raw.get("samples"):
        t = raw.get("run_s_tail")
        tail = f"p{t['percentile']} {t['value']:.6g} s" if t else "no tail (under 20 samples)"
        print(f"  run_s: mean {raw['run_s']:.6g} s, median {raw['run_s_median']:.6g} s,"
              f" fastest {raw['run_s_fastest']:.6g} s, {tail}, {raw['samples']} samples")
        print(f"  setup_s samples: {' '.join(f'{s:.4f}' for s in raw['setup_samples'])}")
    env = dict(result["env"], **source_identity())
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and result["consistent"] and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
