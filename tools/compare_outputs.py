"""Byte-identity check of the CLI outputs of two checkouts.

Usage:
    python tools/compare_outputs.py BASE NEW

BASE and NEW are checkout roots.  Each config of ``CONFIGS`` runs through
``python -m nhfields`` in each tree, with ``PYTHONPATH=<root>/src``.  For
each config the exit code, stdout, stderr (with the output directory
masked) and every output file are compared, and one line reads ``same`` or
``DIFFERENT``, naming what differs.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FLUID = {"name": "fluid", "params": {"kappa": 1.0, "beta": 1.0}}
INCOMPRESSIBLE = {"name": "incompressibility"}
TRANSPORT = {"name": "linear-transport", "params": {"speed": 2.0}}
VERIFY_FLUID = {"task": "verify", "model": FLUID, "constraint": INCOMPRESSIBLE, "points": 4}
FD4_FLUID = {"task": "evolve",
             "model": {"name": "fluid", "params": {**FLUID["params"], "mu": 0.5}},
             "constraint": INCOMPRESSIBLE, "grid": {"nu": 6}, "steps": 3, "derivative": "fd4"}

# name: (config, seed)
CONFIGS = {
    "verify-fluid": (VERIFY_FLUID, 1),
    "verify-fluid-seed-7919": (VERIFY_FLUID, 7919),
    "fluid-verify-mu-0.3": ({**VERIFY_FLUID, "points": 20, "model": {
        "name": "fluid", "params": {**FLUID["params"], "mu": 0.3}}}, 1),
    "quadratic-verify-n3-m3": ({"task": "verify", "model": {
        "name": "quadratic", "params": {"n": 3, "m": 3, "coupling": 0.5}},
        "constraint": INCOMPRESSIBLE, "points": 20}, 1),
    "wave-verify": ({"task": "verify", "model": {"name": "wave"}, "constraint": TRANSPORT,
                     "points": 5}, 1),
    "constrained-wave-evolve": ({"task": "evolve", "model": {"name": "wave"},
                                 "constraint": TRANSPORT, "grid": {"nu": 64}, "steps": 25}, 1),
    "free-wave-evolve": ({"task": "evolve", "model": {"name": "wave"}, "steps": 25}, 1),
    "fluid-fd4-evolve": (FD4_FLUID, 1),
    "fluid-fd4-evolve-stabilize": ({**FD4_FLUID, "stabilize": True}, 1),
    "evolve-fluid": ({"task": "evolve", "model": FLUID, "constraint": INCOMPRESSIBLE,
                      "grid": {"nu": 8}, "dt": 1e-3, "steps": 2,
                      "initial": {"amplitude": 0.01, "velocity": 0.005}}, 1),
    "fluid-identities": ({"task": "fluid-identities", "model": {"name": "fluid"}}, 1),
    # exits 1: dt = 1 is far past the step a 32-point free wave is stable at
    "free-wave-blow-up": ({"task": "evolve", "model": {"name": "wave"}, "grid": {"nu": 32},
                          "dt": 1.0, "steps": 200}, 1),
}


def run_config(root: Path, config: dict, seed: int, work: Path) -> dict:
    """One CLI run of ``config`` from the sources under ``root``, in the
    empty directory ``work``: its exit code, masked stdout and stderr, and
    the bytes of each output file by name."""
    work.mkdir(parents=True)
    path, out = work / "config.json", work / "out"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nhfields", "--config", str(path),
                           "--seed", str(seed), "--out", str(out)],
                          cwd=work, env=env, capture_output=True, text=True)
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(str(out), "<out>"),
            "stderr": proc.stderr.replace(str(out), "<out>"), "files": files}


def compare(base: Path, new: Path, configs: dict = CONFIGS) -> bool:
    """Run each config in both trees and print one verdict line per config;
    whether every output matched."""
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, seed) in configs.items():
            runs = [run_config(Path(root).resolve(), config, seed, Path(tmp) / side / name)
                    for side, root in (("base", base), ("new", new))]
            differ = [key for key in ("exit code", "stdout", "stderr")
                      if runs[0][key] != runs[1][key]]
            files = [runs[0]["files"], runs[1]["files"]]
            differ += [f"file {f}" for f in sorted(set(files[0]) | set(files[1]))
                       if files[0].get(f) != files[1].get(f)]
            same = same and not differ
            verdict = f"DIFFERENT: {', '.join(differ)}" if differ else "same"
            print(f"{name}: {verdict} (exit {runs[1]['exit code']}, "
                  f"{len(files[1])} files)", flush=True)
    return same


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    return 0 if compare(Path(args[0]), Path(args[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
