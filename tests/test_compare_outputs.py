"""The byte-identity tool ``tools/compare_outputs.py``, run on two copies of
the package sources."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_copies_read_same_until_a_default_tolerance_is_edited(tmp_path, capsys):
    tool = _tool()
    roots = [tmp_path / "base", tmp_path / "new"]
    for root in roots:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    configs = {"wave-verify": tool.CONFIGS["wave-verify"]}
    assert tool.compare(*roots, configs)
    assert capsys.readouterr().out == "wave-verify: same (exit 0, 1 files)\n"
    cli = roots[1] / "src" / "nhfields" / "cli.py"
    text = cli.read_text()
    assert text.count('"zeta": 1e-9,') == 1
    cli.write_text(text.replace('"zeta": 1e-9,', '"zeta": 2e-9,'))
    assert not tool.compare(*roots, configs)
    assert capsys.readouterr().out == (
        "wave-verify: DIFFERENT: file report.json (exit 0, 1 files)\n")
