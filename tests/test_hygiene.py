"""Source hygiene of the package, checked with the standard library only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "nhfields"


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each name an import statement of ``path`` binds
    that no expression of the module reads.  A statement carrying
    ``# noqa: F401`` on any of its lines is exempt, as are ``__future__``
    imports."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    """Every module but the package's re-exporting ``__init__`` and its
    ``__main__`` shim reads each name it imports."""
    modules = sorted(p for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert len(modules) > 5
    assert [u for p in modules for u in _unused_imports(p)] == []


def test_the_cli_leaves_the_identity_chain_to_verify():
    """``cli`` imports nothing from ``projector`` and, from ``ddw``, only
    ``min_check_tuples``, which checks the ``tuples`` key; the chain's
    kernels are ``verify``'s."""
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert ("verify", "verify_points") in imported
    assert {(module, name) for module, name in imported
            if module in ("projector", "ddw")} == {("ddw", "min_check_tuples")}


def _private_definitions(tree: ast.Module):
    """(name, statement) for each module-level function, class or assigned
    name of ``tree`` with one leading underscore."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _references(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, the attributes it reads and the names it
    imports."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_module_name_is_used_in_the_package():
    """Each module-level private function, class or assignment of the
    package is read somewhere in the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    defined = [(module, name, own) for module, tree in trees.items()
               for name, own in _private_definitions(tree)]
    assert len(defined) > 20
    unused = [f"{module} {name}" for module, name, own in defined
              if not any(name in read for stmt, read in reads if stmt is not own)]
    assert unused == []


# public functions no code of the package reads, each with its reason
UNREAD_PUBLIC = {
    "cauchy.free_sode_omega_values": "the check of criterion 8",
    "cauchy.constraint_ansatz_fit": "a check of criterion 9",
    "cauchy.constrained_membership_check": "a check of criterion 9",
    "constraint.constraint_forms": "the term-list oracle of Phi_alpha",
    "lagrangian.omega_form": "the term-list oracle of Omega_L",
    "projector.zeta_residual": "part of the pointwise API",
}


def test_every_public_function_or_class_is_read_in_the_package():
    """Each module-level public function or class of the package is read
    somewhere in the package outside its own definition (an export of
    ``__init__`` counts), unless ``UNREAD_PUBLIC`` gives its reason."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    defined = [(f"{module}.{stmt.name}", stmt) for module, tree in trees.items()
               for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")]
    assert len(defined) > 50
    unread = {name for name, own in defined
              if not any(name.split(".")[1] in read for stmt, read in reads if stmt is not own)}
    assert unread == set(UNREAD_PUBLIC)


def _leaf_keys(table: dict):
    """The keys of a config table and of its nested tables whose rule is
    not itself a table, but the wildcard "*"."""
    for key, (rule, _) in table.items():
        if isinstance(rule, dict):
            yield from _leaf_keys(rule)
        elif key != "*":
            yield key


def test_every_config_key_is_read():
    """Each leaf key of ``cli.CONFIG_TABLE`` is a string constant of the
    package outside the two tables that declare the keys, so a key the
    config checks and no code reads fails."""
    from nhfields.cli import CONFIG_TABLE

    declaring = {"CONFIG_TABLE", "DEFAULT_TOLERANCES"}
    strings = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        skip = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in declaring for t in stmt.targets)
                for node in ast.walk(stmt)}
        strings |= {node.value for node in ast.walk(tree) if id(node) not in skip
                    and isinstance(node, ast.Constant) and isinstance(node.value, str)}
    keys = set(_leaf_keys(CONFIG_TABLE))
    assert len(keys) > 20
    assert sorted(keys - strings) == []


def test_no_function_takes_an_errors_or_check_switch():
    """A batched kernel returns the errors of its failing points and never
    raises for one, so no function of the package takes a parameter that
    chooses between the two, named ``errors`` or ``check``."""
    switches = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if arg is not None]
                switches += [f"{path.name}:{node.lineno} {name}" for name in names
                             if name in ("errors", "check")]
    assert switches == []


# Replaces ctypes.CDLL with a recorder of mallopt calls, imports the package
# and then runs main on a missing config file.
RECORD_MALLOPT = """
import ctypes, json, sys
calls = {"import": [], "main": []}
phase = "import"
real = ctypes.CDLL


class Recorder:
    def __init__(self, *args, **kwargs):
        self._lib = real(*args, **kwargs)

    def __getattr__(self, name):
        fn = getattr(self._lib, name)
        if name != "mallopt":
            return fn
        return lambda *args: calls[phase].append(args) or fn(*args)


ctypes.CDLL = Recorder
import nhfields
import nhfields.cli
phase = "main"
code = nhfields.cli.main(["--config", "missing.json"])
print(json.dumps({"code": code, "has_mallopt": hasattr(real(None), "mallopt"), **calls}))
"""


def test_only_main_sets_the_allocator(tmp_path):
    """Importing the package changes no allocator setting; ``main`` sets
    glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB."""
    proc = subprocess.run([sys.executable, "-c", RECORD_MALLOPT], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 2 and out["import"] == []
    assert out["main"] == ([[-3, 32 * 2**20], [-1, 64 * 2**20]] if out["has_mallopt"] else [])
