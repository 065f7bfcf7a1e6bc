"""Source hygiene of the package, checked with the standard library only."""

import ast
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
