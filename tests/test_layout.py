"""Package layout: every module is called from inside the package."""

import ast
from pathlib import Path

import meklerkit

PACKAGE = Path(meklerkit.__file__).parent
ENTRY_POINTS = {"__init__", "cli"}  # the import surface and the command line


def imported_modules(path: Path) -> set:
    """Names of the package modules that the file at `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("meklerkit."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("meklerkit."))
    return names


def test_every_module_has_a_caller_in_the_package():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    # __init__ re-exports everything, so its imports do not make a caller
    imports = {name: imported_modules(path) for name, path in modules.items()
               if name != "__init__"}
    orphans = sorted(
        m for m in modules if m not in ENTRY_POINTS
        and not any(m in found for name, found in imports.items() if name != m)
    )
    assert orphans == []


def test_the_import_scan_sees_relative_and_absolute_forms(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .groups import Perm\nfrom . import omni\n"
                   "from meklerkit.graphs import Graph\nimport meklerkit.limits\n"
                   "import numpy\n")
    assert imported_modules(src) == {"groups", "omni", "graphs", "limits"}
