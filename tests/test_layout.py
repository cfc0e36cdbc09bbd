"""Package layout: every module, export and public method has a caller."""

import ast
from pathlib import Path

import meklerkit

PACKAGE = Path(meklerkit.__file__).parent
REPO = Path(__file__).resolve().parent.parent
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


def reexported_names(init: Path) -> set:
    """Names that the relative imports of `init` re-export."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def mentioned_names(paths) -> set:
    """Every Name id, Attribute name and string constant in the files."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def uncalled_exports(init: Path, callers) -> list:
    """Exports that no caller mentions; a format_X or parse_X export passes
    when its partner is mentioned, as each is half of one text format."""
    mentioned = mentioned_names(callers)

    def partner(name):
        for prefix, other in (("format_", "parse_"), ("parse_", "format_")):
            if name.startswith(prefix):
                return other + name[len(prefix):]
        return None

    return sorted(name for name in reexported_names(init)
                  if name not in mentioned and partner(name) not in mentioned)


def caller_files() -> list:
    """The package modules but `__init__`, the demos and the perfbench files."""
    callers = [path for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    return callers + sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))


def test_every_export_has_a_caller():
    assert uncalled_exports(PACKAGE / "__init__.py", caller_files()) == []


def test_the_export_scan_counts_mentions_and_format_partners(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .a import (used, attr, text, format_x, parse_x,\n"
                    "    format_y, parse_z, unused)\nfrom meklerkit import absolute\n")
    caller = tmp_path / "caller.py"
    caller.write_text("def unused():\n    return used(obj.attr, 'text', parse_x)\n")
    assert uncalled_exports(init, [caller]) == ["format_y", "parse_z", "unused"]


# public methods kept although only the tests call them, with the reason
KEPT_METHODS = {
    "DirectSystem.limit_eq": "equality in the paper's limit group",
    "DirectSystem.limit_multiply": "the product of the paper's limit group",
    "DirectSystem.limit_inverse": "the inverse of the paper's limit group",
    "PcGroup.all_elements": "the exhaustive oracles' enumeration of a graph group",
    "PcGroup.element_index": "the exhaustive oracles' enumeration of a graph group",
}


def public_methods(init: Path) -> set:
    """`Class.method` for each public method of a class that `init` re-exports,
    read from the modules beside it."""
    exported = reexported_names(init)
    return {f"{node.name}.{item.name}"
            for path in init.parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) and node.name in exported
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def uncalled_methods(init: Path, callers) -> list:
    """Public methods whose name no caller mentions."""
    mentioned = mentioned_names(callers)
    return sorted(m for m in public_methods(init) if m.split(".")[1] not in mentioned)


def test_every_public_method_has_a_caller():
    assert uncalled_methods(PACKAGE / "__init__.py", caller_files()) == sorted(KEPT_METHODS)


def test_the_method_scan_reads_exported_classes_only(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Shown\n")
    (tmp_path / "a.py").write_text(
        "class Shown:\n    def used(self): pass\n    def unused(self): pass\n"
        "    def _private(self): pass\n    @property\n    def prop(self): pass\n"
        "class Hidden:\n    def ignored(self): pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("x.used()\nx.prop\n")
    assert public_methods(tmp_path / "__init__.py") == {"Shown.used", "Shown.unused", "Shown.prop"}
    assert uncalled_methods(tmp_path / "__init__.py", [caller]) == ["Shown.unused"]
