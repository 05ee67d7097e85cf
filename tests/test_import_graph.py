"""The package's modules import each other without a cycle, and cross
each other's private names only where the list below says.

Read from the source with `ast`, not by importing: every intra-package
import counts, including one inside a function body, where a cycle would
otherwise hide until that function runs.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jordanblocks"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def package_imports(source: str) -> set[str]:
    """Modules of the package that source imports, at any depth; a name
    imported from the package root counts as an import of `__init__`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "jordanblocks":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "jordanblocks":
                    found.add(rest.split(".")[0] or "__init__")
    return found


GRAPH = {path.stem: package_imports(path.read_text()) for path in PACKAGE.glob("*.py")}


def test_the_import_graph_is_acyclic():
    try:
        order = list(TopologicalSorter(GRAPH).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert set(order) == MODULES


def test_the_closed_forms_import_only_partitions():
    assert GRAPH["recursions"] == {"partitions"}


def test_only_reports_imports_the_verify_engine():
    # `--verify`'s engine has one door: no other module, even in a function
    # body, reaches construction
    assert {module for module, imported in GRAPH.items() if "construction" in imported} == {"reports"}


# (importer, owner, name): a module that takes another's private name. A new
# crossing is added here in the change that makes it.
PRIVATE_CROSSINGS = {
    ("cli", "reports", "_module"),
    ("cli", "reports", "_verify"),
    ("cli", "rules", "_DOMAINS"),
    ("construction", "oracle", "_blocks_from_ranks"),
    ("construction", "oracle", "_checked"),
    ("oracle", "linalg", "_working_dtype"),
    ("reports", "construction", "_split_adjoint_type"),
}


def test_private_names_cross_modules_only_where_listed():
    found = {
        (path.stem, node.module.split(".")[0], alias.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == PRIVATE_CROSSINGS


@pytest.mark.parametrize(
    "source, modules",
    [
        ("def f():\n    from .oracle import tensor_block_type\n", {"oracle"}),
        ("from . import rules, JordanType\n", {"rules", "__init__"}),
        ("import numpy\nimport jordanblocks.linalg as la\n", {"linalg"}),
        ("from jordanblocks.partitions import JordanType\n", {"partitions"}),
        ("from jordanblocks import oracle\n", {"oracle"}),
    ],
)
def test_imports_are_found_at_any_depth(source, modules):
    assert package_imports(source) == modules
