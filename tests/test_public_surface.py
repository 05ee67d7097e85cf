"""The package root exports exactly the names its documented callers import.

Besides `__all__` itself, the guard reads, without importing or running
them, the functions `bench/spans.py` traces, the names
`bench/make_reference.py` imports from the root, and the imports of the
README's Python examples, and checks that each one still resolves.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import jordanblocks

REPO = Path(__file__).resolve().parents[1]

ROOT_NAMES = [
    "DEFAULT_MAX_ENTRIES",
    "DecompositionReport",
    "GroupContext",
    "JordanType",
    "OracleCapError",
    "adjoint_rule",
    "build_adjoint_action",
    "build_report",
    "clebsch_gordan",
    "ext2_type",
    "free_rule",
    "jordan_type_of",
    "parse_jordan_type",
    "partitions_of",
    "sym2_type",
    "tensor_block_type",
    "tensor_dual_type",
    "validate_classical",
]


def root_imports(source: str) -> list[str]:
    """Names that `from jordanblocks import ...` statements in source import."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "jordanblocks" and not node.level
        for alias in node.names
    ]


def resolves(name: str) -> bool:
    """Whether `from jordanblocks import name` succeeds: a root name or a submodule."""
    return hasattr(jordanblocks, name) or importlib.util.find_spec(f"jordanblocks.{name}") is not None


def assigned(path: Path, name: str):
    """The literal value bound to a module-level name, read without importing."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_root_names_are_pinned_and_resolve():
    assert sorted(jordanblocks.__all__) == ROOT_NAMES
    assert [name for name in ROOT_NAMES if not hasattr(jordanblocks, name)] == []


def test_every_traced_function_exists():
    spans = REPO / "bench" / "spans.py"
    methods = assigned(spans, "_METHODS")
    missing = []
    for module_name, name in assigned(spans, "TRACED"):
        owner = importlib.import_module(f"jordanblocks.{module_name}")
        cls, _, method = name.partition(".")
        path = (cls, methods[name]) if method else (name,)
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{name}")
    assert missing == []


def test_reference_script_imports_resolve():
    names = root_imports((REPO / "bench" / "make_reference.py").read_text(encoding="utf-8"))
    assert names
    assert [name for name in names if not resolves(name)] == []


def test_readme_examples_import_resolve():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    names = [
        name
        for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        for name in root_imports(block)
    ]
    assert names
    assert [name for name in names if not resolves(name)] == []
