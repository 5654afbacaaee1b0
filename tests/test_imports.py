"""Source hygiene: every name a package module imports is used in that module.

No linter is a declared dependency, so this reads the source with the
standard library's `ast`. A name counts as used when it appears as a name
expression anywhere in the module (annotations included) or is listed in
the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "fisherjscc"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement outside `__future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported_names(tree).items())
            if name not in used]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"cli.py", "models.py", "experiments.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np, sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]
