"""Source hygiene: every name a package module imports is used in that module,
every public module-level function and class is used by the package, and
only `data` imports `csv`.

No linter is a declared dependency, so this reads the source with the
standard library's `ast`. An import counts as used when its name appears as
a name expression anywhere in the module (annotations included) or is listed
in the module's `__all__`. A public function or class counts as used when
some package module refers to it, as a name or as an attribute, outside its
own definition: API that only tests call belongs in the tests. The CSV
artifact format (schema line, header, float cells) is `data.write_csv`'s
alone, so no other module needs the `csv` module.
"""

import ast
from collections import Counter
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


def references(node: ast.AST) -> Counter:
    """How often each name is read as a name expression or an attribute under node."""
    counts = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            counts[child.id] += 1
        elif isinstance(child, ast.Attribute):
            counts[child.attr] += 1
    return counts


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each public top-level def or class no module refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and total[node.name] == references(node)[node.name]):
                unused.append(f"{module}.{node.name}")
    return unused


def imports_csv(source: str) -> bool:
    """Whether the source imports the standard library's `csv` module or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "csv"
                                                for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv":
            return True
    return False


def test_modules_found():
    assert {path.name for path in MODULES} >= {"cli.py", "models.py", "experiments.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np, sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


def test_every_public_definition_is_used_by_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_definitions(sources) == []


def test_checker_flags_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    return 1\n\n"
             "def recursive():\n    return recursive()\n\n"
             "class Unused:\n    pass\n\n"
             "def _private():\n    pass\n",
        "b": "from a import used, Unused\nimport a\nprint(used(), a.recursive)\n",
    }
    assert unreferenced_definitions(sources) == ["a.Unused"]
    sources["b"] = "from a import used\nprint(used())\n"
    assert unreferenced_definitions(sources) == ["a.recursive", "a.Unused"]


def test_only_data_imports_csv():
    assert [path.name for path in MODULES
            if path.stem != "data" and imports_csv(path.read_text(encoding="utf-8"))] == []


def test_checker_flags_a_csv_import():
    assert imports_csv("import csv\n")
    assert imports_csv("import os, csv as table\n")
    assert imports_csv("def f():\n    from csv import writer\n    return writer\n")
    assert not imports_csv("import csvkit\nfrom . import csv\ntext = 'import csv'\n")
