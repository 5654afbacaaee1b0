"""Source hygiene: every name a package module imports is used in that module,
every public module-level function and class, and every public method of a
module-level class, is used by the package, only `data` imports `csv`, only
`channel` and `data` draw normals (`.normals(`), only `train` and
`experiments` call `channel_noise`, only `train` calls `backward`, and
`autodiff` makes no finite check.

No linter is a declared dependency, so this reads the source with the
standard library's `ast`. An import counts as used when its name appears as
a name expression anywhere in the module (annotations included) or is listed
in the module's `__all__`. A public function or class counts as used when
some package module refers to it, as a name or as an attribute, outside its
own definition, and so does a public method: API that only tests call
belongs in the tests. The CSV artifact format (schema line, header, float
cells) is `data.write_csv`'s alone, so no other module needs the `csv`
module. Channel noise has one implementation, `channel.channel_noise`, so
outside `data`'s seeded datasets no module draws normals but `channel`; and
it has two callers, `train` for the training step's block and `experiments`
for every Monte-Carlo block, so the math in `robustness` draws nothing. A
training step runs one backward pass, in `train`; the models and the Fisher
trace are nodes with closed-form gradients, so no other module needs a
backward pass of its own. The tape is bookkeeping only: a value is checked
finite by the code that computes it, and a step's loss and gradient vector by
`train`, so `autodiff` calls neither `check_finite` nor `isfinite`. In `cli`,
an artifact reaches disk only through `_publish`, which stages each file and
renames it in before the manifest: no other code there creates a directory,
renames a file, calls an artifact writer or opens a file in a write mode;
commands hand `_publish` the writers, uncalled.

The README names each CSV table's schema string (`fisherjscc.<table>.vN`),
and names no other: the set it names equals the set of the package's
module-level `*_SCHEMA` string constants, so a schema bump that leaves the
README behind fails here.

The package sets OPENBLAS_NUM_THREADS to 1 unless it is already set, and
OpenBLAS reads it once, when NumPy loads: so in `__init__.py` the
`os.environ.setdefault` call must come before every import but `import os`.
Fresh interpreters check that the pin takes effect and yields to the caller.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "fisherjscc"
BLAS_THREADS = "OPENBLAS_NUM_THREADS"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
README = PACKAGE_DIR.parent.parent / "README.md"
SCHEMA_NAME = re.compile(r"fisherjscc\.\w+\.v\d+")


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each public top-level def or class, and module.Class.name of each
    public method of a top-level class, that no module refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            members = [(f"{node.name}.", member) for member in node.body
                       if isinstance(node, ast.ClassDef) and isinstance(member, DEFINITIONS)]
            for prefix, definition in [("", node), *members]:
                if (not definition.name.startswith("_")
                        and total[definition.name] == references(definition)[definition.name]):
                    unused.append(f"{module}.{prefix}{definition.name}")
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


def calls_normals(source: str) -> bool:
    """Whether the source calls a `normals` attribute, as in `rng.normals(n)`."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "normals"
               for node in ast.walk(ast.parse(source)))


def calls_channel_noise(source: str) -> bool:
    """Whether the source calls `channel_noise`, as a name or as an attribute."""
    return any(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Attribute) and node.func.attr == "channel_noise"
                    or isinstance(node.func, ast.Name) and node.func.id == "channel_noise")
               for node in ast.walk(ast.parse(source)))


def calls_backward(source: str) -> bool:
    """Whether the source calls `backward`, as a name or as an attribute like `ad.backward`."""
    return any(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Attribute) and node.func.attr == "backward"
                    or isinstance(node.func, ast.Name) and node.func.id == "backward")
               for node in ast.walk(ast.parse(source)))


def calls_finite_check(source: str) -> bool:
    """Whether the source calls `check_finite` or `isfinite`, as a name or as an
    attribute like `np.isfinite`."""
    names = ("check_finite", "isfinite")
    return any(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Attribute) and node.func.attr in names
                    or isinstance(node.func, ast.Name) and node.func.id in names)
               for node in ast.walk(ast.parse(source)))


def schema_constants(source: str) -> set[str]:
    """The values of the module-level string constants whose names end in `_SCHEMA`."""
    return {node.value.value for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            and any(isinstance(target, ast.Name) and target.id.endswith("_SCHEMA")
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target]))}


WRITERS = {"mkdir", "makedirs", "rename", "write_csv", "save_table", "save_checkpoint",
           "write_text", "write_bytes"}


def writes(call: ast.Call) -> bool:
    """Whether the call creates a directory, renames a file, writes one through a writer
    function, or opens one in a mode that is not a constant read mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in WRITERS or ast.unparse(func) == "os.replace":
        return True
    if name != "open":
        return False
    positional = call.args[1:] if isinstance(func, ast.Name) else call.args  # open(path, mode)
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                positional[0] if positional else None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt"))


def writes_outside(source: str, owner: str) -> list[str]:
    """`line N: callee` for each writing call outside the top-level function owner."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef)
              and top.name == owner for node in ast.walk(top)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in inside and writes(node)]
    return [f"line {node.lineno}: {ast.unparse(node.func)}"
            for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset))]


def blas_pin_precedes_imports(source: str) -> bool:
    """Whether a module-level `os.environ.setdefault("OPENBLAS_NUM_THREADS", ...)`
    statement comes before every import statement other than `import os`."""
    tree = ast.parse(source)
    pins = [node.lineno for node in tree.body
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "os.environ.setdefault"
            and node.value.args and isinstance(node.value.args[0], ast.Constant)
            and node.value.args[0].value == BLAS_THREADS]
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and ast.unparse(node) != "import os"]
    return bool(pins) and all(line > pins[0] for line in imports)


def after_import(env: dict) -> tuple[str, int | None]:
    """OPENBLAS_NUM_THREADS and the process's thread count (None where /proc/self/task
    is absent) after `import fisherjscc` in a fresh interpreter given env."""
    env = dict(env, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = ("import os, fisherjscc\n"
            "tasks = '/proc/self/task'\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else None)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    value, threads = done.stdout.split()
    return value, None if threads == "None" else int(threads)


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
    methods = {
        "c": "class Model:\n"
             "    def predict(self):\n        return self.helper()\n\n"
             "    def helper(self):\n        return 1\n\n"
             "    def orphan(self):\n        return self.orphan()\n\n"
             "    @property\n    def width(self):\n        return 2\n\n"
             "    def _private(self):\n        pass\n",
        "d": "from c import Model\nprint(Model().predict(), Model().width)\n",
    }
    assert unreferenced_definitions(methods) == ["c.Model.orphan"]
    methods["d"] = "from c import Model\nprint(Model().predict())\n"
    assert unreferenced_definitions(methods) == ["c.Model.orphan", "c.Model.width"]


def test_only_data_imports_csv():
    assert [path.name for path in MODULES
            if path.stem != "data" and imports_csv(path.read_text(encoding="utf-8"))] == []


def test_checker_flags_a_csv_import():
    assert imports_csv("import csv\n")
    assert imports_csv("import os, csv as table\n")
    assert imports_csv("def f():\n    from csv import writer\n    return writer\n")
    assert not imports_csv("import csvkit\nfrom . import csv\ntext = 'import csv'\n")


def test_only_channel_and_data_draw_normals():
    assert [path.name for path in MODULES if path.stem not in ("channel", "data")
            and calls_normals(path.read_text(encoding="utf-8"))] == []


def test_checker_flags_a_normals_call():
    assert calls_normals("noise = rng.normals(8)\n")
    assert calls_normals("def f(seed):\n    return CounterRng(seed).normals(3) * 2.0\n")
    assert not calls_normals("def normals(self, n):\n    return n\n")
    assert not calls_normals("draw = rng.normals\ntext = 'rng.normals(3)'\nnormals(3)\n")


def test_only_train_and_experiments_call_channel_noise():
    assert [path.name for path in MODULES if path.stem not in ("train", "experiments")
            and calls_channel_noise(path.read_text(encoding="utf-8"))] == []


def test_checker_flags_a_channel_noise_call():
    assert calls_channel_noise("noise = channel_noise((2, 3), 1.0, 'awgn', rng)\n")
    assert calls_channel_noise("def f(rng):\n"
                               "    return channel.channel_noise((4,), 0.1, 'awgn', rng)\n")
    assert not calls_channel_noise("def channel_noise(shape, sigma2, family, rng):\n"
                                   "    return shape\n")
    assert not calls_channel_noise("draw = channel_noise\ntext = 'channel_noise(x)'\n"
                                   "channel_noises(1)\n")


def test_only_train_calls_backward():
    assert [path.name for path in MODULES if path.stem != "train"
            and calls_backward(path.read_text(encoding="utf-8"))] == []


def test_checker_flags_a_backward_call():
    assert calls_backward("grads = ad.backward(loss, params)\n")
    assert calls_backward("from .autodiff import backward\ng = backward(root, [z])[z]\n")
    assert calls_backward("def f(t):\n    return autodiff.backward(t, [t])\n")
    assert not calls_backward("def backward(root, wrt):\n    return {}\n")
    assert not calls_backward("step = ad.backward\ntext = 'ad.backward(x)'\nbackwards(1)\n")


def test_autodiff_makes_no_finite_check():
    assert not calls_finite_check((PACKAGE_DIR / "autodiff.py").read_text(encoding="utf-8"))


def test_checker_flags_a_finite_check():
    assert calls_finite_check("self.data = check_finite(np.asarray(data))\n")
    assert calls_finite_check("def f(g):\n    return models.check_finite(g)\n")
    assert calls_finite_check("if not np.isfinite(values).all():\n    raise ValueError\n")
    assert calls_finite_check("from math import isfinite\nok = isfinite(x)\n")
    assert not calls_finite_check("def check_finite(values):\n    return values\n")
    assert not calls_finite_check("check = np.isfinite\ntext = 'check_finite(x)'\n"
                                  "isfinite_all(1)\n")


def test_only_publish_writes_in_cli():
    assert writes_outside((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"),
                          "_publish") == []


def test_checker_flags_a_write_outside_the_owner():
    allowed = ("def _publish(out, writers):\n"
               "    out.mkdir(parents=True)\n"
               "    with open(out / 'm', 'w') as fh:\n"
               "        fh.write('x')\n"
               "    os.replace(out / 'm', out / 'n')\n"
               "    for write in writers:\n"
               "        write(out)\n\n"
               "def cmd(path, rows):\n"
               "    open(path)\n"
               "    open(path, 'rb')\n"
               "    path.open(mode='r')\n"
               "    text = 'a'.replace('a', 'b')\n"
               "    return partial(write_csv, rows=rows)\n")
    assert writes_outside(allowed, "_publish") == []
    flagged = ("def cmd(path, table, mode):\n"
               "    path.parent.mkdir()\n"
               "    open(path, 'a')\n"
               "    path.open('w')\n"
               "    open(path, mode=mode)\n"
               "    os.replace(path, path)\n"
               "    save_table(table, path)\n"
               "    return lambda p: p.write_text('x')\n")
    assert writes_outside(flagged, "_publish") == [
        "line 2: path.parent.mkdir", "line 3: open", "line 4: path.open", "line 5: open",
        "line 6: os.replace", "line 7: save_table", "line 8: p.write_text"]
    assert writes_outside(allowed.replace("_publish", "_other"), "_publish") == [
        "line 2: out.mkdir", "line 3: open", "line 5: os.replace"]


def test_readme_names_every_schema_and_no_other():
    schemas = set().union(*(schema_constants(path.read_text(encoding="utf-8"))
                            for path in MODULES))
    assert {schema.split(".")[1] for schema in schemas} == {
        "sweep", "taylor", "posterior", "compare", "trainlog"}
    assert set(SCHEMA_NAME.findall(README.read_text(encoding="utf-8"))) == schemas


def test_checker_reads_schema_constants():
    source = ('SWEEP_SCHEMA = "fisherjscc.sweep.v3"\n'
              'OLD_SCHEMA: str = "fisherjscc.old.v1"\n'
              'SCHEMA_NOTE = "fisherjscc.note.v1"\n'
              'WIDTH_SCHEMA = 3\n'
              'def f():\n    LOCAL_SCHEMA = "fisherjscc.local.v1"\n')
    assert schema_constants(source) == {"fisherjscc.sweep.v3", "fisherjscc.old.v1"}
    assert SCHEMA_NAME.findall("`fisherjscc.sweep.v3`: fisherjscc.cli, fisherjscc.a.v12") == [
        "fisherjscc.sweep.v3", "fisherjscc.a.v12"]


def test_blas_pin_precedes_every_import():
    assert blas_pin_precedes_imports((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))


def test_checker_flags_a_late_blas_pin():
    pin = "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n"
    assert blas_pin_precedes_imports("import os\n" + pin + "import numpy\nfrom . import a\n")
    assert not blas_pin_precedes_imports("import os\nimport numpy\n" + pin)
    assert not blas_pin_precedes_imports("import os\n" + pin.replace("OPENBLAS", "OMP"))
    assert not blas_pin_precedes_imports("import os, numpy\n" + pin)
    assert not blas_pin_precedes_imports("import os\ndef f():\n    " + pin)
    assert not blas_pin_precedes_imports("import os\n" + pin.replace("setdefault", "get"))


def test_import_pins_one_blas_thread_unless_set():
    """Unset, the pin holds and NumPy loads no BLAS worker; a caller's value wins."""
    unset = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    value, threads = after_import(unset)
    assert value == "1" and threads in (1, None)
    assert after_import(dict(unset, OPENBLAS_NUM_THREADS="2"))[0] == "2"
