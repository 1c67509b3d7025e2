"""src/ holds what the simulator runs: no public definition that only
tests use, no import that its module never uses, no state field that
nothing reads, every function the benchmark's tracer times, numpy as its
one numeric library, and a GP window that only estimators names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ofdsim

PACKAGE = Path(ofdsim.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
VERIFIER = BENCH / "verify.py"
# the state a run carries from round to round; RunTrace and AggregateSeries
# are the run's output and are read by whoever asked for it
STATE_CLASSES = ("PrecisionState", "RidgeState", "GpState", "ProblemInstance")


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names used in tree as a Name, an Attribute or an import alias,
    leaving out the subtree skip. Docstrings are string constants, so
    text that mentions a name is no reference to it."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy():
    # numpy is the one numeric backend; scipy serves only the tests as an oracle
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not importers, f"modules under src/ofdsim that import scipy: {importers}"


def test_every_imported_name_is_used():
    # an import nothing reads is left behind by a deletion; __init__.py's
    # imports are read through __all__
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            node.value
            for assign in tree.body
            if isinstance(assign, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in assign.targets)
            for node in ast.walk(assign.value)
            if isinstance(node, ast.Constant)
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"names imported under src/ofdsim that the module never uses: {unused}"


def test_every_public_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for filename, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = set()
            for other, other_tree in trees.items():
                used |= _referenced_names(other_tree, node if other == filename else None)
            if node.name not in used:
                unused.append(f"{filename}:{node.name}")
    assert not unused, f"public definitions no code in src/ofdsim refers to: {unused}"


def _read_attributes(tree: ast.AST) -> set[str]:
    """Attribute names tree reads. Assigning into an attribute's elements
    (x.a[i] = v, x.a[i] += v) writes it and is no read."""
    written = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in written
    }


def test_every_state_field_is_read():
    # the benchmark's verifier checks the ridge state's m_mat and log_det,
    # so it counts as a reader
    trees = [ast.parse(path.read_text()) for path in (*sorted(PACKAGE.glob("*.py")), VERIFIER)]
    read = set().union(*map(_read_attributes, trees))
    unread = [
        f"{node.name}.{stmt.target.id}"
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in STATE_CLASSES
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    ]
    assert not unread, f"state fields that nothing in src/ofdsim or the verifier reads: {unread}"


def test_every_traced_function_exists():
    # a renamed or deleted function would leave its metric out of a traced
    # benchmark result; installing the tracer wraps the package's functions
    # in place, so it runs in a child process
    script = (
        "import importlib, json, tracer\n"
        "layers = {name: importlib.import_module(f'ofdsim.{name}') for name in tracer.LAYERS}\n"
        "installed = tracer.Tracer().install(layers)\n"
        "absent = tracer.layer_metrics(tracer.Spans([], [], [], [], {}, installed))[1]\n"
        "print(json.dumps(absent))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == [], "traced metrics whose functions are missing"


def test_a_run_that_starts_no_pool_loads_no_multiprocessing(tmp_path):
    # concurrent.futures and multiprocessing take about 30 ms to import, and
    # only a run that starts a worker pool needs them
    argv = ["run", "--policy", "ucb", "--agents", "3", "--horizon", "20", "--reps", "2",
            "--jobs", "1", "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from ofdsim import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "[]"


def test_only_estimators_reads_a_gp_window():
    # a GP window's layout, and when it is spent, are decided in estimators
    # alone: a GP state keeps its window, the scorers and gp_update condition
    # their round through gp_round, and no other module names the type or
    # gp_round, reads the state's window or reads a field of one
    from ofdsim.estimators import GpWindow

    heads = {"GpWindow", "gp_round"}
    names = {*heads, "window", *GpWindow._fields}
    readers = sorted({
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.name != "estimators.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in heads)
        or (isinstance(node, ast.alias) and node.name in heads)
    })
    assert not readers, f"modules other than estimators.py that name a GP window: {readers}"
