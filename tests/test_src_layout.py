"""src/ holds what the simulator runs: no public definition that only
tests use, no state field that nothing reads, and every function the
benchmark's tracer times."""

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
STATE_CLASSES = ("PrecisionState", "RidgeState", "GpState", "AllocationDecision")


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
