"""src/ holds what the simulator runs: no public definition that only tests use."""

import ast
from pathlib import Path

import ofdsim

PACKAGE = Path(ofdsim.__file__).parent


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
