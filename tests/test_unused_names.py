"""Every function, class and property defined in ``src/ecoamlp`` is used there.

Public API that nothing in the package calls is deleted rather than kept
for its tests. A definition counts as used when its name is referenced
somewhere in ``src/ecoamlp``: as a name, an attribute, a keyword argument
or an import.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ecoamlp"

EXEMPT = {"cli._Parser.error"}
"""Hooks that other code calls by name: argparse calls ``error``."""


def _definitions(module: str, tree: ast.AST):
    """(qualified name, name) of every function and class in ``tree``,
    methods and properties included, dunder methods left out."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    yield qualified, child.name
                yield from walk(child, qualified)
            else:
                yield from walk(child, prefix)
    yield from walk(tree, module)


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = [qualified for module, tree in trees.items()
              for qualified, name in _definitions(module, tree)
              if name not in referenced and qualified not in EXEMPT]
    assert unused == []
