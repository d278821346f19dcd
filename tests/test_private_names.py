"""Every private module-level name of the package is read somewhere in it.

A private name (``_x``, not a dunder) is the package's own: nothing outside
may rely on it, so one that no code of the package reads is dead and
should go with whatever stopped reading it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopsync"


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(tree):
    """The private names a module's top-level statements bind."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [ast.Name(stmt.name)]
        elif isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and _private(node.id):
                    yield node.id


def test_every_private_module_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = [(module, name) for module, tree in trees.items()
               for name in _defined(tree)]
    assert defined
    assert [(module, name) for module, name in defined
            if name not in read] == []
