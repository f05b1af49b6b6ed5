"""Every private helper of the library is referenced, so an unused one cannot linger.

An ``ast`` scan of ``src/tfred/*.py``.  A private name is one that starts with
a single or double underscore and is not a dunder (``__x__``); it is checked
when a module or a class body defines it (a function, a class or an assigned
name).  It counts as referenced when some ``src/tfred`` module reads it, as a
name or as an attribute, outside its own definition.  Names are matched by
spelling, not by scope.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "tfred").glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and len(name) > 1 and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module):
    """(name, node) of every private name a module or class body defines."""
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if is_private(name):
                    yield name, node


def reads(node: ast.AST) -> Counter:
    """How often each name is read in the subtree, as a name or an attribute."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    total: Counter = Counter()
    for tree in trees.values():
        total += reads(tree)
    unused = [
        f"{module}:{node.lineno} {name}"
        for module, tree in trees.items()
        for name, node in definitions(tree)
        if total[name] - reads(node)[name] <= 0
    ]
    assert not unused, f"private names that nothing in src/tfred references: {unused}"
