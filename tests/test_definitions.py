"""Every definition in the package is used somewhere.

A function, class or module-level name that nothing refers to is dead code
that a deletion left behind.  This reads the syntax trees of `src/fap`,
`tests` and `bench` and counts as a reference a name read, an attribute, an
imported name, or a name inside a string constant other than a docstring
(the benchmark wraps functions by their names as strings).  Dunder names
are called by Python itself and are exempt."""

import ast
from pathlib import Path

import fap

PACKAGE = Path(fap.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
SOURCES = [PACKAGE, ROOT / "tests", ROOT / "bench"]


def definitions(tree: ast.Module) -> set[str]:
    """Every function and class, and every name a module-level statement binds."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the constant nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def names_in(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.update(n.name.split("."))
    return names


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes, imported names and the names in string
    constants: the whole string, and each name of it read as an expression."""
    refs, skip = names_in(tree), docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            refs.add(node.value)
            try:
                refs |= names_in(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return refs


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for source in SOURCES for path in sorted(source.rglob("*.py"))}
    referenced = set().union(*(references(tree) for tree in trees.values()))
    unused = {}
    for path, tree in trees.items():
        if path.is_relative_to(PACKAGE):
            left = definitions(tree) - referenced
            if left:
                unused[path.name] = sorted(left)
    assert unused == {}
