"""Every module of the package and of the test suite uses every name it
imports, every package module binds every name it exports, every private
module-level name of the package is read somewhere in it, and so is every
public function, class and method, bar the few the acceptance tests read.

No linter ships with the project, so this is the guard against imports,
exports and helpers left behind when code is deleted, and against library
code that only tests reach.  A name counts as used when it is
read anywhere in the module (annotations included, also string annotations)
or listed in ``__all__``.  ``__init__.py`` only re-exports and is skipped."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "conjcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(node: ast.AST):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.returns
    elif isinstance(node, ast.arg):
        yield node.annotation
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in _annotations(node):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _exported(tree: ast.Module) -> list:
    return [e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts]


def _bound(tree: ast.Module) -> set:
    """Names bound by the module's top-level definitions, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_is_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _bound(tree)
    unbound = [name for name in _exported(tree) if name not in bound]
    assert not unbound, f"{path.name}: __all__ names unbound {unbound}"


def _private_definitions(tree: ast.Module) -> set:
    """The module-level private names (``_x``, not dunders) a module binds by
    definition or assignment; imported names are checked above."""
    return {name for name in _bound(tree) - set(_imported(tree))
            if name.startswith("_") and not name.startswith("__")}


def _reads(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


PACKAGE_READS = set().union(*(_reads(ast.parse(p.read_text(), filename=str(p)))
                              for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = sorted(_private_definitions(tree) - PACKAGE_READS)
    assert not unread, f"{path.name}: private names read nowhere in the package {unread}"


# Read by no library code, but by tests/test_acceptance.py from the library.
ACCEPTANCE_READS = {"has_fixed_point", "vector_presentation", "reduce_translation",
                    "SL2Element.to_matrix"}

PACKAGE_ATTRIBUTE_READS = {node.attr for p in PACKAGE.glob("*.py")
                           for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
                           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public module-level function and class
    and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = PACKAGE_READS | PACKAGE_ATTRIBUTE_READS
    unread = sorted(qualified for qualified, name in _public_definitions(tree)
                    if name not in read and qualified not in ACCEPTANCE_READS)
    assert not unread, f"{path.name}: public names read nowhere in the package {unread}"
