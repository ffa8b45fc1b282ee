"""No library module imports a name it never uses.

The repository runs no linter, so this is the check that catches an import
left behind when the code that used it goes.
"""
import ast
from pathlib import Path

import pytest

import doctnn

MODULES = sorted(path for path in Path(doctnn.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree):
    """Each name an import statement binds, with the line it is on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno)
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def used_names(tree):
    """Names read anywhere, the base of every attribute included, and in string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            # a forward reference such as "Topology" is a string until it is evaluated
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(name, ast.Name))
    return used


def test_the_scan_sees_a_string_annotation_and_an_attribute_base():
    tree = ast.parse("import numpy as np\nfrom .topology import Topology\n"
                     "from .x import unused\n"
                     "def f(t: 'Topology') -> None:\n    return np.zeros(1)\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["unused"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_library_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == []
