"""Import hygiene of the package source, checked on its syntax trees."""

import ast
from pathlib import Path

import codedmm

SOURCE = Path(codedmm.__file__).parent


def _imported(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_import_is_used_and_the_package_exports_what_it_imports():
    faults = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            # the package imports exactly the names it exports
            exported = next(
                ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
            )
            names = set(exported) ^ _imported(tree)
        else:
            names = _imported(tree) - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if names:
            faults[path.name] = sorted(names)
    assert faults == {}
