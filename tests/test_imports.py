"""Import hygiene of the package source, the names the benchmark imports, and the package's modular
products outside the kernels, checked on their syntax trees."""

import ast
import importlib
from pathlib import Path

import codedmm

SOURCE = Path(codedmm.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _overflows(node: ast.AST) -> bool:
    """Whether node multiplies or sums: an int64 product (q < 2^62) or a sum of three entries can pass 2^63."""
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
               or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "sum"
               for n in ast.walk(node))


def test_modular_products_outside_the_kernels_are_scalar():
    # every `x * y % q` and `s.sum() % q` outside field.py (and every
    # np.remainder of one) must be marked as a scalar expression on Python
    # ints; array products go through field.mulmod, modmatmul or combine
    unmarked = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "field.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                reduced = node.left
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("remainder", "mod") and node.args:
                reduced = node.args[0]
            else:
                continue
            if _overflows(reduced) and "# scalar" not in lines[node.end_lineno - 1]:
                unmarked.append(f"{path.name}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    assert unmarked == []


def _resolves(module: str, name: str | None = None) -> bool:
    """Whether module imports and, when name is given, has it or a submodule of that name."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(found, name) or _resolves(f"{module}.{name}")


def test_every_name_the_benchmark_imports_resolves():
    # perfbench/ is kept unchanged between benchmark runs, so a deleted or
    # renamed public name fails here before the benchmark does
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert scripts
    missing = []
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "codedmm":
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not _resolves(node.module, alias.name)]
            elif isinstance(node, ast.Import):
                missing += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.partition(".")[0] == "codedmm" and not _resolves(alias.name)]
    assert missing == []
