"""Every top-level function of the package is used by the package.

A function that only tests call is a test oracle and belongs in
`tests/oracles.py`.  The layer tracer in perfbench/ patches some functions by
name, so those may stay in the package while the tracer names them.
"""

import ast
from pathlib import Path

import coxsol
from test_perfbench_targets import _targets

PACKAGE = Path(coxsol.__file__).parent


def _used_names(node) -> set:
    """The names that node reads, as variables or as attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_function_is_used_by_the_package():
    traced = {(module, attr) for module, cls, attr, _ in _targets() if cls is None}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    statements = [node for tree in trees.values() for node in tree.body]
    unused = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or (module, fn.name) in traced:
                continue
            if not any(fn.name in _used_names(node) for node in statements if node is not fn):
                unused.append(f"{module}.{fn.name}")
    assert unused == []
