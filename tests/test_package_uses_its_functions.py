"""Every function and method of the package is used by the package.

A function or method that only tests call is a test oracle and belongs in
`tests/oracles.py`.  A name counts as used when the package reads it, as a
variable or as an attribute, anywhere outside its own `def`.  Dunder methods
are called by the language, so they are left out.  The layer tracer in
perfbench/ patches some functions and methods by name, so those may stay in
the package while the tracer names them.

Every attribute the package stores on an object (`x.name = ...`) is read by
name somewhere in the package; writing into it (`x.name[k] = ...`) is not a
read.  State that only tests read is derived in `tests/oracles.py`.

The root system is read only inside `coxeter.py`: how an element moves the
simple roots goes through `CoxeterGroup.on_simple`, so no other module reads
the root permutations, the roots or their counts.
"""

import ast
from collections import Counter
from pathlib import Path

import coxsol
from test_perfbench_targets import _targets

PACKAGE = Path(coxsol.__file__).parent
ROOT_MODEL = {"perms", "roots", "n_roots", "n_positive"}


def _package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node) -> Counter:
    """The names that node reads, as variables or as attributes, with their counts."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(class name or None, def) for each top-level function and each method
    of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield node.name, fn


def test_every_function_is_used_by_the_package():
    traced = {(module, cls, attr) for module, cls, attr, _ in _targets()}
    trees = _package_trees()
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls, fn in _definitions(tree):
            name = fn.name
            if (name.startswith("__") and name.endswith("__")) or (module, cls, name) in traced:
                continue
            if used[name] == _used_names(fn)[name]:
                unused.append(".".join(filter(None, (module, cls, name))))
    assert unused == []


def test_every_stored_attribute_is_read_by_the_package():
    stored, read = set(), Counter()
    for module, tree in _package_trees().items():
        written_into = {id(n.value) for n in ast.walk(tree)
                        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                if isinstance(n.ctx, ast.Store):
                    stored.add((module, n.attr))
                elif id(n) not in written_into:
                    read[n.attr] += 1
    assert sorted(f"{module}.{name}" for module, name in stored if not read[name]) == []


def test_only_coxeter_reads_the_root_model():
    readers = sorted({(module, n.attr) for module, tree in _package_trees().items()
                      if module != "coxeter" for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr in ROOT_MODEL})
    assert readers == []
