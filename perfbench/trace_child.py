#!/usr/bin/env python3
"""Run one `coxsol` command with spans around the public entry points of each layer.

Usage: PYTHONPATH=src python3 perfbench/trace_child.py <coxsol arguments>

The program is traced from outside: class methods are patched on the class,
and each module function is replaced in every coxsol module namespace (and
registry dict) that holds it.  Then `coxsol.cli.main` runs as usual, so stdout
is the command's own output.  The span table goes to stderr as the last line,
`{"spans": {name: {"calls", "total_s", "self_s"}}}`.  Self time is a span's
duration minus the time of the spans it encloses; total time counts only the
outermost of nested spans of one name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, class or None, attribute, span name); a class's __init__ is named after the class.
TARGETS = [
    ("cyclo", "Cyclo", "__init__", "cyclo.Cyclo"),
    ("cyclo", "Cyclo", "inverse", "cyclo.inverse"),
    ("linalg", None, "rref", "linalg.rref"),
    ("linalg", None, "det", "linalg.det"),
    ("linalg", None, "coords_in_rowspace", "linalg.coords_in_rowspace"),
    ("linalg", None, "coords_in_span", "linalg.coords_in_span"),
    ("coxeter", "CoxeterGroup", "__init__", "coxeter.CoxeterGroup"),
    ("coxeter", "CoxeterGroup", "det_on_subspace", "coxeter.det_on_subspace"),
    ("chars", None, "det_character", "chars.det_character"),
    ("chars", None, "linear_characters", "chars.linear_characters"),
    ("chars", "ClassFunction", "induce", "chars.induce"),
    ("descent", "DescentAlgebra", "__init__", "descent.DescentAlgebra"),
    ("descent", "DescentAlgebra", "ideal_character", "descent.ideal_character"),
    ("descent", None, "parabolic_ideal_character", "descent.parabolic_ideal_character"),
    ("orlik_solomon", "IntersectionLattice", "__init__", "orlik_solomon.IntersectionLattice"),
    ("orlik_solomon", "OSAlgebra", "__init__", "orlik_solomon.OSAlgebra"),
    ("orlik_solomon", "OSAlgebra", "straighten", "orlik_solomon.straighten"),
    ("orlik_solomon", "OSAlgebra", "component_character", "orlik_solomon.component_character"),
    ("orlik_solomon", None, "flat_shape_map", "orlik_solomon.flat_shape_map"),
    ("conjectures", None, "construct_parabolic_B", "conjectures.construct_parabolic_B"),
    ("conjectures", None, "construct_C", "conjectures.construct_C"),
    ("conjectures", None, "check_intertwiner", "conjectures.check_intertwiner"),
    ("conjectures", None, "verify", "conjectures.verify"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "render_json", "cli.render"),
    ("cli", None, "render_markdown", "cli.render"),
    ("cli", None, "render_csv", "cli.render"),
]


class Tracer:
    """Per-name span aggregates: calls, total (outermost) time and self time."""

    def __init__(self):
        self.spans = {}
        self._children = []   # time covered by child spans, one slot per open span
        self._depth = {}      # open spans per name

    def wrap(self, name, fn):
        stats = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        children, depth = self._children, self._depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stats["calls"] += 1
            depth[name] = depth.get(name, 0) + 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stats["self_s"] += took - children.pop()
                if children:
                    children[-1] += took
                depth[name] -= 1
                if not depth[name]:
                    stats["total_s"] += took

        return span


def install(tracer: Tracer):
    modules = {name: importlib.import_module(f"coxsol.{name}")
               for name in sorted({t[0] for t in TARGETS})}
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "coxsol" or key.startswith("coxsol.")]
    for module, cls, attr, name in TARGETS:
        if cls is not None:
            owner = getattr(modules[module], cls)
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
            continue
        original = getattr(modules[module], attr)
        wrapped = tracer.wrap(name, original)
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapped
    return modules["cli"]


def main() -> int:
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps({"spans": tracer.spans}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
