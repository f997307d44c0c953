"""The layer tracer in perfbench/ patches coxsol by name; every name must still resolve."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def _targets():
    # compiled from its text, so loading it writes no bytecode next to it
    namespace = {"__name__": "trace_child"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for module, cls, attr, name in targets:
        owner = importlib.import_module(f"coxsol.{module}")
        if cls is not None:
            # the tracer reads the class's own __dict__, not an inherited attribute
            assert attr in vars(getattr(owner, cls)), name
        else:
            assert hasattr(owner, attr), name
