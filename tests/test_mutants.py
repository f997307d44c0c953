"""The mutation register of tests/mutants.py: every fragment is still in the
source, once, and (slow) every mutant is killed by the tests it names."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _ids(mutant):
    return mutant.name


@pytest.mark.parametrize("mutant", MUTANTS, ids=_ids)
def test_mutant_fragment_occurs_once(mutant):
    text = (SRC / "coxsol" / mutant.module).read_text()
    assert text.count(mutant.fragment) == 1, mutant.name
    assert mutant.replacement != mutant.fragment
    assert mutant.killed_by, mutant.name
    for node in mutant.killed_by:
        path, test = node.split("::")
        name = test.split("[")[0]
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


def _failed(output: str) -> set:
    """The node ids of the FAILED and ERROR lines of pytest's short summary."""
    out = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.add(line[len(tag):].split(" - ")[0])
    return out


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=_ids)
def test_mutant_is_killed(mutant, tmp_path):
    """src/ copied to tmp_path with the fragment replaced; the named tests run
    against the copy in one subprocess, and each of them fails."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "coxsol" / mutant.module
    module.write_text(module.read_text().replace(mutant.fragment, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *mutant.killed_by],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
    assert _failed(run.stdout) == set(mutant.killed_by), run.stdout[-2000:]
