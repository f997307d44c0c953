"""End to end tests of the command line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxsol
from coxsol.chars import class_function_from_json
from coxsol.cli import main
from coxsol.coxeter import CoxeterGroup, build_group
from coxsol.cyclo import Cyclo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_group_dihedral_nine(capsys):
    data = run_json(capsys, "group", "I2(9)")
    assert data["order"] == 18
    assert data["rank"] == 2
    assert len(data["classes"]) == 6
    assert len(data["cuspidal_classes"]) == 4
    assert data["longest"] == "s1*s2*s1*s2*s1*s2*s1*s2*s1"
    assert data["reflections"] == 9


def test_group_shapes_a3(capsys):
    data = run_json(capsys, "group", "A3")
    shapes = {s["canonical"]: s for s in data["shapes"]}
    assert set(shapes) == {"", "s1", "s1,s2", "s1,s3", "s1,s2,s3"}
    assert shapes["s1"]["members"] == ["s1", "s2", "s3"]
    assert shapes["s1,s2"]["members"] == ["s1,s2", "s2,s3"]
    assert shapes["s1,s3"]["bulky"] is False
    assert shapes["s1,s2"]["bulky"] is True
    assert shapes["s1,s3"]["normalizer_order"] == 8


def test_descent_a3(capsys):
    data = run_json(capsys, "descent", "A3")
    assert data["subsets"][0] == ""
    assert data["m_matrix"][0] == [24, 0, 0, 0, 0, 0, 0, 0]
    assert data["m_matrix"][-1] == [1, 1, 1, 1, 1, 1, 1, 1]
    e_empty = data["idempotents"][""]
    assert all(c == "1/24" for c in e_empty.values())
    assert len(e_empty) == 24
    top = [r for r in data["characters"] if r["shape"] == "s1,s2,s3"]
    assert len(top) == 1
    degree = Cyclo.from_json(top[0]["values"][0]).as_rational()
    assert degree == 6


def test_descent_relative(capsys):
    data = run_json(capsys, "descent", "B3", "--L", "s1,s2")
    assert data["L"] == "s1,s2"
    assert data["subsets"] == ["", "s1", "s2", "s1,s2"]
    assert data["m_matrix"][0][0] == 8


def test_os_dihedral(capsys):
    data = run_json(capsys, "os", "I2(5)")
    assert data["dimensions"] == [1, 5, 4]
    assert data["total_dimension"] == 10
    assert data["angle_unit"] == "pi/5"
    angles = {a["hyperplane"]: a["angle"] for a in data["angles"]}
    assert angles["s1"] == 0
    assert angles["s2"] == 4
    assert sorted(a["angle"] for a in data["angles"]) == [0, 1, 2, 3, 4]
    whole = [Cyclo.from_json(v).as_rational() for v in data["whole"]]
    assert whole[0] == 10


def test_os_seed_order_invariance(capsys):
    base = run_json(capsys, "os", "A3")
    seeded = run_json(capsys, "os", "A3", "--seed-order", "13")
    assert base["dimensions"] == seeded["dimensions"] == [1, 6, 11, 6]
    assert base["characters"] == seeded["characters"]
    assert base["whole"] == seeded["whole"]
    assert "angles" not in base


def test_verify_b_verified(capsys):
    code, out, _ = run(capsys, "verify", "b", "A1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "verified"
    assert data["ok"] is True
    assert {c["label"] for c in data["checks"]} >= {
        "construction", "descent-top-sum", "arrangement-top-sum"}
    for res in data["residuals"].values():
        for v in res["values"]:
            assert Cyclo.from_json(v).is_zero()


def test_verify_residual_roundtrip(capsys):
    data = run_json(capsys, "verify", "c", "A3", "--L", "s1,s3")
    W = build_group("A3")
    N = W.normalizer_of_parabolic((0, 2))
    cf = class_function_from_json(data["residuals"]["descent-tilde-sum"], N)
    assert cf.is_zero()
    assert data["assignments"]["s1*s3"]["route"] == "module"


def test_verify_a_cases(capsys):
    data = run_json(capsys, "verify", "a", "I2(7)")
    assert data["status"] == "verified"
    assert [c["L"] for c in data["cases"]] == ["", "s1", "s1,s2"]
    assert all(c["ok"] for c in data["cases"])


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "c", "A3")[0] == 2
    assert run(capsys, "verify", "b", "A3", "--L", "s1")[0] == 2
    assert run(capsys, "verify", "c", "A3", "--L", "s9")[0] == 2
    assert run(capsys, "verify", "c", "A3", "--L", "s1,s1")[0] == 2


def test_bad_spec_and_subcommand(capsys):
    assert run(capsys, "group", "Z9")[0] == 2
    assert run(capsys, "frobnicate", "A1")[0] == 2
    assert run(capsys)[0] == 2


def test_table_markdown_even(capsys):
    code, out, _ = run(capsys, "table", "I2(6)")
    assert code == 0
    assert "| Phi[s1] | 3 | -1 | 1 | -3 | 0 | 0 |" in out
    assert "| Phi[s2] | 3 | 1 | -1 | -3 | 0 | 0 |" in out
    assert "| omega | 12 | 4 | 4 | 12 | 0 | 0 |" in out


def test_table_json_odd(capsys):
    data = run_json(capsys, "table", "I2(5)", "--format", "json")
    assert data["columns"] == ["e", "s1", "(s1*s2)^1", "(s1*s2)^2"]
    rows = {r["label"]: r["values"] for r in data["rows"]}
    assert rows["Phi[s1]"] == [5, -1, 0, 0]
    assert rows["omega"] == [10, 2, 0, 0]


def test_table_needs_dihedral(capsys):
    assert run(capsys, "table", "A3")[0] == 2
    assert run(capsys, "table", "A2")[0] == 0


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "group", "A1", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["order"] == 2


def test_unwritable_out_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "group", "A1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_csv_format(capsys):
    code, out, _ = run(capsys, "os", "I2(4)", "--format", "csv")
    assert code == 0
    assert out.startswith("# dimensions\n")
    assert "Psi[s1],2,2,0,0,2" in out


def test_markdown_group(capsys):
    code, out, _ = run(capsys, "group", "B3", "--format", "markdown")
    assert code == 0
    assert "- order: 48" in out
    assert "## shapes" in out


def test_determinism(capsys):
    first = run(capsys, "descent", "H3")
    second = run(capsys, "descent", "H3")
    assert first == second


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


ALGEBRA_MODULES = ["coxsol.conjectures", "coxsol.descent", "coxsol.orlik_solomon",
                   "coxsol.chars"]


def test_cli_imports_the_algebra_modules_only_when_a_command_needs_them():
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxsol.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, coxsol.cli; "
             f"print([m for m in {ALGEBRA_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    from coxsol.conjectures import subset_label
    assert subset_label((0, 2)) == "s1,s3"


def test_max_elements_guard(capsys):
    assert run(capsys, "group", "H3", "--max-elements", "10")[0] == 2


def test_dihedral_over_the_bound_exits_two(capsys, monkeypatch):
    # I2(5001) has order 10002: refused before Q(zeta_10002) is built
    def refuse(self):
        raise AssertionError("the field was built")

    monkeypatch.setattr(CoxeterGroup, "_build_form", refuse)
    code, out, err = run(capsys, "group", "I2(5001)")
    assert code == 2, err
    assert out == ""
    assert "10000 elements" in err


def test_internal_error_exits_three(capsys, monkeypatch):
    import coxsol.cli

    def broken(args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setitem(coxsol.cli.COMMANDS, "group", broken)
    code, out, err = run(capsys, "group", "A1")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: broken on purpose" in err


def test_search_exhausted_exits_four(capsys, monkeypatch):
    from coxsol import conjectures

    monkeypatch.setattr(conjectures, "SEARCH_CAP", 0)
    code, out, err = run(capsys, "verify", "b", "A3")
    assert code == 4, err
    data = json.loads(out)
    assert data["status"] == "search-exhausted" and not data["ok"]


DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
                     .read_text())


@pytest.mark.parametrize("command", [
    pytest.param(key, marks=pytest.mark.slow) if key == "verify a I2(11)" else key
    for key in sorted(DIGESTS)])
def test_output_matches_recorded_digest(capsys, command):
    # the benchmark's recorded SHA-256 of each command's stdout
    code, out, err = run(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
