"""End to end tests of the command line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxsol
from coxsol.cli import main
from coxsol.coxeter import CoxeterGroup, build_group
from coxsol.orlik_solomon import os_algebra
from oracles import from_json, nbc


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
    degree = from_json(top[0]["values"][0]).as_rational()
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
    whole = [from_json(v).as_rational() for v in data["whole"]]
    assert whole[0] == 10


@pytest.mark.parametrize("spec", ["A3", "H3", "I2(7)", "A1xI2(5)"])
def test_os_seed_order_invariance(capsys, spec):
    # what os prints is what the NBC basis of a shuffled hyperplane order gives
    data = run_json(capsys, "os", spec)
    W = build_group(spec)
    alg = os_algebra(W)
    shuffled = nbc(alg, 13)
    assert shuffled.order != sorted(W.reflections)
    assert data["dimensions"] == [len(level) for level in shuffled.nbc_basis]
    assert data["classes"] == [W.word_str(c.rep) for c in W.full().classes]
    whole = shuffled.component_character(range(len(alg.lattice.flats)), W.full())
    assert [from_json(v).as_rational() for v in data["whole"]] == list(whole.values)
    assert ("angles" in data) == (spec == "I2(7)")


def test_os_takes_no_seed_order(capsys):
    # no dimension or character depends on an order of the hyperplanes
    code, out, err = run(capsys, "os", "A3", "--seed-order", "13")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed-order 13" in err


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
            assert from_json(v).is_zero()


def test_verify_residual_roundtrip(capsys):
    data = run_json(capsys, "verify", "c", "A3", "--L", "s1,s3")
    W = build_group("A3")
    N = W.normalizer_of_parabolic((0, 2))
    residual = data["residuals"]["descent-tilde-sum"]
    assert residual["classes"] == [W.word_str(c.rep) for c in N.classes]
    assert all(from_json(v).is_zero() for v in residual["values"])
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
    # `group` is the command the benchmark's setup time runs
    probe = ("import sys, coxsol.cli; code = coxsol.cli.main(['group', 'A3']); "
             f"print(code, [m for m in {ALGEBRA_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
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


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_recorded_digest(capsys, command):
    # the benchmark's recorded SHA-256 of each command's stdout
    code, out, err = run(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


# SHA-256 of the stdout of `os` commands, recorded before Psi and the dimensions
# came from Moebius numbers (the JSON rows again when the echoed seed_order key
# left the output); the benchmark digests hold no `os` command
OS_DIGESTS = {
    "os A3": "3ceb7dddbe161959f552a99a8d1febb01e6c0d6a8271652da7cbc7258d270e38",
    "os B3": "4c683dc2e82f0d829ae66acabbdd507fc98b366cc0f03ab4839a7b479e590e1f",
    "os H3": "bf18c10b49f5a994fc77a1419993c29202ae2f7d317cd92374bc438d24aa88bf",
    "os A4": "168c8a0ac97107b9111612b4da7a0d689484ce1ab00fe2d886ecc48f6a892849",
    "os D4": "ce2b73319549813ac1f2dbb883f6f766f77c28422eadc38c536adfd593c84ed3",
    "os B4": "4e494018ddb0df864777cb54e55fcd7bb57b4de99bbcf31bb2936488d0d8bd53",
    "os I2(7)": "1a3d2bd6a8cd236080a237f7a28c9c85021a3356b9f0e8792289f55e0f6340b9",
    "os A1xH3": "a9e232429107343fb21105b3670b565fe9e622b46250e447b31fbcc80155a5d8",
    "os H3 --format markdown": "0279b1d3fcb135277c8489e393f00779f76ff786b0f6997d99a7eddba7924ec1",
}


@pytest.mark.parametrize("command", sorted(OS_DIGESTS))
def test_os_output_matches_recorded_digest(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == OS_DIGESTS[command]


# (exit code, SHA-256 of stdout) of rank-4 commands, recorded before Phi~ was
# read in x_J coordinates of the parabolic (`verify b` on A4 and D4 before linear
# characters were built on H itself; `verify a` on D4, B4 and F4 and the
# `verify c` rows when the non bulky rank 3 subsets became lifts, not
# searches); rows slower than about 2 s are slow
RANK4_PINS = {
    "descent A4": (0, "79b4d07e99596595e618cb1683261936fb70d6d3b37ed65f3525ce70ed872ee0"),
    "descent B4": (0, "809e712a2a4f867525615019dd87ea2cf255a34a68acafdaeebd1744cd73552d"),
    "descent D4": (0, "59c104f62b6b5cbca0edf8df65280ac3c915afb7181bbe0370adf1f6ff059ef6"),
    "descent F4": (0, "f600543155ef90715d57599f1d1072c83b5139b3378413e52521256e4e441f06"),
    "verify a A4": (0, "583429319de4dc4fd1ecc9feaa45f2f79ab8bf86909531a19f3634a1cc1f67b6"),
    "verify a D4": (0, "ccd83568678be40a2305628e1f6056d54686fd10dc5fb2ace5a607632360c5a6"),
    "verify a B4": (0, "fb37b9c26a3ee7a15712d898378d7404a8399d42a8a378135cc221dc336547d8"),
    "verify a F4": (0, "2713fba1fcb1d20fc756d1163090a65d663a7910ccf85d222f7cf747f4192884"),
    "verify b A4": (0, "4893b85d1d363a27817bad02881fcd252d5f1aee40b1cacd5bc84679822b6137"),
    "verify b D4": (0, "305a41aa81437aa7f187a0e6264f0a0ef58c2fbb9cdffd0078867776a37db049"),
    "verify b B4": (0, "8958a36a73bd1d425a20e942017355c8359218abb0f83c8dc027e015632c6d0a"),
    "verify b F4": (0, "fd49c5be9bf487527e2ffcb774ecf8e03c264f2a070eeb9565a09419bcd94fc1"),
    "verify c B4 --L s1,s3,s4":
        (0, "398069b7ffcc30cb6b0c94576d41410e94e1edaee1af29be84203e9c3b96f2c1"),
    "verify c D4 --L s1,s2,s3":
        (0, "a933fe2535fd296fdc4669c5f98bb08674e63378c7f2ccbb4012d3ed29a040f9"),
    "verify c F4 --L s1,s2,s4":
        (0, "877502588e652fd779c3e98be531a3fc9ae4f1c35248aa278407a9ee8e0b82f6"),
    "verify c A1xH3 --L s1,s2,s3":
        (0, "c831aa0c5451fa7a19258fd719b33f4a5fe831d1f1c8085d5be2bb3b06a01aaa"),
}
SLOW_PINS = {"verify a B4", "verify a F4", "verify b F4"}


@pytest.mark.parametrize("command", [
    pytest.param(c, marks=pytest.mark.slow) if c in SLOW_PINS else c for c in RANK4_PINS])
def test_rank4_output_matches_pin(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == RANK4_PINS[command]
