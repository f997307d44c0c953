#!/usr/bin/env python3
"""Time-to-verdict benchmark for the coxsol command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of a workload's corpus runs as a fresh `coxsol` process, one at a
time (a closed loop with one client).  The seed fixes the command order and
the operands of the cyclotomic probe.  Every output is checked against facts
that do not come from the code under test: the verdict must be `verified` with
all residuals zero, |W| and the class count must match closed forms, and the
rendered bytes must match the digest recorded in `digests.json`.

With `--trace 0` the run times group set-up, then whole passes over the corpus
for `--seconds` seconds, and reports the end-to-end metrics.  With `--trace 1`
it runs one plain pass and one traced pass (see `trace_child.py`) plus the
cyclotomic probe, and reports the per-layer metrics.  The last line of stdout
is one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Commands, as `coxsol` arguments; the group spec is always the last one.
# Cases left out for run length are listed in README.md with their times.
WORKLOADS = {
    # The headline use: conjecture A on the rank-3 groups (fields of conductor <= 10).
    "rank3-verify-a": [
        ("verify", "a", "A3"),
        ("verify", "a", "B3"),
        ("verify", "a", "H3"),
    ],
    # Same layers as rank3-verify-a, but the field degree grows with m.
    "dihedral-odd": [
        ("verify", "a", "I2(7)"), ("table", "I2(7)"),
        ("verify", "a", "I2(9)"), ("table", "I2(9)"),
        ("verify", "a", "I2(11)"), ("table", "I2(11)"),
    ],
    # Rank-4 products send the top identity through the bounded search.
    "product-search": [
        ("verify", "b", "A1xA1xI2(5)"),
        ("verify", "b", "I2(3)xI2(4)"),
        ("verify", "b", "A1xB3"),
    ],
    # One small command, for test_smoke.py.
    "smoke": [("verify", "a", "I2(5)")],
}

SETUP_ROUNDS = 5
COMMAND_TIMEOUT_S = 150

# |W| and the number of conjugacy classes; I2(m) and products are closed forms.
KNOWN_GROUPS = {"A1": (2, 2), "A3": (24, 5), "B3": (48, 10), "H3": (120, 10)}

END_TO_END_UNITS = {"pass_s": "s", "max_op_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# (span, field) pairs reported by a traced run, named `<span>.<field>`.
TRACED_FIELDS = [
    ("cyclo.Cyclo", "calls"), ("cyclo.inverse", "calls"), ("cyclo.inverse", "self_s"),
    ("linalg.rref", "calls"), ("linalg.rref", "self_s"),
    ("linalg.det", "calls"), ("linalg.det", "self_s"),
    ("linalg.coords_in_rowspace", "calls"), ("linalg.coords_in_rowspace", "self_s"),
    ("linalg.coords_in_span", "calls"), ("linalg.coords_in_span", "self_s"),
    ("coxeter.CoxeterGroup", "total_s"),
    ("coxeter.det_on_subspace", "calls"), ("coxeter.det_on_subspace", "total_s"),
    ("chars.det_character", "total_s"),
    ("chars.linear_characters", "calls"), ("chars.linear_characters", "self_s"),
    ("chars.induce", "calls"), ("chars.induce", "self_s"),
    ("descent.DescentAlgebra", "calls"),
    ("descent.ideal_character", "calls"), ("descent.ideal_character", "total_s"),
    ("descent.parabolic_ideal_character", "total_s"),
    ("orlik_solomon.IntersectionLattice", "calls"),
    ("orlik_solomon.IntersectionLattice", "total_s"),
    ("orlik_solomon.OSAlgebra", "calls"), ("orlik_solomon.straighten", "calls"),
    ("orlik_solomon.component_character", "total_s"),
    ("orlik_solomon.flat_shape_map", "total_s"),
    ("conjectures.construct_parabolic_B", "total_s"),
    ("conjectures.construct_C", "total_s"),
    ("conjectures.check_intertwiner", "total_s"),
    ("conjectures.verify", "total_s"),
    ("cli.main", "total_s"), ("cli.render", "self_s"),
]
PROBE_UNITS = {"cyclo.mul_per_s.c10": "1/s", "cyclo.mul_per_s.c22": "1/s",
               "cyclo.inverse_per_s.c22": "1/s"}


def per_layer_units() -> dict:
    units = {f"{span}.{field}": "count" if field == "calls" else "s"
             for span, field in TRACED_FIELDS}
    units["cli.output_bytes"] = "bytes"
    units["trace.pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    units.update(PROBE_UNITS)
    return units


# -- output checks ----------------------------------------------------------------------


def group_facts(spec: str):
    """(|W|, class count) of a spec, from closed forms only."""
    order, classes = 1, 1
    for factor in spec.split("x"):
        if factor.startswith("I2(") and factor.endswith(")"):
            m = int(factor[3:-1])
            o, c = 2 * m, (m + 3) // 2 if m % 2 else m // 2 + 3
        else:
            o, c = KNOWN_GROUPS[factor]
        order, classes = order * o, classes * c
    return order, classes


def _is_zero(value) -> bool:
    return all(num == "0" for num, _den in value["coeffs"])


def _report_problems(report: dict) -> list:
    """Every failed check or nonzero residual in a verify report and its cases."""
    out = [f"check {c['label']} failed" for c in report["checks"] if not c["ok"]]
    for label, cf in report["residuals"].items():
        if not all(_is_zero(v) for v in cf["values"]):
            out.append(f"residual {label} is not zero")
    for case in report.get("cases", []):
        out += _report_problems(case)
    return out


def check_output(argv, text: str, digests: dict) -> list:
    """Problems with one command's stdout; an empty list means it passed."""
    key = " ".join(argv)
    order, nclasses = group_facts(argv[-1])
    problems = []
    if key not in digests:
        problems.append("no recorded digest")
    elif hashlib.sha256(text.encode()).hexdigest() != digests[key]:
        problems.append("output differs from the recorded digest")
    try:
        if argv[0] == "group":
            data = json.loads(text)
            if data["order"] != order:
                problems.append(f"|W| is {data['order']}, expected {order}")
            if len(data["classes"]) != nclasses:
                problems.append(f"{len(data['classes'])} classes, expected {nclasses}")
            if sum(c["size"] for c in data["classes"]) != order:
                problems.append("class sizes do not add up to |W|")
        elif argv[0] == "verify":
            data = json.loads(text)
            if data["status"] != "verified":
                problems.append(f"status {data['status']}, expected verified")
            problems += _report_problems(data)
            top = "regular-sum" if argv[1] == "a" else "descent-top-sum"
            got = len(data["residuals"][top]["classes"])
            if got != nclasses:
                problems.append(f"{got} classes, expected {nclasses}")
        elif argv[0] == "table":
            lines = text.splitlines()
            if f"- order: {order}" not in lines:
                problems.append(f"table does not state order {order}")
            header = lines[lines.index("## characters") + 2]
            if header.count("|") - 2 != nclasses:
                problems.append(f"table has {header.count('|') - 2} columns, "
                                f"expected {nclasses}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# -- running commands -------------------------------------------------------------------


class Result:
    """One finished child process: timing, output and verdict."""

    def __init__(self, argv, wall_s, stdout, stderr, problems):
        self.argv = argv
        self.wall_s = wall_s
        self.stdout = stdout
        self.stderr = stderr
        self.problems = problems

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    """The environment of every child: this checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(cmd, argv, digests) -> Result:
    """Run one child to completion and check what it printed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Result(argv, time.perf_counter() - start, (exc.stdout or b"").decode(),
                      (exc.stderr or b"").decode(),
                      [f"killed after {COMMAND_TIMEOUT_S} s"])
    wall = time.perf_counter() - start
    stdout, stderr = proc.stdout.decode(), proc.stderr.decode()
    problems = check_output(argv, stdout, digests)
    if proc.returncode != 0 and argv[0] != "verify":
        problems.append(f"exit code {proc.returncode}")
    if proc.returncode < 0:
        problems.append(f"killed by signal {-proc.returncode}")
    return Result(argv, wall, stdout, stderr, problems)


def coxsol_cmd(argv):
    return [sys.executable, "-m", "coxsol.cli", *argv]


def traced_cmd(argv):
    return [sys.executable, os.path.join(HERE, "trace_child.py"), *argv]


class Session:
    """Runs and records every command of one benchmark run."""

    def __init__(self, digests):
        self.digests = digests
        self.results = []

    def run(self, argv, traced=False) -> Result:
        res = run_child(traced_cmd(argv) if traced else coxsol_cmd(argv),
                        argv, self.digests)
        self.results.append(res)
        status = "ok" if res.ok else "FAIL: " + "; ".join(res.problems)
        print(f"{' '.join(argv):28s} {res.wall_s:8.3f} s  {status}",
              file=sys.stderr, flush=True)
        return res

    def run_pass(self, order, traced=False):
        return [self.run(argv, traced) for argv in order]

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


def measure_end_to_end(session, corpus, rng, seconds) -> dict:
    """Time set-up rounds, then whole passes over the corpus for `seconds`.

    Set-up takes each group's fastest of SETUP_ROUNDS runs: the host's speed
    swings within seconds, and a `group` run is short enough to catch a fast
    stretch.  Passes are reported as medians, because the number of passes
    that fit in `seconds` grows when the host is fast, and a minimum over more
    samples reads lower, which would widen the host's swings.
    """
    specs = sorted({argv[-1] for argv in corpus})
    setup = {}
    for _ in range(SETUP_ROUNDS):
        for r in session.run_pass([("group", s) for s in rng.sample(specs, len(specs))]):
            setup[r.argv] = min(setup.get(r.argv, r.wall_s), r.wall_s)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(session.run_pass(rng.sample(corpus, len(corpus))))
        last = sum(r.wall_s for r in passes[-1])
        if time.perf_counter() - start + last > seconds:
            break
    done = [r for p in passes for r in p]
    return {
        "pass_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "max_op_s": statistics.median(max(r.wall_s for r in p) for p in passes),
        "setup_s": sum(setup.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_ratio": sum(r.ok for r in done) / len(done),
    }


def _trace_of(res: Result) -> dict:
    """The span table a traced child printed as the last line of stderr."""
    lines = res.stderr.strip().splitlines()
    try:
        return json.loads(lines[-1])["spans"]
    except (IndexError, ValueError, KeyError):
        res.problems.append("traced child printed no span table")
        return {}


def measure_per_layer(session, corpus, rng) -> dict:
    """One plain pass, then one traced pass whose span tables give the metrics."""
    plain = session.run_pass(rng.sample(corpus, len(corpus)))
    traced = session.run_pass(rng.sample(corpus, len(corpus)), traced=True)
    tables = [_trace_of(r) for r in traced]
    metrics = {f"{span}.{field}": sum(t.get(span, {}).get(field, 0) for t in tables)
               for span, field in TRACED_FIELDS}
    metrics["cli.output_bytes"] = sum(len(r.stdout.encode()) for r in traced)
    metrics["trace.pass_s"] = sum(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - sum(r.wall_s for r in plain)
    metrics.update(run_probe(session, rng.randrange(2 ** 32)))
    return metrics


def run_probe(session, seed) -> dict:
    """Cyclotomic arithmetic rates from cyclo_probe.py, which checks its own results."""
    cmd = [sys.executable, os.path.join(HERE, "cyclo_probe.py"), str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=COMMAND_TIMEOUT_S)
    problems = [] if proc.returncode == 0 else [proc.stderr.strip() or "probe failed"]
    rates = json.loads(proc.stdout) if proc.returncode == 0 else {}
    session.results.append(Result(("cyclo-probe",), 0.0, proc.stdout, proc.stderr,
                                  problems))
    return {name: rates.get(name, 0.0) for name in PROBE_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coxsol", "cli.py")):
        print(f"error: no coxsol sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)

    rng = random.Random(args.seed)
    corpus = WORKLOADS[args.workload]
    session = Session(digests)
    if args.trace:
        values, units = measure_per_layer(session, corpus, rng), per_layer_units()
    else:
        values = measure_end_to_end(session, corpus, rng, args.seconds)
        units = END_TO_END_UNITS
    result = {
        "correct": session.failed == 0,
        "attempted": len(session.results),
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
