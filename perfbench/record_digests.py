#!/usr/bin/env python3
"""Write digests.json: the SHA-256 of the stdout of every command the benchmark runs.

Usage, from the root of a checkout: python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right; the benchmark
then fails any later output that differs by a single byte.
"""

import hashlib
import json
import os
import subprocess

import run


def main():
    commands = set()
    for corpus in run.WORKLOADS.values():
        commands.update(corpus)
        commands.update(("group", argv[-1]) for argv in corpus)
    digests = {}
    for argv in sorted(commands):
        out = subprocess.run(run.coxsol_cmd(argv), capture_output=True, env=run.child_env(),
                             cwd=run.ROOT, check=False).stdout
        digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
