#!/usr/bin/env python3
"""Seeded micro-benchmark of cyclotomic arithmetic, with its own result check.

Usage: PYTHONPATH=src python3 perfbench/cyclo_probe.py <seed>

Draws random elements of Q(zeta_10) and Q(zeta_22) from the seed (the field
sizes of the rank-3 and I2(11) workloads), times products and inverses, and
prints `{"cyclo.mul_per_s.c10": ..., "cyclo.mul_per_s.c22": ...,
"cyclo.inverse_per_s.c22": ...}`, each the median of REPEATS timings.  Every
result is compared with complex floating-point evaluation, which does not use
the code under test; a mismatch exits with code 1.
"""

from __future__ import annotations

import cmath
import json
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from coxsol.cyclo import Cyclo, euler_phi

REPEATS = 3
OPERANDS = 64
# operations per timing, sized so that one timing takes about 0.15 s
MUL_OPS = {10: 800, 22: 150}
INVERSE_OPS = 60


def operand(rng, n: int) -> Cyclo:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(n))]
    coeffs[rng.randrange(len(coeffs))] = Fraction(rng.randint(1, 9))
    return Cyclo(n, coeffs)


def as_complex(x: Cyclo) -> complex:
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * z ** j for j, c in enumerate(x.coeffs))


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def rate(ops, count: int) -> float:
    """Median operations per second of REPEATS timings of `count` calls of ops(i)."""
    timings = []
    for _ in range(REPEATS):
        start = perf_counter()
        for i in range(count):
            ops(i)
        timings.append(perf_counter() - start)
    return count / statistics.median(timings)


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    out = {}
    for n in (10, 22):
        xs = [operand(rng, n) for _ in range(OPERANDS)]
        ys = [operand(rng, n) for _ in range(OPERANDS)]
        for x, y in zip(xs, ys):
            if not close(as_complex(x * y), as_complex(x) * as_complex(y)):
                print(f"wrong product in Q(zeta_{n}): {x!r} * {y!r}", file=sys.stderr)
                return 1
        out[f"cyclo.mul_per_s.c{n}"] = rate(
            lambda i: xs[i % OPERANDS] * ys[i % OPERANDS], MUL_OPS[n])
    for x in xs:
        if not close(as_complex(x.inverse()) * as_complex(x), 1):
            print(f"wrong inverse in Q(zeta_22): {x!r}", file=sys.stderr)
            return 1
    out["cyclo.inverse_per_s.c22"] = rate(lambda i: xs[i % OPERANDS].inverse(), INVERSE_OPS)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
