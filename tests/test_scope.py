"""`verify a` and `verify b` across the reducible Coxeter types of rank 3 and 4.

The types come from a generator over the classification, not from a list
written by hand, and their number is asserted, so a family that goes
missing fails loudly.
"""

import itertools

import pytest

from coxsol.conjectures import verify_a, verify_b
from coxsol.coxeter import build_group

# irreducible factors of rank <= 3, each named once: A2 = I2(3), B2 = I2(4),
# and I2(2) = A1xA1 is a product
FACTORS = [("A1", 1)] + [(f"I2({m})", 2) for m in range(3, 7)] + \
    [("A3", 3), ("B3", 3), ("H3", 3)]


def reducible_types(ranks):
    """Specs of the products of two or more factors whose ranks add to one of ranks."""
    out = []
    for k in range(2, max(ranks) + 1):
        for combo in itertools.combinations_with_replacement(FACTORS, k):
            if sum(r for _, r in combo) in ranks:
                out.append("x".join(name for name, _ in combo))
    return out


# over about 2 s in-process; they run with the slow tests
SLOW_B = {"I2(4)xI2(6)", "I2(5)xI2(6)"}
SLOW_A = {"A1xH3", "I2(4)xI2(5)", "I2(4)xI2(6)", "I2(5)xI2(5)", "I2(5)xI2(6)"}
# the larger half of the search has 7 962 624 combinations, over SEARCH_CAP
EXHAUSTED = {"I2(6)xI2(6)"}


def _rows(slow):
    rows = []
    for spec in reducible_types({3, 4}):
        if spec in EXHAUSTED:
            rows.append(pytest.param(spec, marks=[pytest.mark.slow, pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="search cap exceeded")]))
        else:
            rows.append(pytest.param(spec, marks=pytest.mark.slow) if spec in slow else spec)
    return rows


def test_reducible_type_counts():
    assert len(reducible_types({3})) == 5
    assert len(reducible_types({4})) == 18
    assert len(set(reducible_types({3, 4}))) == 23


def _assert_verified(report, spec):
    assert report.status == "verified", spec
    assert report.residuals and all(r.is_zero() for r in report.residuals.values()), spec


@pytest.mark.parametrize("spec", _rows(SLOW_B))
def test_verify_b_reducible(spec):
    _assert_verified(verify_b(build_group(spec)), spec)


@pytest.mark.parametrize("spec", _rows(SLOW_A))
def test_verify_a_reducible(spec):
    W = build_group(spec)
    report = verify_a(W)
    _assert_verified(report, spec)
    assert [sub.L for sub in report.subreports] == \
        [tuple(sorted(shape.canonical)) for shape in W.shapes()], spec
