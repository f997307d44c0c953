"""The Coxeter types of rank <= 4: `verify a` and `verify b` across the
reducible ones of rank 3 and 4, and |W| and the class count of the connected
ones against closed forms.

The types come from generators over the classification, not from lists
written by hand, and their number is asserted, so a family that goes
missing fails loudly.
"""

import functools
import itertools
import math

import pytest

from coxsol.conjectures import verify_a, verify_b
from coxsol.coxeter import _NAMED, build_group, matrix_from_spec

# -- the connected types, from the classification -------------------------------------

MAX_LABEL = 6
# the one connected type of rank <= 4 that is not built (its |W|^2 table is too big)
H4 = ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))


def _canonical(rows):
    """The least relabelling of a Coxeter matrix, one per isomorphism class."""
    n = len(rows)
    return min(tuple(tuple(rows[p[i]][p[j]] for j in range(n)) for i in range(n))
               for p in itertools.permutations(range(n)))


def _connected(rows) -> bool:
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j, x in enumerate(rows[i]):
            if x > 2 and j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(rows)


def _finite(rows) -> bool:
    """The form -cos(pi / m_ij) is positive definite: every leading principal
    minor is positive, so is every pivot of elimination without row swaps."""
    n = len(rows)
    a = [[-math.cos(math.pi / rows[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] < 1e-9:
            return False
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= c * a[k][j]
    return True


@functools.cache
def connected_types():
    """Specs of the finite connected Coxeter types of rank <= 4 with every
    label <= MAX_LABEL, H4 left out, each named once: the Coxeter matrices are
    enumerated, kept when connected with a positive definite form, and named
    by the spec that builds an isomorphic matrix (A2 = I2(3) and B2 = I2(4)
    are named as dihedral groups)."""
    names = {}
    for spec in [f"I2({m})" for m in range(3, MAX_LABEL + 1)] + list(_NAMED):
        names.setdefault(_canonical(matrix_from_spec(spec).rows), spec)
    found = set()
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.product(range(2, MAX_LABEL + 1), repeat=len(pairs)):
            rows = [[1] * n for _ in range(n)]
            for (i, j), x in zip(pairs, labels):
                rows[i][j] = rows[j][i] = x
            if _connected(rows) and _finite(rows):
                found.add(_canonical(rows))
    h4 = _canonical(H4)
    assert found - set(names) == {h4}
    return sorted(names[key] for key in found if key != h4)


# -- the reducible types: verify a and verify b ---------------------------------------


def reducible_types(ranks):
    """Specs of the products of two or more connected types whose ranks add to
    one of ranks, each product named once, its factors by rank, then name
    (I2(2) = A1xA1 is a product, not a connected type)."""
    factors = sorted((len(matrix_from_spec(spec).rows), spec) for spec in connected_types())
    out = []
    for k in range(2, max(ranks) + 1):
        for combo in itertools.combinations_with_replacement(factors, k):
            if sum(r for r, _ in combo) in ranks:
                out.append("x".join(name for _, name in combo))
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


# -- the connected types: |W| and classes against closed forms ---------------------


def _partitions(n: int, largest=None) -> int:
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(_partitions(n - k, k) for k in range(1, min(n, largest) + 1))


def closed_form(spec: str):
    """(|W|, class count) of a connected type: A_n has (n+1)! elements and
    p(n+1) classes, B_n has 2^n n! and one class per pair of partitions of
    sizes adding to n, I2(m) has 2m and (m+3)/2 (odd m) or m/2+3 (even m)."""
    if spec.startswith("I2("):
        m = int(spec[3:-1])
        return 2 * m, (m + 3) // 2 if m % 2 else m // 2 + 3
    family, n = spec[0], int(spec[1:])
    if family == "A":
        return math.factorial(n + 1), _partitions(n + 1)
    if family == "B":
        return 2 ** n * math.factorial(n), \
            sum(_partitions(k) * _partitions(n - k) for k in range(n + 1))
    return {"D4": (192, 13), "F4": (1152, 25), "H3": (120, 10)}[spec]


def test_connected_type_count():
    assert len(connected_types()) == 12


@pytest.mark.parametrize("spec", connected_types())
def test_connected_type_orders_and_classes(spec):
    W = build_group(spec)
    assert (W.order, len(W.classes)) == closed_form(spec), spec
    assert sum(c.size for c in W.classes) == W.order, spec
