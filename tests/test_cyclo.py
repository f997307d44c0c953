"""Tests for exact cyclotomic arithmetic."""

import json
import math
import random
from fractions import Fraction

import pytest

from coxsol.cyclo import (
    Cyclo, cos_pi_over, cyclotomic_polynomial, euler_phi, rational, zeta,
)
from oracles import conjugate, from_json


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(60) == 16


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    # x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (
        Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1))


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    # x^n - 1 = prod of Phi_d over d | n; by induction on n this pins down every Phi_n
    for n in range(1, 161):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                assert all(type(c) is int for c in phi) and phi[-1] == 1
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_vanishing_sums():
    for n in range(2, 14):
        total = sum((zeta(n, j) for j in range(n)), rational(0, n))
        assert total.is_zero()
        assert total == 0


def test_reduction_keeps_degree():
    for n in (5, 8, 12, 60):
        x = zeta(n)
        assert len(x.coeffs) == euler_phi(n)
        assert math.prod([x] * n).as_rational() == 1


def test_power_indexing():
    assert zeta(7, 3) == zeta(7) * zeta(7) * zeta(7)
    assert zeta(7, -1) == zeta(7, 6)
    assert zeta(9, 11) == zeta(9, 2)


def test_cross_conductor_equality():
    assert zeta(6) == -zeta(3, 2)
    assert zeta(4) * zeta(4) == -1
    assert zeta(2) == -1
    assert rational(Fraction(3, 2), 5) == rational(Fraction(3, 2), 8)
    assert zeta(5) != zeta(7)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(zeta(5))


def test_immutable():
    x = zeta(5)
    with pytest.raises(AttributeError):
        x.conductor = 7


def test_ring_axioms_random():
    rng = random.Random(20240811)
    # 14, 18 and 22 are the fields of I2(7), I2(9) and I2(11)
    conductors = [1, 2, 3, 4, 5, 6, 8, 9, 12, 14, 18, 22, 60]
    for n in conductors * 5:
        a, b, c = (
            Cyclo(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(euler_phi(n))])
            for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        assert a + 0 == a
        assert a * 1 == a
        assert -(-a) == a


def test_inverse_and_division():
    rng = random.Random(7)
    for n in (1, 4, 5, 12, 14, 22, 60):
        for _ in range(10):
            a = Cyclo(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 5))
                          for _ in range(euler_phi(n))])
            if not a:
                continue
            assert a * a.inverse() == 1
            assert (a * a) / a == a
            assert math.prod([a.inverse()] * 3) * math.prod([a] * 3) == 1
        with pytest.raises(ZeroDivisionError):
            Cyclo(n, [0]).inverse()
        with pytest.raises(ZeroDivisionError):
            _ = (zeta(n) + 2) / rational(0, n)
    assert zeta(9).inverse() == zeta(9, 8)


def test_int_and_fraction_mixing():
    x = zeta(5)
    assert 2 * x + x == 3 * x
    assert Fraction(1, 2) * x * 2 == x
    assert (x + Fraction(1, 3)) - x == Fraction(1, 3)
    assert 1 - rational(Fraction(1, 4)) == Fraction(3, 4)


def test_floats_are_refused():
    # no floating point anywhere: the constructors refuse a float as the
    # arithmetic does, instead of storing its binary expansion
    for make in (lambda: Cyclo(5, [0.1]), lambda: Cyclo(5, [1, Fraction(1, 2), 0.5]),
                 lambda: rational(0.5), lambda: rational(0.5, 5),
                 lambda: zeta(5) * 0.5, lambda: zeta(5) + 0.5):
        with pytest.raises(TypeError):
            make()


def test_as_rational():
    assert rational(Fraction(-7, 3), 12).as_rational() == Fraction(-7, 3)
    assert zeta(5).as_rational() is None
    s = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert s.as_rational() == -1


def test_conjugate():
    # the oracle's complex conjugation, which the inner products of test_chars use
    assert conjugate(zeta(7)) == zeta(7, 6)
    assert conjugate(zeta(12, 5)) == zeta(12, 7)
    x = zeta(5) + 2
    assert conjugate(x * conjugate(x)) == x * conjugate(x)
    assert conjugate(rational(Fraction(5, 2))) == Fraction(5, 2)
    assert conjugate(Fraction(5, 2)) == Fraction(5, 2)
    # 2cos(2pi/5) is fixed by conjugation
    c = zeta(5) + zeta(5, 4)
    assert conjugate(c) == c
    rng = random.Random(99)
    for _ in range(10):
        a, b = (Cyclo(12, [Fraction(rng.randint(-2, 2)) for _ in range(4)]) for _ in range(2))
        assert conjugate(a * b) == conjugate(a) * conjugate(b)
        assert conjugate(a + b) == conjugate(a) + conjugate(b)


def test_cos_pi_over():
    assert cos_pi_over(2, 4).as_rational() == 0
    assert cos_pi_over(3, 6).as_rational() == Fraction(1, 2)
    c = cos_pi_over(4, 8)
    assert (2 * c * c).as_rational() == 1
    c = cos_pi_over(6, 12)
    assert (4 * c * c).as_rational() == 3
    # 2cos(pi/5) is the golden ratio
    g = 2 * cos_pi_over(5, 60)
    assert (g * g - g - 1).is_zero()
    with pytest.raises(ValueError):
        cos_pi_over(5, 12)


def test_json_roundtrip():
    values = [zeta(5), zeta(12, 7) * Fraction(2, 3) + 1, rational(Fraction(-3, 7))]
    for x in values:
        blob = x.to_json()
        assert set(blob) == {"conductor", "coeffs"}
        assert all(isinstance(p, list) and len(p) == 2 for p in blob["coeffs"])
        assert from_json(json.loads(json.dumps(blob))) == x
