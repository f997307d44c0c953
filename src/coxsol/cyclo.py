"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored as a polynomial in zeta_n = exp(2*pi*i/n) with Fraction
coefficients, reduced modulo the n-th cyclotomic polynomial, so the
coefficient tuple always has length phi(n) and two values with the same
conductor are equal iff their tuples are equal.  Values with different
conductors are compared by lifting both into Q(zeta_lcm); the conductor of
a value is never minimised automatically.

Products, the reduction mod Phi_n and inverses run on integers, with one
division at the end.  A list of Fractions is written as A/d, with A the
integer numerators over d, the lcm of the denominators.  A product convolves
A and B and keeps the denominator d_a*d_b, as (A/d_a)(B/d_b) = AB/(d_a*d_b);
the reduction rewrites the integer list with the integer rows of
_reduction_table and only then forms the phi(n) Fractions c/d; an inverse runs
extended Euclid over Z[x] (see Cyclo.inverse).  Sums and differences stay on
the stored Fractions.

>>> zeta(3, 1) + zeta(3, 2) + 1
Cyclo(3, 0)
>>> (zeta(5, 2) * zeta(5, 3)).as_rational()
Fraction(1, 1)
>>> zeta(6, 1) == -zeta(3, 2)
True
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            result *= (p - 1) * p ** (k - 1)
        p += 1
    if m > 1:
        result *= m - 1
    return result


# ---------------------------------------------------------------------------
# dense polynomial helpers (index = exponent) on integer numerators A over one
# common denominator d, standing for the Fraction list A/d; scaling a list by
# an integer or adding integer multiples of Phi_n's rows to it is exact, so
# the only Fractions are the phi(n) quotients c/d that _reduce returns

_ZERO = Fraction(0)  # Fractions are immutable, so every stored zero can be this one


def _ptrim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _integer_numerators(p):
    """(P, d) with p[i] = P[i] / d, d the lcm of the denominators of p."""
    d = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p], d


def _pmul(a, b):
    """(P, d) with P/d the product of two Fraction coefficient lists: P is the
    convolution of their integer numerators, of length len(a) + len(b) - 1,
    and d = d_a*d_b."""
    if not a or not b:
        return [], 1
    (A, da), (B, db) = _integer_numerators(a), _integer_numerators(b)
    out = [0] * (len(A) + len(B) - 1)
    for i, ai in enumerate(A):
        if ai:
            for j, bj in enumerate(B):
                out[i + j] += ai * bj
    return out, da * db


def _mobius(k: int) -> int:
    """The Mobius function: 0 if a square divides k, else (-1)^(number of primes)."""
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficient tuple of the n-th cyclotomic polynomial, low degree first.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n.  The
    factors with mu = 1 are multiplied in first, so dividing out the others
    is exact; each step is one pass over integer coefficients.
    """
    mu = {d: _mobius(n // d) for d in range(1, n + 1) if n % d == 0}
    poly = [1]
    for d in (d for d in mu if mu[d] == 1):
        poly = [(poly[k - d] if k >= d else 0) - (poly[k] if k < len(poly) else 0)
                for k in range(len(poly) + d)]
    for d in (d for d in mu if mu[d] == -1):
        quot = [0] * (len(poly) - d)
        for k in range(len(quot)):
            quot[k] = (quot[k - d] if k >= d else 0) - poly[k]
        poly = quot
    # x^n - 1 is the product of Phi_d over d | n, and the degrees add up to n
    if len(poly) - 1 != euler_phi(n):
        raise ArithmeticError(f"Phi_{n} does not have degree phi({n})")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple:
    """x^k mod Phi_n for phi(n) <= k < n, one row per k, as sparse (j, c)
    pairs with integer c: x^k = sum of c * x^j.

    Row k+1 is x times row k, with its x^phi(n) term rewritten as minus the
    lower terms of the monic Phi_n.  For even n, x^(n/2) = -1, so the rows
    n/2 <= k < n/2 + phi(n) are the single terms -x^(k - n/2).
    """
    phi = euler_phi(n)
    low = cyclotomic_polynomial(n)[:phi]
    row = [-c for c in low]
    rows = []
    for _ in range(phi, n):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [a - top * c for a, c in zip(row, low)]
    return tuple(rows)


def _reduce(P, d: int, n: int):
    """The value P/d mod Phi_n, for an integer list P and an integer d != 0, as
    a tuple of phi(n) Fractions.

    Exponents k >= n are first folded onto k mod n, as x^n = 1 mod Phi_n;
    then each x^k with phi(n) <= k < n is replaced by its integer table row.
    Both steps keep integers, so each coefficient is divided by d once.
    """
    phi = euler_phi(n)
    out = list(P[:n])
    for k in range(n, len(P)):
        if P[k]:
            out[k % n] += P[k]
    head = out[:phi]
    head += [0] * (phi - len(head))
    if len(out) > phi:  # a shorter list is only padded, and needs no table
        for v, row in zip(out[phi:], _reduction_table(n)):
            if v:
                for j, c in row:
                    head[j] += c * v
    return tuple(Fraction(c, d) if c else _ZERO for c in head)


# ---------------------------------------------------------------------------

def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


def _exact(x) -> Fraction:
    """x as a Fraction; only an int or a Fraction is a coefficient, never a float."""
    q = _as_fraction(x)
    if q is None:
        raise TypeError(f"a coefficient must be an int or a Fraction, not {type(x).__name__}")
    return q


class Cyclo:
    """An element of Q(zeta_n), immutable.

    conductor: the n of the ambient field.
    coeffs: tuple of Fraction of length phi(n), coeffs[j] multiplying zeta_n^j.
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # value equality crosses conductors, so no stable hash

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) > phi:
            coeffs = list(_reduce(*_integer_numerators(coeffs), conductor))
        else:
            coeffs = coeffs + [Fraction(0)] * (phi - len(coeffs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _from_reduced(cls, conductor: int, coeffs: tuple) -> "Cyclo":
        """A value from a tuple that is already phi(conductor) Fractions, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "conductor", conductor)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- conductor management ------------------------------------------------

    def lifted(self, n: int) -> "Cyclo":
        """The same value written in Q(zeta_n); n must be a multiple."""
        if n == self.conductor:
            return self
        if n % self.conductor:
            raise ValueError("can only lift to a multiple of the conductor")
        step = n // self.conductor
        A, d = _integer_numerators(self.coeffs)
        out = [0] * ((len(A) - 1) * step + 1)
        for j, c in enumerate(A):
            out[j * step] = c
        return Cyclo._from_reduced(n, _reduce(out, d, n))

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo"):
        """The conductor and coefficient tuples of a and b in a common field."""
        if a.conductor == b.conductor:
            return a.conductor, a.coeffs, b.coeffs
        n = math.lcm(a.conductor, b.conductor)
        return n, a.lifted(n).coeffs, b.lifted(n).coeffs

    # -- ring operations -----------------------------------------------------
    # Operands are reduced tuples of Fractions, so sums and differences are
    # too.  A product is convolved (_pmul) and reduced (_reduce) on integer
    # numerators, and _reduce hands back phi(n) Fractions, so _from_reduced
    # stores both as they are.

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            return other
        q = _as_fraction(other)
        if q is None:
            return None
        return Cyclo(self.conductor, [q])

    def __add__(self, other):
        if isinstance(other, Cyclo):
            n, a, b = Cyclo._common(self, other)
            return Cyclo._from_reduced(n, tuple(map(operator.add, a, b)))
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        c = self.coeffs
        return Cyclo._from_reduced(self.conductor, (c[0] + q,) + c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._from_reduced(self.conductor, tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other):
        if isinstance(other, Cyclo):
            n, a, b = Cyclo._common(self, other)
            return Cyclo._from_reduced(n, tuple(map(operator.sub, a, b)))
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        c = self.coeffs
        return Cyclo._from_reduced(self.conductor, (c[0] - q,) + c[1:])

    def __rsub__(self, other):
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        c = self.coeffs
        return Cyclo._from_reduced(self.conductor,
                                   (q - c[0],) + tuple(map(operator.neg, c[1:])))

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            n, a, b = Cyclo._common(self, other)
            return Cyclo._from_reduced(n, _reduce(*_pmul(a, b), n))
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        return Cyclo._from_reduced(self.conductor, tuple(c * q for c in self.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """1/self, by extended Euclid over Z[x] against Phi_n.

        Write self = A/d with A an integer list and d > 0.  The loop keeps two
        pairs (r0, s0) and (r1, s1) of integer lists with s*A = r mod Phi_n
        and r0 at least as long as r1, starting from (Phi_n, 0) and (A, 1).
        A step is one pseudo-division step: with u and v the leading
        coefficients of r0 and r1, h = gcd(u, v) and j the difference of
        their degrees, (r0, s0) becomes (v/h)*(r0, s0) - (u/h)*x^j*(r1, s1),
        and the pairs swap if r0 is now the shorter.
        - The invariant holds: the new pair is an integer combination of two
          pairs that satisfy it, and the relation is linear.  Dividing both
          lists by their common content g keeps it too, and keeps them
          integer lists, since g divides every coefficient: no step rounds.
        - The loop ends at a nonzero constant.  Each step cancels the leading
          term of r0, so the degree of r0 falls, and the loop ends.
          Over Q the step is invertible (v/h != 0), so gcd(r0, r1) stays
          gcd(Phi_n, A) up to a unit.  Phi_n is irreducible over Q and A is a
          nonzero list of degree < phi(n), so that gcd is 1.  The loop stops
          when r1 is a constant g.  It is nonzero: r1 becomes 0 only as the
          r0 of a step that left the other r, not a constant, as the gcd.
        Then s*A = g mod Phi_n, so 1/self = d*s/g, reduced by _reduce.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        A, d = _integer_numerators(self.coeffs)
        r0, s0 = list(cyclotomic_polynomial(self.conductor)), []
        r1, s1 = _ptrim(A), [1]
        while len(r1) > 1:
            u, v = r0[-1], r1[-1]
            h = math.gcd(u, v)
            u, v = u // h, v // h
            j = len(r0) - len(r1)
            r0 = [v * c for c in r0]
            for i, c in enumerate(r1):
                r0[i + j] -= u * c
            s0 = [v * c for c in s0] + [0] * max(0, len(s1) + j - len(s0))
            for i, c in enumerate(s1):
                s0[i + j] -= u * c
            g = math.gcd(*r0, *s0)
            if g > 1:
                r0, s0 = [c // g for c in r0], [c // g for c in s0]
            r0, s0 = _ptrim(r0), _ptrim(s0)
            if len(r0) < len(r1):
                r0, s0, r1, s1 = r1, s1, r0, s0
        if not r1:
            raise ZeroDivisionError("not invertible mod Phi_n")
        return Cyclo._from_reduced(self.conductor,
                                   _reduce([d * c for c in s1], r1[0], self.conductor))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    # -- predicates and views --------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            _, a, b = Cyclo._common(self, other)
            return a == b
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        return self.coeffs[0] == q and not any(self.coeffs[1:])

    def as_rational(self):
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{j}" if j > 1 else "")
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return f"Cyclo({self.conductor}, {' + '.join(terms) if terms else '0'})"


def zeta(n: int, k: int = 1) -> Cyclo:
    """The root of unity zeta_n^k as an element of Q(zeta_n)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    out = [Fraction(0)] * ((k % n) + 1)
    out[k % n] = Fraction(1)
    return Cyclo(n, out)


def rational(q, n: int = 1) -> Cyclo:
    """The rational number q, an int or a Fraction, as an element of Q(zeta_n)."""
    return Cyclo(n, [q])


def cos_pi_over(m: int, conductor: int) -> Cyclo:
    """cos(pi/m) = (zeta_2m + zeta_2m^-1)/2 inside Q(zeta_conductor)."""
    if conductor % (2 * m):
        raise ValueError("conductor must be a multiple of 2m")
    z = zeta(2 * m, 1) + zeta(2 * m, 2 * m - 1)
    return z.lifted(conductor) * Fraction(1, 2)


def scalar_json(a) -> dict:
    if not isinstance(a, Cyclo):
        a = rational(a)
    return a.to_json()
