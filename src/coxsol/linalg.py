"""Exact dense linear algebra over Q and over cyclotomic fields.

All routines are generic over the scalar type: anything supporting
+, -, *, / and truthiness works, so Fraction and Cyclo mix freely as long
as each matrix is homogeneous.  Everything is plain Gaussian elimination;
the matrices in this project are small (at most |W| = a few hundred rows).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclo


def zero_of(x):
    return Cyclo(x.conductor, []) if isinstance(x, Cyclo) else Fraction(0)


def one_of(x):
    return Cyclo(x.conductor, [1]) if isinstance(x, Cyclo) else Fraction(1)


def vec_key(vec):
    """A hashable canonical key for a vector of Fraction or Cyclo entries."""
    out = []
    for x in vec:
        out.append(x.coeffs if isinstance(x, Cyclo) else Fraction(x))
    return tuple(out)


def rref(rows):
    """Reduced row echelon form.

    Returns (rows, pivots) where rows is the list of nonzero rows with
    leading entry 1 and pivots the list of their pivot column indices.
    """
    rows = [list(r) for r in rows]
    out, pivots = [], []
    for row in rows:
        # reduce against existing echelon rows
        for erow, p in zip(out, pivots):
            c = row[p]
            if c:
                for j in range(len(row)):
                    if erow[j]:
                        row[j] = row[j] - c * erow[j]
        # find pivot
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        inv = one_of(row[p]) / row[p]
        row = [x * inv for x in row]
        # back substitute into earlier rows
        for erow in out:
            c = erow[p]
            if c:
                for j in range(len(row)):
                    if row[j]:
                        erow[j] = erow[j] - c * row[j]
        out.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [tuple(out[i]) for i in order], [pivots[i] for i in order]


def coords_in_rowspace(basis, pivots, vec):
    """Coordinates of vec in an rref basis, or None if vec is outside the span."""
    coeffs = [vec[p] for p in pivots]
    residual = list(vec)
    for c, row in zip(coeffs, basis):
        if c:
            for j in range(len(residual)):
                if row[j]:
                    residual[j] = residual[j] - c * row[j]
    if any(residual):
        return None
    return coeffs


def det(rows):
    """Determinant of a square matrix; the empty matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    one = one_of(next((x for r in m for x in r if x), Fraction(1)))
    result = one
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return zero_of(one)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result = result * m[col][col]
        inv = one_of(m[col][col]) / m[col][col]
        for i in range(col + 1, n):
            c = m[i][col] * inv
            if c:
                for j in range(col, n):
                    m[i][j] = m[i][j] - c * m[col][j]
    return result


def coords_in_span(rows, vec):
    """Coefficients writing vec as a combination of the given independent rows.

    Unlike coords_in_rowspace this does not require an echelon basis; the
    answer is expressed against the rows exactly as supplied.  Returns None
    when vec lies outside their span.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return [] if not any(vec) else None
    k, n = len(rows), len(rows[0])
    aug = [tuple(rows[i][j] for i in range(k)) + (vec[j],) for j in range(n)]
    basis, pivots = rref(aug)
    if k in pivots:
        return None
    coords = [zero_of(vec[0]) for _ in range(k)]
    for row, p in zip(basis, pivots):
        coords[p] = row[k]
    if len(pivots) < k:
        # rank deficient rows: confirm the candidate actually reproduces vec
        for j in range(n):
            acc = vec[j]
            for i in range(k):
                acc = acc - coords[i] * rows[i][j]
            if acc:
                return None
    return coords
