"""Exact linear algebra over the rationals: RREF, rank, nullspace.

Elimination is fraction-free and there is one loop for it: each row is
scaled once to primitive integers, rows are combined on Python ints and
each combination is divided by its gcd, so no Fraction is built until the
pivot rows of rref are divided back to Fraction at the end. rref clears
every other row in a pivot's column; rank runs the same loop but clears
only the rows below the pivot and counts the pivots. A matrix has exactly
one reduced row echelon form, so results do not depend on the pivot rule.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rref", "rank", "nullspace", "integerize"]


def _primitive(row) -> list[int]:
    """The coprime integer row that is a positive multiple of a rational row."""
    row = [x if isinstance(x, int) else Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _eliminate(rows, full: bool):
    """Fraction-free elimination of the primitive rows. Returns (m, pivots).

    m holds primitive integer rows, the pivot rows first and in pivot order,
    then the rows that became zero. The pivot of a column is its entry of
    least absolute value among the rows not yet used. With full, the pivot
    clears every other row in its column (Gauss-Jordan); without, only the
    rows below it (forward elimination, enough for the pivot count).
    """
    m = [_primitive(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r >= len(m):
            break
        live = [i for i in range(r, len(m)) if m[i][c]]
        if not live:
            continue
        best = min(live, key=lambda i: abs(m[i][c]))
        m[r], m[best] = m[best], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if full else r + 1, len(m)):
            f = m[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return m, pivots


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    rows: list of equal-length lists of rationals (int or Fraction). Input is
    not mutated. new_rows holds Fractions and has as many rows as the input;
    the rows below the rank are zero.
    """
    m, pivots = _eliminate(rows, full=True)
    out = [[Fraction(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)]
    out += [[Fraction(0)] * len(row) for row in m[len(pivots):]]
    return out, pivots


def rank(rows) -> int:
    """The rank of a rational matrix: the pivot count of forward elimination."""
    return len(_eliminate(rows, full=False)[1])


def nullspace(rows, ncols: int):
    """Basis of {x : rows @ x = 0} as primitive integer-scaled vectors.

    One basis vector per free column, in increasing column order; the
    free coordinate is set to 1 before integer scaling.
    """
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(integerize(v))
    return basis


def integerize(vec):
    """Scale a rational vector to coprime integers, first nonzero entry positive."""
    ints = _primitive(vec)
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints
