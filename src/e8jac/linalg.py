"""Exact linear algebra over the rationals: RREF, rank, nullspace.

Elimination is fraction-free: each row is scaled once to primitive
integers and rows are combined on Python ints, so no Fraction is built
until the pivot rows of rref are divided back to Fraction at the end. A
matrix has exactly one reduced row echelon form, so results do not depend
on the pivot rule.

rank eliminates forward only, by Bareiss's fraction-free rule (Math. Comp.
1968): each update is divided exactly by the previous pivot, so entries
stay minors of the input and there is no back-substitution and no gcd.
The pivot count of rref is its test oracle.
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


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    rows: list of equal-length lists of rationals (int or Fraction). Input is
    not mutated. new_rows holds Fractions and has as many rows as the input;
    the rows below the rank are zero.
    """
    m = [_primitive(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        live = [i for i in range(r, len(m)) if m[i][c]]
        if not live:
            continue
        best = min(live, key=lambda i: abs(m[i][c]))
        m[r], m[best] = m[best], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = [[Fraction(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)]
    out += [[Fraction(0)] * ncols for _ in range(len(m) - r)]
    return out, pivots


def rank(rows) -> int:
    """The rank of a rational matrix, by forward fraction-free elimination.

    After k pivots every entry left is a (k+1)-minor of the primitive rows
    (Sylvester's identity), so the division by the previous pivot is exact. Rows that
    become zero are dropped, and so is every column up to the pivot's.
    """
    m = [r for r in map(_primitive, rows) if any(r)]
    rk, prev = 0, 1
    while m:
        c = next(j for j, col in enumerate(zip(*m)) if any(col))
        prow = min((r for r in m if r[c]), key=lambda r: abs(r[c]))
        p, tail = prow[c], prow[c + 1:]
        m = [
            row for row in (
                [(p * a - r[c] * b) // prev for a, b in zip(r[c + 1:], tail)]
                for r in m if r is not prow
            ) if any(row)
        ]
        rk, prev = rk + 1, p
    return rk


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
