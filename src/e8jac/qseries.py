"""Exact truncated q-series for level-1 modular forms.

Everything is a dense list of ``fractions.Fraction`` — no floats anywhere.
Truncation order propagates pessimistically: a binary operation never
claims more coefficients than both inputs can certify.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, isqrt

__all__ = [
    "ModularQSeries",
    "bernoulli",
    "sigma_pow",
    "eisenstein",
    "delta",
    "series_mul",
    "series_div",
    "dim_modular",
    "format_rational",
    "parse_rational",
]


def format_rational(x: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


@cache
def bernoulli(m: int) -> Fraction:
    """m-th Bernoulli number, B_1 = -1/2 convention (only even m are used here)."""
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if m == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0  for m >= 1
    return Fraction(-sum(comb(m + 1, j) * bernoulli(j) for j in range(m)), m + 1)


def sigma_pow(n: int, k: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over d | n, for n >= 1."""
    if n < 1:
        raise ValueError("sigma_pow needs n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


class ModularQSeries:
    """A weight-tagged truncated q-expansion with exact rational coefficients.

    coeffs[n] is the q^n coefficient; the series is reliable through
    q^order with order = len(coeffs) - 1.
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs):
        if weight % 2 != 0:
            raise ValueError("only even weights occur at level 1")
        self.weight = weight
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("need at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} beyond stored order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "ModularQSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation {self.order} to {order}")
        return ModularQSeries(self.weight, self.coeffs[: order + 1])

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModularQSeries):
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __neg__(self) -> "ModularQSeries":
        return ModularQSeries(self.weight, [-c for c in self.coeffs])

    def __add__(self, other: "ModularQSeries") -> "ModularQSeries":
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")
        n = min(self.order, other.order)
        return ModularQSeries(
            self.weight, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "ModularQSeries") -> "ModularQSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ModularQSeries):
            return series_mul(self, other)
        return ModularQSeries(self.weight, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "ModularQSeries":
        if e < 0:
            raise ValueError("negative powers not supported; use series_div")
        out = ModularQSeries(0, [Fraction(1)] + [Fraction(0)] * self.order)
        for _ in range(e):
            out = series_mul(out, self)
        return out

    def __repr__(self) -> str:
        head = ", ".join(format_rational(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"ModularQSeries(weight={self.weight}, [{head}{tail}] to q^{self.order})"

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "order": self.order,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModularQSeries":
        s = cls(obj["weight"], [parse_rational(c) for c in obj["coeffs"]])
        if s.order != obj["order"]:
            raise ValueError("order field inconsistent with coefficient list")
        return s


def series_mul(a: ModularQSeries, b: ModularQSeries) -> ModularQSeries:
    """Cauchy product truncated to min(order); weights add."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return ModularQSeries(a.weight + b.weight, out)


def series_div(a: ModularQSeries, b: ModularQSeries) -> ModularQSeries:
    """Exact quotient a/b, truncated to a.order - valuation(b).

    Requires a's q-valuation to be at least b's; anything else would be a
    pole, which the caller must never get silently.
    """
    vb = b.valuation()
    if vb is None:
        raise ZeroDivisionError("division by the zero series")
    weight = a.weight - b.weight
    out_order = a.order - vb
    if out_order < 0:
        raise ValueError("dividend truncated below divisor valuation")
    for n in range(min(vb, a.order + 1)):
        if a.coeffs[n]:
            raise ValueError(
                f"not divisible: would produce a pole (q^{n} term survives division)"
            )
    lead = b.coeffs[vb]
    quot = [Fraction(0)] * (out_order + 1)
    for n in range(out_order + 1):
        acc = a.coeffs[n + vb]
        for j in range(1, n + 1):
            if vb + j <= b.order:
                acc -= b.coeffs[vb + j] * quot[n - j]
        quot[n] = acc / lead
    return ModularQSeries(weight, quot)


def eisenstein(k: int, order: int) -> ModularQSeries:
    """Weight-k Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    k = 2 is allowed (quasi-modular); it is only ever consumed by the
    heat operator's correction term.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("Eisenstein weight must be even and >= 2")
    factor = Fraction(2 * k) / bernoulli(k)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(-factor * sigma_pow(n, k - 1))
    return ModularQSeries(k, coeffs)


def delta(order: int) -> ModularQSeries:
    """The cusp form q - 24q^2 + 252q^3 - ... as (E4^3 - E6^2)/1728."""
    # eisenstein returns an order-0 series for a negative order
    if order < 0:
        raise ValueError("order must be non-negative")
    return (eisenstein(4, order) ** 3 - eisenstein(6, order) ** 2) * Fraction(1, 1728)


def dim_modular(k: int) -> int:
    """dim M_k(SL2(Z)) by the classical formula."""
    if k < 0 or k % 2 != 0:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1
