"""Truncated q-expansions of W(E8)-invariant Jacobi forms.

A JacobiQExpansion holds the coefficients of q^0..q^order, each an
InvariantElement (a finite sum of Weyl orbit sums). The operators here —
products, modular-form scaling, exact division, the heat operator, the
index-raising operator, z-rescaling — are the complete toolkit used by the
catalog constructions.

Orders are tracked pessimistically: every operator states exactly how many
input terms it consumes, and the index-raising operator refuses to run
rather than silently return fewer correct terms than requested.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .e8 import (
    HIGHEST_ROOT,
    ZERO,
    DominantWeight,
    E8Vector,
    _batch_reduce,
    coset_min_norm,
    dominant_reduce,
    orbit_array,
    shell,
)
from .invring import InvariantElement, lincomb
from .qseries import ModularQSeries, eisenstein

__all__ = [
    "JacobiQExpansion",
    "theta_e8",
    "jf_lincomb",
    "jf_mul",
    "jf_scale",
    "jf_div_modular",
    "heat",
    "hecke_t_minus",
    "rescale_z",
    "classify",
    "ClassifyResult",
    "weight0_identity",
    "check_quasi_periodicity",
]


class JacobiQExpansion:
    """A form of even weight k and index t, known through q^order.

    Invariants enforced on construction:
      * the weight is even (z -> -z lies in the Weyl group);
      * an index-0 form is a modular form: all terms supported on {0};
      * for index >= 1, every stored (n, l) satisfies the support bound
        2nt - (l,l) >= -coset_min_norm(l, t).
    """

    __slots__ = ("weight", "index", "terms")

    def __init__(self, weight: int, index: int, terms: list[InvariantElement]):
        if weight % 2:
            raise ValueError(f"weight must be even, got {weight}")
        if index < 0:
            raise ValueError("index must be non-negative")
        if not terms:
            raise ValueError("need at least the q^0 term")
        self.weight = int(weight)
        self.index = int(index)
        self.terms = list(terms)
        for n, elem in enumerate(self.terms):
            for m in elem.terms:
                if self.index == 0:
                    if m != ZERO:
                        raise ValueError(
                            f"index-0 form with non-trivial orbit at q^{n}"
                        )
                else:
                    slack = 2 * n * self.index - m.norm()
                    if slack < -coset_min_norm(m, self.index):
                        raise ValueError(
                            f"support bound violated at q^{n}, fw={m.fw}: "
                            f"2nt - (l,l) = {slack} below coset minimum"
                        )

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def term(self, n: int) -> InvariantElement:
        if not 0 <= n <= self.order:
            raise IndexError(f"q^{n} not stored (order {self.order})")
        return self.terms[n]

    def coefficient(self, n: int, l: E8Vector) -> Fraction:
        """f(n, l): the coefficient at q^n ζ^l, looked up via orbit reduction."""
        return self.term(n).coeff(dominant_reduce(l))

    def truncate(self, order: int) -> "JacobiQExpansion":
        if order > self.order:
            raise ValueError(f"cannot extend truncation {self.order} to {order}")
        return JacobiQExpansion(self.weight, self.index, self.terms[: order + 1])

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.terms)

    def __add__(self, other: "JacobiQExpansion") -> "JacobiQExpansion":
        return jf_lincomb([(1, self), (1, other)])

    def __sub__(self, other: "JacobiQExpansion") -> "JacobiQExpansion":
        return jf_lincomb([(1, self), (-1, other)])

    def __neg__(self) -> "JacobiQExpansion":
        return jf_lincomb([(-1, self)])

    def scale(self, c) -> "JacobiQExpansion":
        return jf_lincomb([(c, self)])

    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, JacobiQExpansion):
            return jf_mul(self, other)
        if isinstance(other, ModularQSeries):
            return jf_scale(self, other)
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JacobiQExpansion)
            and (self.weight, self.index) == (other.weight, other.index)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return (
            f"<JacobiQExpansion weight={self.weight} index={self.index} "
            f"order={self.order}>"
        )

    def value_z0(self) -> ModularQSeries:
        """Restriction to z = 0: a plain q-series of the same weight."""
        return ModularQSeries(self.weight, [t.eval_zero() for t in self.terms])

    def display_lines(self) -> list[str]:
        return [f"q^{n}: {t.display_str()}" for n, t in enumerate(self.terms)]

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "index": self.index,
            "order": self.order,
            "terms": [t.to_json() for t in self.terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JacobiQExpansion":
        form = cls(
            obj["weight"],
            obj["index"],
            [InvariantElement.from_json(t) for t in obj["terms"]],
        )
        if form.order != obj["order"]:
            raise ValueError("order field inconsistent with terms")
        return form

    @classmethod
    def zero(cls, weight: int, index: int, order: int) -> "JacobiQExpansion":
        return cls(weight, index, [InvariantElement.zero() for _ in range(order + 1)])

    @classmethod
    def one(cls, order: int) -> "JacobiQExpansion":
        """The constant 1 as a weight-0 index-0 form."""
        terms = [InvariantElement.constant(1)] + [
            InvariantElement.zero() for _ in range(order)
        ]
        return cls(0, 0, terms)


def theta_e8(order: int) -> JacobiQExpansion:
    """Theta series of the lattice: weight 4, index 1; the q^n term is the
    characteristic sum of the norm-2n shell."""
    terms = []
    for n in range(order + 1):
        terms.append(
            InvariantElement({m: Fraction(1) for m, _size in shell(2 * n)})
        )
    return JacobiQExpansion(4, 1, terms)


def jf_lincomb(parts) -> JacobiQExpansion:
    """The sum of c·form over the (c, form) parts, which share one weight and
    index, truncated to their smallest order and validated once."""
    (c0, first), *rest = parts = list(parts)
    if not rest and c0 == 1:
        return first
    kinds = {(f.weight, f.index) for _, f in parts}
    if len(kinds) > 1:
        raise ValueError(f"weight/index mismatch: {sorted(kinds)}")
    order = min(f.order for _, f in parts)
    terms = [lincomb((c, f.terms[n]) for c, f in parts) for n in range(order + 1)]
    return JacobiQExpansion(first.weight, first.index, terms)


def jf_mul(a: JacobiQExpansion, b: JacobiQExpansion) -> JacobiQExpansion:
    """Product: weights and indices add; order is the smaller of the two."""
    terms = [
        lincomb(
            (1, a.terms[i] * b.terms[k - i])
            for i in range(k + 1)
            if a.terms[i].terms and b.terms[k - i].terms
        )
        for k in range(min(a.order, b.order) + 1)
    ]
    return JacobiQExpansion(a.weight + b.weight, a.index + b.index, terms)


def jf_scale(a: JacobiQExpansion, f: ModularQSeries) -> JacobiQExpansion:
    """Multiply by a modular q-series: index unchanged, weight adds."""
    terms = [
        lincomb((f[i], a.terms[k - i]) for i in range(k + 1))
        for k in range(min(a.order, f.order) + 1)
    ]
    return JacobiQExpansion(a.weight + f.weight, a.index, terms)


def jf_div_modular(a: JacobiQExpansion, f: ModularQSeries) -> JacobiQExpansion:
    """Exact division by a modular q-series.

    If f = c·q^v + ..., the first v terms of a must vanish identically;
    otherwise the quotient would have a pole and the recipe upstream has a
    wrong normalization constant — that is reported, not papered over.
    """
    v = f.valuation()
    if v is None:
        raise ZeroDivisionError("division by the zero series")
    for n in range(min(v, a.order + 1)):
        if not a.terms[n].is_zero():
            raise ValueError(
                f"not divisible: q^{n} term survives division "
                f"(valuation of divisor is {v})"
            )
    n_top = min(a.order, f.order) - v
    if n_top < 0:
        raise ValueError(f"need at least {v + 1} terms to divide by valuation {v}")
    inv = 1 / Fraction(f[v])
    out: list[InvariantElement] = []
    for n in range(n_top + 1):
        out.append(lincomb(
            [(inv, a.terms[n + v])]
            + [(-inv * f[v + j], out[n - j]) for j in range(1, n + 1)]
        ))
    return JacobiQExpansion(a.weight - f.weight, a.index, out)


def heat(a: JacobiQExpansion) -> JacobiQExpansion:
    """The weight-raising heat operator: weight k -> k+2, index unchanged.

    Acts orbit-diagonally: the pure heat part multiplies the coefficient at
    (n, l) by n - (l,l)/(2t) — well-defined per orbit since it depends on l
    only through its norm — and the quasi-modular correction adds
    ((4-k)/12)·E2 times the form.
    """
    t = a.index
    if t == 0:
        raise ValueError("heat operator needs index >= 1")
    k = a.weight
    e2 = eisenstein(2, a.order) * Fraction(4 - k, 12)
    terms = [
        lincomb(
            [(1, InvariantElement(
                {m: c * (n - Fraction(m.norm(), 2 * t)) for m, c in x.terms.items()}
            ))]
            + [(e2[i], a.terms[n - i]) for i in range(n + 1)]
        )
        for n, x in enumerate(a.terms)
    ]
    return JacobiQExpansion(k + 2, t, terms)


def hecke_t_minus(
    a: JacobiQExpansion, s: int, order: int | None = None
) -> JacobiQExpansion:
    """Index-raising operator: index t -> t·s, weight unchanged.

    Output coefficient g(n, l) = sum over d dividing (n, s) with l/d in the
    lattice of d^(k-1)·f(n·s/d², l/d). Orbit-level this reads: the input
    orbit term (m, c) at q^(n·s/d²) feeds c·d^(k-1) into orbit d·m at q^n.

    The output order is floor(a.order / s); requesting more via `order`
    raises with the exact input order needed.
    """
    if s < 1:
        raise ValueError("index-raising parameter must be >= 1")
    out_order = a.order // s
    if order is not None:
        if a.order < s * order:
            raise ValueError(
                f"input order {a.order} insufficient: order-{order} output "
                f"of the index-raising operator at s={s} needs input order {s * order}"
            )
        out_order = order
    k = a.weight
    terms = [
        lincomb(
            (Fraction(d) ** (k - 1), a.terms[n * s // (d * d)].dilate(d))
            for d in range(1, s + 1)
            if not (s % d or n % d)  # d divides gcd(n, s); gcd(0, s) = s
        )
        for n in range(out_order + 1)
    ]
    return JacobiQExpansion(k, a.index * s, terms)


def rescale_z(a: JacobiQExpansion, c: int) -> JacobiQExpansion:
    """Substitute z -> c·z: index multiplies by c², orbits dilate, orb(m) -> orb(c·m)."""
    if c < 1:
        raise ValueError("rescaling factor must be a positive integer")
    return JacobiQExpansion(a.weight, a.index * c * c, [t.dilate(c) for t in a.terms])


class ClassifyResult:
    __slots__ = ("kind", "order", "witness")

    def __init__(self, kind: str, order: int, witness):
        self.kind = kind
        self.order = order
        self.witness = witness

    def __repr__(self) -> str:
        tail = f", witness={self.witness}" if self.witness else ""
        return f"<{self.kind} to order {self.order}{tail}>"


def classify(a: JacobiQExpansion) -> ClassifyResult:
    """Weak / holomorphic / cusp classification of the stored coefficients.

    Scans 2nt - (l,l) over every stored coefficient (support ordered by
    norm): any negative value means weak, with the first offender as
    witness; all positive means cusp. The verdict never extrapolates past
    the truncation order.
    """
    if a.index == 0:
        raise ValueError("classification needs index >= 1")
    t = a.index
    witness = None
    min_slack = None
    for n in range(a.order + 1):
        for m in sorted(a.terms[n].terms, key=lambda m: (m.norm(), m.d)):
            slack = 2 * n * t - m.norm()
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack < 0 and witness is None:
                witness = (n, m)
    if min_slack is None:
        return ClassifyResult("cusp", a.order, None)  # the zero form
    if min_slack < 0:
        return ClassifyResult("weak", a.order, witness)
    if min_slack == 0:
        return ClassifyResult("holomorphic", a.order, None)
    return ClassifyResult("cusp", a.order, None)


def weight0_identity(a: JacobiQExpansion) -> bool:
    """The weight-0 balance identity on the q^0-term:
    2t·Σ f(0,l) = 3·Σ f(0,l)·(l,l), both sides summed over all lattice l."""
    if a.weight != 0:
        raise ValueError("identity applies to weight-0 forms only")
    x = a.terms[0]
    return 2 * a.index * x.eval_zero() == 3 * x.norm_moment()


def check_quasi_periodicity(
    a: JacobiQExpansion, samples: int = 100, seed: int = 0
) -> int:
    """Verify f(n, l) = f(n', l + t·v) with n' = n + (l,v) + t(v,v)/2 for
    shifts v = w·r over the 240 roots r and w = 1, 2.

    For g in W, f(n, g·l) = f(n, l) and (g·l, g·v) = (l, v), and the shift
    family is W-stable, so every check is one at l = m, a stored dominant
    representative. A triple (n, m, v) is checkable when n' <= order; all
    of them come out of one matrix over the stored (n, m), sorted by n and
    doubled row, and the 480 shifts. The checks are the first
    min(samples, K) of rng.permutation(K) over the K checkable triples: a
    random order of them, which depends only on the form's values and the
    seed. So the check is exhaustive when samples >= K, and costs no more
    for a larger `samples` (further checks would repeat ones made). The
    images m + t·v are dominant-reduced in one batch. Returns the number of
    checks made, min(samples, K); raises AssertionError on a mismatch,
    RuntimeError when no triple is checkable and ValueError when samples is
    negative.
    """
    t = a.index
    if t == 0:
        raise ValueError("quasi-periodicity concerns index >= 1")
    if samples < 0:
        raise ValueError("samples must be non-negative")
    pool = sorted(
        (n, m.d) for n in range(a.order + 1) for m in a.terms[n].terms
    )
    if not pool:
        return 0
    coeffs = [{m.d: c for m, c in term.terms.items()} for term in a.terms]
    ns = np.array([n for n, _ in pool], dtype=np.int64)
    rows = np.array([d for _, d in pool], dtype=np.int64)
    roots = orbit_array(DominantWeight(HIGHEST_ROOT))
    shifts = np.concatenate([roots, 2 * roots])
    ww = np.repeat(np.array([1, 4], dtype=np.int64), len(roots))  # (v,v)/2
    n2_all = ns[:, None] + (rows @ shifts.T) // 4 + t * ww
    if (n2_all < 0).any():
        raise AssertionError("support bound forbids negative image rows")
    src, shift = np.nonzero(n2_all <= a.order)
    if not len(src):
        raise RuntimeError("no checkable triple at this truncation")
    pick = np.random.default_rng(seed).permutation(len(src))[:samples]
    src, shift = src[pick], shift[pick]
    images = _batch_reduce(rows[src] + t * shifts[shift])
    for i, n2, img in zip(src.tolist(), n2_all[src, shift].tolist(), images.tolist()):
        n, d = pool[i]
        lhs = coeffs[n][d]
        rhs = coeffs[n2].get(tuple(img), 0)
        if lhs != rhs:
            raise AssertionError(
                f"quasi-periodicity broken: f({n},{d}) = {lhs} but "
                f"f({n2},{tuple(img)}) = {rhs}"
            )
    return len(pick)
