"""W(E8)-invariant finite Fourier sums.

An InvariantElement is a rational linear combination of plain orbit sums
orb(m) = sum of e^(a,z) over the Weyl orbit of a dominant weight m. These
are the q-power coefficients of the Jacobi forms in this package.

Internally everything multiplies plain orbit sums; the 240-normalized
Σ-labels used in printed expansions are a display layer on top
(coefficient of orb(m) renders as c·|orb(m)|/240 on the label for m).
"""
from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .e8 import (
    _A2,
    ZERO,
    CertificationError,
    DominantWeight,
    E8Vector,
    _batch_reduce,
    _pack,
    _parabolic_order,
    _stabilizer_mask,
    _sum_by_key,
    _unpack,
    orbit_array,
    orbit_size,
)
from .qseries import format_rational, parse_rational

__all__ = [
    "InvariantElement",
    "SIGMA_LABELS",
    "sigma_label",
    "label_weight",
    "from_display",
    "lincomb",
]


# The closed label dictionary for orbit sums of norm <= 36: subscript -> fw
# coordinates of the dominant representative. Primes separate the distinct
# orbits sharing one norm.
_SIGMA_FW: dict[str, tuple[int, ...]] = {
    "2": (0, 0, 0, 0, 0, 0, 0, 1),
    "4": (1, 0, 0, 0, 0, 0, 0, 0),
    "6": (0, 0, 0, 0, 0, 0, 1, 0),
    "8'": (0, 1, 0, 0, 0, 0, 0, 0),
    "8''": (0, 0, 0, 0, 0, 0, 0, 2),
    "10": (1, 0, 0, 0, 0, 0, 0, 1),
    "12": (0, 0, 0, 0, 0, 1, 0, 0),
    "14'": (0, 0, 1, 0, 0, 0, 0, 0),
    "14''": (0, 0, 0, 0, 0, 0, 1, 1),
    "16'": (2, 0, 0, 0, 0, 0, 0, 0),
    "16''": (0, 1, 0, 0, 0, 0, 0, 1),
    "18'": (1, 0, 0, 0, 0, 0, 1, 0),
    "18''": (0, 0, 0, 0, 0, 0, 0, 3),
    "20'": (0, 0, 0, 0, 1, 0, 0, 0),
    "20''": (1, 0, 0, 0, 0, 0, 0, 2),
    "22'": (1, 1, 0, 0, 0, 0, 0, 0),
    "22''": (0, 0, 0, 0, 0, 1, 0, 1),
    "24'": (0, 0, 0, 0, 0, 0, 2, 0),
    "24''": (0, 0, 1, 0, 0, 0, 0, 1),
    "26'": (2, 0, 0, 0, 0, 0, 0, 1),
    "26''": (0, 1, 0, 0, 0, 0, 1, 0),
    "28'": (1, 0, 0, 0, 0, 1, 0, 0),
    "30'": (0, 0, 0, 1, 0, 0, 0, 0),
    "32'": (1, 0, 1, 0, 0, 0, 0, 0),
    "32''": (0, 2, 0, 0, 0, 0, 0, 0),
    "36'": (3, 0, 0, 0, 0, 0, 0, 0),
}


def _label_str(sub: str) -> str:
    return f"Σ_{{{sub}}}" if len(sub) > 1 else f"Σ_{sub}"


_DICT_WEIGHTS: dict[str, DominantWeight] = {
    _label_str(sub): DominantWeight.from_fw(fw) for sub, fw in _SIGMA_FW.items()
}
_DICT_BY_D: dict[tuple, str] = {m.d: lab for lab, m in _DICT_WEIGHTS.items()}

#: Labels in ascending-norm order (the dictionary's own order).
SIGMA_LABELS: tuple[str, ...] = tuple(_label_str(s) for s in _SIGMA_FW)


def sigma_label(m: DominantWeight) -> str:
    """Display label for an orbit: dictionary Σ-name, else explicit fw coords."""
    lab = _DICT_BY_D.get(m.d)
    if lab is not None:
        return lab
    return "orb(" + ",".join(str(x) for x in m.fw) + ")"


def label_weight(label: str) -> DominantWeight:
    """Inverse of sigma_label on the dictionary (and on orb(...) fallbacks)."""
    m = _DICT_WEIGHTS.get(label)
    if m is not None:
        return m
    if label.startswith("orb(") and label.endswith(")"):
        return DominantWeight.from_fw(int(x) for x in label[4:-1].split(","))
    raise KeyError(f"unknown orbit label {label!r}")


class InvariantElement:
    """Sparse map DominantWeight -> Fraction; zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[DominantWeight, Fraction] | None = None):
        self.terms: dict[DominantWeight, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls) -> "InvariantElement":
        return cls()

    @classmethod
    def constant(cls, c) -> "InvariantElement":
        return cls({DominantWeight(ZERO): Fraction(c)})

    @classmethod
    def orbit_sum(cls, m: DominantWeight, c=1) -> "InvariantElement":
        return cls({m: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[DominantWeight]:
        return sorted(self.terms)

    def coeff(self, m: DominantWeight) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def __add__(self, other: "InvariantElement") -> "InvariantElement":
        return lincomb(((1, self), (1, other)))

    def __sub__(self, other: "InvariantElement") -> "InvariantElement":
        return lincomb(((1, self), (-1, other)))

    def __neg__(self) -> "InvariantElement":
        return lincomb(((-1, self),))

    def scale(self, c) -> "InvariantElement":
        return lincomb(((c, self),))

    def dilate(self, c: int) -> "InvariantElement":
        """The substitution z -> c·z: orb(m) -> orb(c·m) for a positive integer c."""
        rows = c * np.array([m.d for m in self.terms], dtype=np.int64)
        out = InvariantElement()
        out.terms = dict(zip(DominantWeight._from_rows(rows), self.terms.values()))
        return out

    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, InvariantElement):
            return inv_mul(self, other)
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, InvariantElement) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"<InvariantElement {self.display_str()}>"

    # -- evaluation and checks ------------------------------------------------

    def eval_zero(self) -> Fraction:
        """Value at z = 0: every exponential becomes 1, so sum c(m)·|orb(m)|."""
        return sum(
            (c * orbit_size(m) for m, c in self.terms.items()), Fraction(0)
        )

    def norm_moment(self) -> Fraction:
        """Sum over all orbit elements of coefficient times (l,l)."""
        return sum(
            (c * orbit_size(m) * m.norm() for m, c in self.terms.items()),
            Fraction(0),
        )

    def t_support_check(self, t: int) -> tuple[bool, list[DominantWeight]]:
        """True iff every support point m has (m, highest root) <= t."""
        bad = [m for m in self.support() if m.t_statistic() > t]
        return (not bad, bad)

    # -- display --------------------------------------------------------------

    def to_display(self) -> list[tuple[str | None, Fraction]]:
        """(label, coefficient) pairs in canonical order.

        Coefficient of orb(m) converts to c·|orb(m)|/240 on the Σ-label;
        the constant (m = 0) keeps its plain value and sorts last. Non-zero
        norms come in ascending order, ties broken by label.
        """
        labelled = []
        const = None
        for m in self.terms:
            if m == ZERO:
                const = (None, self.terms[m])
            else:
                disp = self.terms[m] * Fraction(orbit_size(m), 240)
                labelled.append((m.norm(), sigma_label(m), disp))
        labelled.sort(key=lambda x: (x[0], x[1]))
        out: list[tuple[str | None, Fraction]] = [
            (lab, c) for _, lab, c in labelled
        ]
        if const is not None:
            out.append(const)
        return out

    def display_map(self) -> dict[str | None, Fraction]:
        return dict(self.to_display())

    def display_str(self) -> str:
        parts = self.to_display()
        if not parts:
            return "0"
        pieces = []
        for i, (label, c) in enumerate(parts):
            neg = c < 0
            mag = -c if neg else c
            if label is None:
                body = format_rational(mag)
            elif mag == 1:
                body = label
            elif mag.denominator == 1:
                body = f"{mag.numerator}{label}"
            else:
                body = f"({mag.numerator}/{mag.denominator}){label}"
            if i == 0:
                pieces.append(("−" if neg else "") + body)
            else:
                pieces.append((" − " if neg else " + ") + body)
        return "".join(pieces)

    # -- pullback -------------------------------------------------------------

    def pullback(self, v: E8Vector) -> dict[int, Fraction]:
        """Restrict to the line through v: sum of c·ζ^(a,v) over orbit elements.

        Returns the Laurent polynomial as a sparse exponent -> coefficient
        map; always palindromic since -1 lies in the Weyl group.
        """
        vd = np.array(v.d, dtype=np.int64)
        out: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            dots = (orbit_array(m) @ vd) // 4
            exps, counts = np.unique(dots, return_counts=True)
            for e, k in zip(exps, counts):
                e = int(e)
                val = out.get(e, Fraction(0)) + c * int(k)
                if val:
                    out[e] = val
                elif e in out:
                    del out[e]
        return out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"fw": list(m.fw), "coeff": format_rational(c)}
                for m, c in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InvariantElement":
        return cls(
            {
                DominantWeight.from_fw(t["fw"]): parse_rational(t["coeff"])
                for t in obj["terms"]
            }
        )


def lincomb(pairs) -> InvariantElement:
    """The sum of c·x over the (c, x) pairs, accumulated in one dict with zero
    sums pruned. The coefficients of x are Fractions already: only c is coerced."""
    acc: dict[DominantWeight, Fraction] = {}
    for c, x in pairs:
        c = Fraction(c)
        if not c:
            continue
        scaled = x.terms.items() if c == 1 else (
            (m, c * v) for m, v in x.terms.items()
        )
        for m, v in scaled:
            acc[m] = acc[m] + v if m in acc else v
    out = InvariantElement()
    out.terms = {m: v for m, v in acc.items() if v}
    return out


def _display_unit(label: str | None) -> InvariantElement:
    """The element displayed as 1 on the label (None: the constant)."""
    if label is None:
        return InvariantElement.constant(1)
    m = label_weight(label)
    return InvariantElement.orbit_sum(m, Fraction(240, orbit_size(m)))


def from_display(pairs) -> InvariantElement:
    """Rebuild an element from (label, display-coefficient) pairs."""
    return lincomb((c, _display_unit(label)) for label, c in pairs)


# ---------------------------------------------------------------------------
# Orbit products.
#
# For single orbits, the coefficient of orb(m) in orb(m1)·orb(m2) is
# |orb(m2)|·U_m/|orb(m)| with U_m = #{a in orbit(m1) : reduce(a+m2) = m}:
# the pair count #{(a,b) : a+b in orbit(m)} is constant along the orbit of
# the second factor, so one pass over the smaller orbit suffices.
#
# That pass runs over one row per W_J-orbit, where W_J, J = {i : (α_i, m2)
# = 0}, is the parabolic stabilizer of m2: reduce(g·a + m2) = reduce(a + m2)
# for g in W_J. Each W_J-orbit in orbit(m1) holds exactly one J-dominant a
# ((α_i, a) >= 0 for i in J), whose W_J-stabilizer is the parabolic
# subgroup on J ∩ Z(a), Z(a) = {i : (α_i, a) = 0} (Humphreys §1.10–1.12).
# So U_m sums the weights |W_J|/|W_{J∩Z(a)}| over the J-dominant a with
# reduce(a + m2) = m. The weights must add up to |orbit(m1)|, which is
# checked on every call.


@functools.cache
def _orbit_pair_product(m1: DominantWeight, m2: DominantWeight) -> InvariantElement:
    """orb(m1)·orb(m2), passing over orbit(m1): callers put the smaller orbit first."""
    if m2 == ZERO:  # identity element
        return InvariantElement.orbit_sum(m1)
    rows = orbit_array(m1)
    mask = _stabilizer_mask(m2.d)
    J = [i for i in range(8) if mask >> i & 1]
    p4 = rows @ _A2[J].T
    keep = (p4 >= 0).all(axis=1)
    masks, bins = np.unique(
        (p4[keep] == 0) @ (1 << np.array(J, dtype=np.int64)), return_inverse=True
    )
    order_j = _parabolic_order(mask)
    weights = np.array(
        [order_j // _parabolic_order(int(z)) for z in masks], dtype=np.int64
    )[bins]
    if int(weights.sum()) != orbit_size(m1):
        raise CertificationError(
            "W_J-orbit weights disagree with the orbit size of the first factor"
        )
    shifted = rows[keep] + np.array(m2.d, dtype=np.int64)
    keys, counts = _sum_by_key(_pack(_batch_reduce(shifted)), weights)
    size2 = orbit_size(m2)
    out = InvariantElement()
    for m, u in zip(DominantWeight._from_rows(_unpack(keys)), counts.tolist()):
        out.terms[m] = Fraction(u * size2, orbit_size(m))
    return out


def inv_mul(x: InvariantElement, y: InvariantElement) -> InvariantElement:
    """Product of two invariant elements, re-expressed in orbit sums. Each
    orbit pair goes smaller orbit first; the sort is stable, so a tie keeps
    the order of the factors."""
    return lincomb(
        (c1 * c2, _orbit_pair_product(*sorted((m1, m2), key=orbit_size)))
        for m1, c1 in x.terms.items()
        for m2, c2 in y.terms.items()
    )
