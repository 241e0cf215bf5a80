"""W(E8)-invariant finite Fourier sums.

An InvariantElement is a rational linear combination of plain orbit sums
orb(m) = sum of e^(a,z) over the Weyl orbit of a dominant weight m. These
are the q-power coefficients of the Jacobi forms in this package.

This module owns the one exact coefficient format. An element stores
integer numerators keyed by the packed row of m (e8._pack's key, a Python
int) over one positive denominator, in lowest terms, so sums, products and
pair products run on Python ints with no Fraction and no object hashing.
Fractions and DominantWeights are built only where the API returns them
(terms, coeff, support, display, JSON, evaluation).

Internally everything multiplies plain orbit sums; the 240-normalized
Σ-labels used in printed expansions are a display layer on top
(coefficient of orb(m) renders as c·|orb(m)|/240 on the label for m).
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import numpy as np

from .e8 import (
    ZERO,
    BudgetError,
    CertificationError,
    DominantWeight,
    E8Vector,
    _W2,
    _batch_reduce,
    _by_mask,
    _high_bytes,
    _key,
    _key_fw,
    _key_weight,
    _orbit_sizes,
    _pack,
    _parabolic_order,
    _stabilizer_mask,
    _sum_by_key,
    _unpack,
    _zero_bits,
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


_ZERO_KEY = _key(ZERO.d)


def _element(num: dict[int, int], den: int) -> "InvariantElement":
    """The element num/den in canonical form: zero numerators dropped and
    gcd(den, *num.values()) divided out. Takes ownership of num; den > 0."""
    if not all(num.values()):
        num = {k: v for k, v in num.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
    out = InvariantElement.__new__(InvariantElement)
    out.num, out.den = num, den
    return out


class InvariantElement:
    """Sparse sum of c·orb(m): integer numerators over one denominator.

    num maps the e8._pack key of each dominant row m (a Python int; key
    order is lex row order) to a nonzero integer, and den is a positive
    integer, so the coefficient of orb(m) is num[key] / den. The form is
    canonical, gcd(den, *num.values()) == 1, so equal elements have equal
    (den, num). An element is never changed after it is built.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: dict[DominantWeight, Fraction] | None = None):
        # a key that is not a DominantWeight is checked: ValueError("not dominant: …")
        fracs = {_key((m if isinstance(m, DominantWeight) else DominantWeight(m)).d):
                 Fraction(c) for m, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in fracs.values()))  # a zero adds 1
        self.num = {k: c.numerator * (den // c.denominator)
                    for k, c in fracs.items() if c}
        self.den = den

    @classmethod
    def zero(cls) -> "InvariantElement":
        return cls()

    @classmethod
    def constant(cls, c) -> "InvariantElement":
        return cls({DominantWeight(ZERO): Fraction(c)})

    @classmethod
    def orbit_sum(cls, m: DominantWeight, c=1) -> "InvariantElement":
        return cls({m: Fraction(c)})

    @property
    def terms(self) -> MappingProxyType:
        """The coefficients as a read-only {DominantWeight: Fraction}, in key order."""
        den = self.den
        return MappingProxyType(
            {_key_weight(k): Fraction(v, den) for k, v in sorted(self.num.items())}
        )

    def is_zero(self) -> bool:
        return not self.num

    def support(self) -> list[DominantWeight]:
        return [_key_weight(k) for k in sorted(self.num)]

    def coeff(self, m: DominantWeight) -> Fraction:
        if not isinstance(m, DominantWeight):
            DominantWeight(m)  # ValueError("not dominant: …") off the chamber
        try:
            v = self.num.get(_key(m.d), 0)
        except BudgetError:  # no stored row lies outside the byte range
            v = 0
        return Fraction(v, self.den)

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
        if c < 1:
            raise ValueError("dilation factor must be a positive integer")
        keys = np.fromiter(self.num, dtype=np.uint64, count=len(self.num))
        dilated = _pack(c * _unpack(keys)).tolist()
        return _element(dict(zip(dilated, self.num.values())), self.den)

    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, InvariantElement):
            return inv_mul(self, other)
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvariantElement)
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self) -> str:
        return f"<InvariantElement {self.display_str()}>"

    # -- evaluation and checks ------------------------------------------------

    def eval_zero(self) -> Fraction:
        """Value at z = 0: every exponential becomes 1, so sum c(m)·|orb(m)|."""
        return Fraction(
            sum(v * orbit_size(_key_weight(k)) for k, v in self.num.items()), self.den
        )

    def norm_moment(self) -> Fraction:
        """Sum over all orbit elements of coefficient times (l,l)."""
        total = 0
        for k, v in self.num.items():
            m = _key_weight(k)
            total += v * orbit_size(m) * m.norm()
        return Fraction(total, self.den)

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
        for k, v in self.num.items():
            if k == _ZERO_KEY:
                const = (None, Fraction(v, self.den))
            else:
                m = _key_weight(k)
                disp = Fraction(v * orbit_size(m), 240 * self.den)
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
        wv = (_W2 @ np.array(v.d, dtype=np.int64)) // 4  # (w_j, v), integral
        out: dict[int, int] = {}
        for key, c in self.num.items():
            dots = _key_fw(orbit_array(_key_weight(key))) @ wv
            exps, counts = np.unique(dots, return_counts=True)
            for e, k in zip(exps.tolist(), counts.tolist()):
                val = out.get(e, 0) + c * k
                if val:
                    out[e] = val
                elif e in out:
                    del out[e]
        return {e: Fraction(val, self.den) for e, val in out.items()}

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"fw": list(m.fw), "coeff": format_rational(c)}
                for m, c in self.terms.items()
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


def _sum(parts, den: int) -> InvariantElement:
    """The sum of s·num over the (integer s, numerator dict num) parts, over
    den: accumulated as integers in one dict and reduced once."""
    acc: dict[int, int] = {}
    get = acc.get
    for s, num in parts:
        for k, v in num.items():
            acc[k] = get(k, 0) + s * v
    return _element(acc, den)


def lincomb(pairs) -> InvariantElement:
    """The sum of c·x over the (c, x) pairs, for rationals c: the numerators
    of x times c.numerator accumulate over L = lcm of every c.denominator·x.den."""
    parts = []
    for c, x in pairs:
        if type(c) is int:
            a, b = c, 1
        else:
            if type(c) is not Fraction:
                c = Fraction(c)
            a, b = c.numerator, c.denominator
        if a and x.num:
            parts.append((a, b * x.den, x.num))
    den = lcm(*(d for _, d, _ in parts))
    return _sum(((a * (den // d), num) for a, d, num in parts), den)


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
# reduce(a + m2) = m. The orbit memo's weight keys name both sets, since
# byte i of a's key is (α_{i+1}, a) + 128: a is J-dominant iff the top bit
# of every byte in J is set, key & H_J == H_J with H_J = 0x80 in each J
# byte, and J ∩ Z(a) is the zero-byte mask of a's key & J. Only the kept
# keys are tested for zero bytes and turned into coordinates, fw @ _W2,
# and the weights take one cached stabilizer order per distinct J ∩ Z(a)
# (e8._by_mask). The weights must add up to |orbit(m1)|, which is
# checked on every call. A product of orbit sums has integer coefficients
# (each counts the pairs (a, b) with a + b = m), so |orb(m)| must divide
# |orb(m2)|·U_m; that is checked on every call too.


@functools.cache
def _orbit_pair_product(m1: DominantWeight, m2: DominantWeight) -> InvariantElement:
    """orb(m1)·orb(m2), passing over orbit(m1): callers put the smaller orbit first."""
    if m2 == ZERO:  # identity element
        return InvariantElement.orbit_sum(m1)
    orb = orbit_array(m1)
    mask = _stabilizer_mask(m2.d)
    high = _high_bytes(mask)
    kept = orb[(orb & high) == high]
    order_j = _parabolic_order(mask)
    weights = _by_mask(_zero_bits(kept) & mask, lambda z: order_j // _parabolic_order(z))
    if int(weights.sum()) != orbit_size(m1):
        raise CertificationError(
            "W_J-orbit weights disagree with the orbit size of the first factor"
        )
    shifted = _key_fw(kept) @ _W2 + np.array(m2.d, dtype=np.int64)
    keys, counts = _sum_by_key(_pack(_batch_reduce(shifted)), weights)
    # U_m·|orb(m2)| <= |W|^2 < 2^63, so int64 holds it
    num, rem = np.divmod(counts * orbit_size(m2), _orbit_sizes(keys))
    if rem.any():
        raise CertificationError(
            "a product of orbit sums has a coefficient that is not an integer"
        )
    return _element(dict(zip(keys.tolist(), num.tolist())), 1)


def inv_mul(x: InvariantElement, y: InvariantElement) -> InvariantElement:
    """Product of two invariant elements, re-expressed in orbit sums: the
    integer numerators c1·c2 of each orbit pair over x.den·y.den. Each orbit
    pair goes smaller orbit first; the sort is stable, so a tie keeps the
    order of the factors."""
    pairs = (
        (c1 * c2, _key_weight(k1), _key_weight(k2))
        for k1, c1 in x.num.items()
        for k2, c2 in y.num.items()
    )
    return _sum(
        ((c, _orbit_pair_product(*sorted((m1, m2), key=orbit_size)).num)
         for c, m1, m2 in pairs),
        x.den * y.den,
    )
