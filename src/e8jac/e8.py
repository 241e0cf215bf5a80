"""Exact E8 lattice machinery.

Vectors live in doubled coordinates: an E8 point x (with x_i all integers
or all half-integers and even coordinate sum) is stored as d = 2x, eight
integers of one shared parity with sum divisible by 4. Everything stays in
integer arithmetic, including the closest-vector decoder. A DominantWeight
is such a vector (a subclass of E8Vector) that also carries its weight
coordinates fw, and compares and hashes as its coordinates.

Bulk kernels (alcove enumeration, batched dominant reduction, orbit closure,
coset decoding) run on int64 numpy arrays; DominantWeight._from_rows turns a
batch of dominant rows into weights, and is the one constructor: a single
weight is a batch of one. Every enumeration is bounded by the one
element budget, element_budget(). Orbit sizes are |W| / |W_J|, with |W_J| a
height product over positive roots (see _parabolic_order). An orbit is
closed level by level in depth (the length of the shortest Weyl element
reaching a row from the dominant representative): each level is the
positive-pairing reflections of the one before, deduplicated on its own.
Levels are closed on weight keys, a byte per fw coordinate, on which the
simple reflections act linearly, and only to half the depth: the longest
Weyl element is -1, so the lower levels negated are the upper ones.
The orbit memo is a sorted uint64 array of weight keys, 8 bytes a row and
no other encoding: a row pairs α_{j+1} non-negatively iff the top bit of
its byte j is set, its zero pairings come from an exact zero-byte test
(_high_bytes, _zero_bits), and its coordinates are its fw coordinates
times the fundamental weights (_key_fw).
Shells are cut out of the scaled alcove, and a theta build takes every
shell up to its order from one alcove walk, certifying each shell's size
by the theta-series identity (_shell_rows).
Every memo is a functools.cache keyed on exactly what the function reads,
which for a lattice argument is its coordinates d: a DominantWeight and the
E8Vector of its coordinates share one entry, so a cached function takes the
stabilizer mask from the pairings of d with the simple roots
(_stabilizer_mask), never from fw. Every other dedupe or bin of lattice
rows packs each row into one uint64 key, a byte per doubled coordinate (see
_pack), so every doubled coordinate must lie in [-128, 127]. A row beyond
that, which needs norm >= 4096, raises BudgetError. Measured: phi_-4_2
stores rows with doubled coordinates up to 13 at order 10 and up to 20 at
order 24, and every registry form at its default order stays within 10.
A weighted bin sums values over equal keys in one kernel, _sum_by_key. The
same key as a Python int (_key packs one row, with the same range check)
is what invariant elements are keyed by; _key_weight turns a key back into
its DominantWeight, once per key.

W(D_k), the signed permutations with an even number of sign changes, has
one canonicalization step, _dn_canonical. It is the D7 half of batched
dominant reduction, and on all eight coordinates (W(D8) lies in W(E8)) it
bins the raw rows of the theta quotient before they are reduced.
"""
from __future__ import annotations

import functools
import itertools
import os
from math import isqrt, prod

import numpy as np

from .qseries import sigma_pow

__all__ = [
    "E8Vector",
    "DominantWeight",
    "BudgetError",
    "CertificationError",
    "SIMPLE_ROOTS",
    "FUNDAMENTAL_WEIGHTS",
    "HIGHEST_ROOT",
    "ZERO",
    "WEYL_ORDER",
    "element_budget",
    "pairing",
    "dominant_reduce",
    "orbit",
    "orbit_array",
    "orbit_size",
    "alcove",
    "shell",
    "coset_min_norm",
    "max_coset_min_norm",
    "max_pairing",
]

WEYL_ORDER = 696729600  # 2^14 * 3^5 * 5^2 * 7

DEFAULT_BUDGET = 2_000_000
BUDGET_ENV = "E8JAC_BUDGET"


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured element budget."""


class CertificationError(RuntimeError):
    """A result the library checks on every call did not hold."""


def element_budget(budget: int | None = None) -> int:
    """The effective element budget: explicit argument, else environment, else default.

    A value that is not a positive integer raises ValueError naming its
    source: the argument (the CLI's --budget) or $E8JAC_BUDGET.
    """
    if budget is not None:
        source, value = "budget argument (--budget)", budget
    else:
        value = os.environ.get(BUDGET_ENV)
        if not value:
            return DEFAULT_BUDGET
        source = BUDGET_ENV
        try:
            value = int(value)
        except ValueError:
            pass  # reported below, with the text as given
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return value


def _integers(xs) -> tuple[int, ...]:
    """xs as a tuple of ints; a non-integral value raises instead of truncating."""
    xs = tuple(xs)
    out = tuple(int(x) for x in xs)
    if out != xs:
        raise ValueError(f"coordinates must be integers: {xs}")
    return out


class E8Vector:
    """A lattice point in doubled-integer coordinates (true coordinate = d_i / 2)."""

    __slots__ = ("d",)

    def __init__(self, d):
        d = _integers(d)
        if len(d) != 8:
            raise ValueError("need exactly 8 coordinates")
        par = d[0] & 1
        if any((x & 1) != par for x in d):
            raise ValueError(f"coordinates must share one parity: {d}")
        if sum(d) % 4 != 0:
            raise ValueError(f"coordinate sum must be divisible by 4: {d}")
        self.d = d

    def norm(self) -> int:
        return sum(x * x for x in self.d) // 4

    def __add__(self, other: "E8Vector") -> "E8Vector":
        return E8Vector(tuple(a + b for a, b in zip(self.d, other.d)))

    def __sub__(self, other: "E8Vector") -> "E8Vector":
        return E8Vector(tuple(a - b for a, b in zip(self.d, other.d)))

    def __neg__(self) -> "E8Vector":
        return E8Vector(tuple(-a for a in self.d))

    def __rmul__(self, c: int) -> "E8Vector":
        return E8Vector(tuple(c * a for a in self.d))

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, E8Vector) and self.d == other.d

    def __hash__(self) -> int:
        return hash(self.d)

    def __lt__(self, other: "E8Vector") -> bool:
        return self.d < other.d

    def __repr__(self) -> str:
        return f"E8Vector({list(self.d)})"

    def to_json(self) -> dict:
        return {"d": list(self.d), "doubled": True}

    @classmethod
    def from_json(cls, obj: dict) -> "E8Vector":
        if not obj.get("doubled"):
            raise ValueError("expected doubled-coordinate serialization")
        return cls(obj["d"])


# Doubled coordinates of the simple roots (rows) and fundamental weights.
# The weights are dual to the roots: (alpha_i, w_j) = delta_ij.
_ROOTS_D = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)
_WEIGHTS_D = (
    (0, 0, 0, 0, 0, 0, 0, 4),
    (1, 1, 1, 1, 1, 1, 1, 5),
    (-1, 1, 1, 1, 1, 1, 1, 7),
    (0, 0, 2, 2, 2, 2, 2, 10),
    (0, 0, 0, 2, 2, 2, 2, 8),
    (0, 0, 0, 0, 2, 2, 2, 6),
    (0, 0, 0, 0, 0, 2, 2, 4),
    (0, 0, 0, 0, 0, 0, 2, 2),
)

SIMPLE_ROOTS = tuple(E8Vector(r) for r in _ROOTS_D)
FUNDAMENTAL_WEIGHTS = tuple(E8Vector(w) for w in _WEIGHTS_D)
ZERO = E8Vector((0,) * 8)
# highest root = w_8; its expansion in simple roots is asserted in the tests
HIGHEST_ROOT = FUNDAMENTAL_WEIGHTS[7]

_A2 = np.array(_ROOTS_D, dtype=np.int64)  # (8, 8), rows are doubled roots
_W2 = np.array(_WEIGHTS_D, dtype=np.int64)
_BITS = 1 << np.arange(8)  # bit i stands for α_{i+1} in every root mask


def pairing(a: E8Vector, b: E8Vector) -> int:
    """The standard scalar product; always an integer on the lattice."""
    dot = sum(x * y for x, y in zip(a.d, b.d))
    q, r = divmod(dot, 4)
    if r:
        raise ValueError("pairing of lattice vectors must be integral")
    return q


class DominantWeight(E8Vector):
    """An E8Vector in the closed fundamental chamber, with its weight coordinates.

    fw[i] = (alpha_{i+1}, m) >= 0, and m = sum fw[i] * w_{i+1}. It is the
    lattice row itself: equality, hashing, order and norm are those of
    the E8Vector with the same coordinates. Every instance is built by
    _from_rows, one row or a batch.
    """

    __slots__ = ("fw",)

    def __init__(self, v: E8Vector):
        (m,) = self._from_rows([v.d])
        self.d, self.fw = m.d, m.fw

    @classmethod
    def _from_rows(cls, rows) -> list["DominantWeight"]:
        """One DominantWeight per row of an (n, 8) doubled-coordinate array, in
        row order: the lattice and dominance checks run on the whole batch,
        and fw comes from one product with the simple roots."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 8)
        p4 = rows @ _A2.T
        fw = p4 // 4
        for bad, what in (
            (((rows ^ rows[:, :1]) & 1).any(axis=1), "coordinates must share one parity"),
            (rows.sum(axis=1) % 4 != 0, "coordinate sum must be divisible by 4"),
            ((p4 % 4 != 0).any(axis=1), "pairing of lattice vectors must be integral"),
            ((fw < 0).any(axis=1), "not dominant"),
        ):
            if bad.any():
                raise ValueError(f"{what}: {tuple(rows[bad.argmax()].tolist())}")
        out = []
        for d, f in zip(rows.tolist(), fw.tolist()):
            m = cls.__new__(cls)
            m.d, m.fw = tuple(d), tuple(f)
            out.append(m)
        return out

    @classmethod
    def from_fw(cls, fw) -> "DominantWeight":
        fw = _integers(fw)
        if len(fw) != 8:
            raise ValueError("need exactly 8 fw coordinates")
        return cls._from_rows(np.array(fw, dtype=np.int64) @ _W2)[0]

    @property
    def v(self) -> "DominantWeight":
        """The weight itself: perfbench/spans.py still reads m.v.d."""
        return self

    def t_statistic(self) -> int:
        """T(m) = (m, highest root) — the index bound statistic for q^0-terms."""
        return pairing(self, HIGHEST_ROOT)

    def __repr__(self) -> str:
        return f"DominantWeight(fw={list(self.fw)})"

    def to_json(self) -> dict:
        return {**super().to_json(), "fw": list(self.fw)}

    @classmethod
    def from_json(cls, obj: dict) -> "DominantWeight":
        m = cls(E8Vector.from_json(obj))
        if tuple(obj.get("fw", m.fw)) != m.fw:
            raise ValueError("fw field inconsistent with coordinates")
        return m


def _pack(rows: np.ndarray) -> np.ndarray:
    """One uint64 key per row of an (n, 8) doubled-coordinate array.

    Byte k holds coordinate k offset by 128, coordinate 0 in the high byte,
    so sorting keys sorts rows lexicographically.
    """
    if rows.size and (rows.min() < -128 or rows.max() > 127):
        raise BudgetError("lattice row has a doubled coordinate outside [-128, 127]")
    as_bytes = (rows + 128).astype(np.uint8, order="C")
    return as_bytes.view(">u8").ravel().astype(np.uint64)


def _unpack(keys: np.ndarray) -> np.ndarray:
    """Inverse of _pack: the (n, 8) int64 rows of uint64 keys."""
    return keys.astype(">u8").view(np.uint8).reshape(-1, 8).astype(np.int64) - 128


def _key(d) -> int:
    """The _pack key of one row of doubled coordinates, as a Python int."""
    if min(d) < -128 or max(d) > 127:
        raise BudgetError("lattice row has a doubled coordinate outside [-128, 127]")
    return int.from_bytes(bytes(x + 128 for x in d), "big")


@functools.cache
def _key_weight(key: int) -> "DominantWeight":
    """The DominantWeight whose row has the _pack key key."""
    return DominantWeight._from_rows([[b - 128 for b in key.to_bytes(8, "big")]])[0]


def _sum_by_key(keys: np.ndarray, vals: np.ndarray):
    """Sum vals over equal keys: the sorted distinct keys with nonzero sums."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    keys, sums = keys[start], np.add.reduceat(vals, start)
    keep = sums != 0
    return keys[keep], sums[keep]


def _dn_canonical(x: np.ndarray) -> np.ndarray:
    """The W(D_k)-canonical row of every row of an (n, k) integer array.

    W(D_k) acts by signed permutations with an even number of sign changes,
    so one representative per orbit is: absolute values sorted ascending,
    with a minus on the smallest entry iff the sign parity is odd (a zero
    absorbs odd parity for free).
    """
    out = np.abs(x)
    odd = (x < 0).sum(axis=1) & 1
    out.sort(axis=1)
    flip = (odd == 1) & (out[:, 0] > 0)
    out[flip, 0] = -out[flip, 0]
    return out


_SPINOR_D = np.array(_ROOTS_D[0], dtype=np.int64)


def _batch_reduce(arr: np.ndarray) -> np.ndarray:
    """Dominant-reduce every row of an (n, 8) doubled-coordinate array.

    The simple roots split into the chain generating W(D7) — signed
    permutations of coordinates 1..7 with an even number of sign changes —
    and the single spinor-type root. A whole W(D7) canonicalization is one
    vectorized step, _dn_canonical on the first seven coordinates.
    Alternating that step with one spinor reflection wherever its pairing
    is negative converges in a handful of passes, since the
    canonicalization maximizes the D7 height at fixed last coordinate and
    the reflection strictly increases the full height.
    """
    v = np.array(arr, dtype=np.int64)
    active = np.arange(len(v))
    while active.size:
        block = v[active]
        block[:, :7] = _dn_canonical(block[:, :7])
        coef = (block @ _SPINOR_D) // 4
        hit = coef < 0
        block[hit] -= coef[hit, None] * _SPINOR_D
        v[active] = block
        active = active[hit]
    return v


def dominant_reduce(v: E8Vector) -> DominantWeight:
    """Reduce to the unique orbit representative in the closed chamber."""
    return DominantWeight._from_rows(_batch_reduce(np.array([v.d], dtype=np.int64)))[0]


# ---------------------------------------------------------------------------
# Orbit sizes via parabolic stabilizers.
#
# The stabilizer of a dominant weight is the standard parabolic subgroup W_J
# generated by the simple reflections fixing it, J = {i : (α_i, m) = 0}. Its
# order is a product over the positive roots supported on J (Macdonald, The
# Poincaré series of a Coxeter group, 1972):
#     |W_J| = prod (ht α + 1) / ht α  over α > 0 with supp α ⊆ J.

def _root_table() -> tuple[np.ndarray, np.ndarray]:
    """The 240 roots as rows of doubled coordinates in _pack key order (lex
    order), and the 120 positive roots as rows of simple-root coefficients.

    The 240 roots are the D8 roots ±e_i ± e_j and the half-spin vectors
    (±1/2, ..., ±1/2) with an even number of minus signs. The coefficient of
    α_i in a root r is (r, w_i), integral on every lattice row, and r is
    positive iff all eight are >= 0.
    """
    e = 2 * np.eye(8, dtype=np.int64)
    d8 = [a * e[i] + b * e[j] for i, j in itertools.combinations(range(8), 2)
          for a, b in itertools.product((1, -1), repeat=2)]
    spin = [s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
    roots = np.array(d8 + spin, dtype=np.int64)
    p4 = roots @ _W2.T  # E8 is unimodular: a row is on it iff every p4 is 0 mod 4
    if len(roots) != 240 or (p4 % 4).any() or ((roots * roots).sum(axis=1) != 8).any():
        raise CertificationError("the root table is not 240 lattice rows of norm 2")
    coef = p4 // 4
    positive = coef[(coef >= 0).all(axis=1)]
    if len(positive) != 120:
        raise CertificationError("the root table does not split into 120 ± pairs")
    return _unpack(np.sort(_pack(roots))), positive


_ROOT_ROWS, _POSITIVE_ROOTS = _root_table()
_ROOT_HEIGHTS = _POSITIVE_ROOTS.sum(axis=1)
_ROOT_SUPPORTS = (_POSITIVE_ROOTS > 0) @ _BITS


@functools.cache
def _parabolic_order(mask: int) -> int:
    """|W_J| for J the set bits of mask: the stabilizer order of a dominant
    weight whose fw coordinates vanish exactly on J."""
    heights = _ROOT_HEIGHTS[(_ROOT_SUPPORTS & ~mask) == 0].tolist()
    q, r = divmod(prod(h + 1 for h in heights), prod(heights))
    if r:
        raise CertificationError(f"height product for mask {mask} is not an integer")
    return q


def _stabilizer_mask(d: tuple[int, ...]) -> int:
    """J = {i : (α_i, d) = 0} as a bit mask, for the doubled coordinates d of
    a dominant vector, whose stabilizer is then W_J."""
    p4 = [sum(a * b for a, b in zip(r, d)) for r in _ROOTS_D]
    if min(p4) < 0:
        raise ValueError(f"not dominant: {d}")
    return sum(1 << i for i, x in enumerate(p4) if x == 0)


def _mask_orbit_size(mask: int) -> int:
    """|W| / |W_J| for J the set bits of mask: the orbit size of a dominant
    weight whose fw coordinates vanish exactly on J."""
    stab = _parabolic_order(mask)
    q, r = divmod(WEYL_ORDER, stab)
    if r:
        raise CertificationError(f"stabilizer order {stab} does not divide |W|")
    return q


@functools.cache
def orbit_size(m: E8Vector) -> int:
    """|W(E8)-orbit of m| = |W(E8)| / |stabilizer|, computed without enumeration."""
    return _mask_orbit_size(_stabilizer_mask(m.d))


# A weight key is a native uint64 whose byte j in memory holds fw_j + 128,
# the pairing (α_{j+1}, a) offset into a byte, so a batch of keys viewed as
# uint8 is the (n, 8) table of its simple-root pairings. A simple reflection acts
# linearly on fw: fw(s_i·a) = fw(a) - fw_i(a)·(row i of the Cartan matrix),
# so wkey(s_i·a) = wkey(a) - fw_i(a)·_FW_ROOT_KEYS[i] (mod 2^64) while every
# byte of both keys stays in range: the byte offsets cancel.
_FW_ROOT_KEYS = (
    ((_A2 @ _A2.T) // 4 + 128).astype(np.uint8).view(np.uint64).ravel()
    - np.full((8, 8), 128, dtype=np.uint8).view(np.uint64).ravel()
)
# Word masks of each byte's top bit and low seven bits, and the multiplier
# that gathers bit 8j + 7 of a word into bit 56 + j (Warren, Hacker's
# Delight, §7-1): its partial products land on distinct bits, so none carries.
_HIGH = np.uint64(0x8080808080808080)
_LOW = np.uint64(0x7F7F7F7F7F7F7F7F)
_GATHER = np.uint64(0x0102040810204080)


def _key_fw(w: np.ndarray) -> np.ndarray:
    """The (n, 8) int64 fw coordinates of the weight keys in w; the rows
    themselves are _key_fw(w) @ _W2."""
    return w.view(np.uint8).reshape(-1, 8).astype(np.int64) - 128


def _high_bytes(mask: int) -> np.uint64:
    """H_J: the weight-key word with 0x80 in byte j for each bit j of mask.
    A key w pairs every α_{j+1}, j in J, non-negatively iff w & H_J == H_J."""
    high = np.array([0x80 * (mask >> j & 1) for j in range(8)], dtype=np.uint8)
    return high.view(np.uint64)[0]


def _zero_bits(w: np.ndarray) -> np.ndarray:
    """The simple roots every weight key in w pairs to zero with, as uint8
    masks: bit j where fw_j = 0, that is where byte j of v = w ^ _HIGH is
    zero. The test is exact, with no carry between bytes (Hacker's Delight,
    §6-1): the top bit of byte j of ((v & _LOW) + _LOW) | v is clear iff
    that byte of v is zero. The top bits are gathered by one product and
    inverted as uint8, which spares a uint64 inversion."""
    v = w.view("<u8") ^ _HIGH  # byte j of each word is byte j in memory
    h = v & _LOW
    h += _LOW
    h |= v
    h &= _HIGH
    h >>= np.uint64(7)
    h *= _GATHER
    h >>= np.uint64(56)
    return ~h.astype(np.uint8)


def _by_mask(masks: np.ndarray, value) -> np.ndarray:
    """value(z) for every root mask z in masks, as int64, with one call per
    distinct mask, found by a bincount over the 256 masks."""
    table = np.zeros(256, dtype=np.int64)
    for z in np.flatnonzero(np.bincount(masks, minlength=256)).tolist():
        table[z] = value(z)
    return table[masks]


def _orbit_sizes(keys: np.ndarray) -> np.ndarray:
    """orbit_size of the dominant row of every _pack key, as int64."""
    return _row_orbit_sizes(_unpack(keys))


def _row_orbit_sizes(rows: np.ndarray) -> np.ndarray:
    """orbit_size of every dominant row of doubled coordinates, as int64: the
    stabilizer masks come from one product with the simple roots, and each
    distinct mask costs one height product."""
    return _by_mask(((rows @ _A2.T) == 0) @ _BITS, _mask_orbit_size)


def _orbit_depth(mask: int) -> int:
    """D = #{β > 0 : (β, m) != 0} for a dominant m with stabilizer mask: the
    depth of -m, the deepest row of the orbit."""
    return int(((_ROOT_SUPPORTS & ~mask) != 0).sum())


def _lower_half(m: E8Vector, depth: int) -> tuple[np.ndarray, int]:
    """The weight keys of the orbit rows of depth 0..depth // 2, level by
    level, and how many of them lie at depth below depth / 2."""
    fw = (np.array(m.d, dtype=np.int64) @ _A2.T) // 4
    level = (fw + 128).astype(np.uint8).view(np.uint64)
    levels = [level]
    for _ in range(depth // 2):
        fwb = level.view(np.uint8).reshape(-1, 8)
        row, i = np.nonzero(fwb > 128)
        images = level[row] - (fwb[row, i] - 128).astype(np.uint64) * _FW_ROOT_KEYS[i]
        images.sort()  # numpy's hashing np.unique is far slower on these keys
        level = images[np.concatenate(([True], images[1:] != images[:-1]))]
        levels.append(level)
    lower = np.concatenate(levels)
    return lower, len(lower) - (len(level) if depth % 2 == 0 else 0)


@functools.cache
def orbit_array(m: E8Vector) -> np.ndarray:
    """The full orbit as a read-only sorted uint64 array of weight keys,
    8 bytes a row: byte j of each key holds (α_{j+1}, a) + 128.

    The depth of a, #{β > 0 : (β, a) < 0}, is the length of the shortest w
    with w·m = a. Where (α_i, a) > 0 the image s_i·a has depth one more than
    a, and every a of positive depth has a simple root with (α_i, a) < 0,
    whose reflection lowers it by one. So level k+1 is exactly the
    positive-pairing images of level k: the levels are disjoint and each is
    deduplicated on its own, with no seen set.

    The longest element of W(E8) is -1 (Humphreys, Reflection Groups and
    Coxeter Groups, §3.20), and depth(-a) = D - depth(a) with
    D = #{β > 0 : (β, m) != 0}. So only levels 0..D // 2 are closed; the
    rows below depth D / 2, negated, are the levels above it. A weight key
    negates byte by byte mod 256.

    The largest |doubled coordinate| on the orbit is (m, w_1) = m.d[7], and
    every fw coordinate is some (β, m) with |(β, m)| <= (θ, m) =
    (m.d[6] + m.d[7]) / 2 <= m.d[7]; so one look at m decides whether every
    row fits a key, with each byte in [1, 255]. The size is known up front
    from the stabilizer order, which doubles as the budget guard and, with
    the sorted keys' lack of adjacent duplicates, as a completeness check
    on the closure. A caller reads each row's sign bits off its bytes
    (_high_bytes, _zero_bits) and its coordinates as _key_fw(keys) @ _W2.
    """
    size = orbit_size(m)
    limit = element_budget()
    if size > limit:
        raise BudgetError(f"orbit of size {size} exceeds element budget {limit}")
    if m.d[7] > 127:
        raise BudgetError("lattice row has a doubled coordinate outside [-128, 127]")
    lower, n_below = _lower_half(m, _orbit_depth(_stabilizer_mask(m.d)))
    n = len(lower)
    out = np.empty(n + n_below, dtype=np.uint64)
    out[:n] = lower
    np.negative(lower[:n_below].view(np.uint8), out=out[n:].view(np.uint8))
    del lower
    out.sort()
    if len(out) != size or (out[1:] == out[:-1]).any():
        raise CertificationError("orbit closure disagrees with stabilizer order")
    out.setflags(write=False)
    return out


def orbit(m: DominantWeight) -> list[E8Vector]:
    """The orbit as E8Vector objects in deterministic (lex) order."""
    keys = np.sort(_pack(_key_fw(orbit_array(m)) @ _W2))
    return [E8Vector(tuple(row)) for row in _unpack(keys).tolist()]


# ---------------------------------------------------------------------------
# The scaled alcove.
#
# The affine Weyl group W ⋉ tE8 has the closed alcove
# {m dominant : (m, θ) <= t} as a fundamental domain, and for a simply-laced
# root lattice the Voronoi cell of 0 in tE8 is the union of the W-images of
# that alcove. So every W-orbit of cosets E8/tE8 has one alcove point, whose
# norm is the coset minimum; shells are cut out of a large enough alcove.

_MARKS = tuple(int(x) for x in (_W2 @ _W2[7]) // 4)  # (w_i, θ), θ = w_8


def alcove(t: int) -> np.ndarray:
    """The dominant weights m with (m, θ) <= t, as a lex-sorted (n, 8) int64
    array of doubled coordinates.

    Walks the fw coordinates one at a time under the linear bound
    sum(mark_i * fw_i) <= t, expanding every partial point at once. Each
    step's size is known before it is built, so the walk raises BudgetError
    before it would hold more points than the element budget.
    """
    if t < 0:
        raise ValueError("alcove scale must be non-negative")
    limit = element_budget()
    fw = np.zeros((1, 0), dtype=np.int64)
    room = np.array([t], dtype=np.int64)  # t minus the partial sum
    for mark in _MARKS:
        reps = room // mark + 1
        total = int(reps.sum())
        if total > limit:
            raise BudgetError(
                f"alcove walk at t={t} reaches {total} points, "
                f"over element budget {limit}"
            )
        parent = np.repeat(np.arange(len(fw)), reps)
        x = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
        fw = np.column_stack([fw[parent], x])
        room = room[parent] - mark * x
    rows = fw @ _W2
    return rows[np.lexsort(rows.T[::-1])]


def _shell_rows(lo: int, hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For n = lo..hi, the lex-sorted rows of the representatives of the
    norm-2n shell and their orbit sizes, all from one alcove walk.

    By Cauchy–Schwarz (m, θ)^2 <= 2(m, m), so alcove(isqrt(4 * hi)) holds
    every representative of norm up to 2 * hi. That walk is bounded by the
    element budget, and only its rows of norm 2 * lo..2 * hi are sized.
    Each shell's completeness is certified by the theta-series identity:
    total size = 240 * sigma_3(n).
    """
    rows = alcove(isqrt(4 * hi))
    n = (rows * rows).sum(axis=1) // 8
    keep = (lo <= n) & (n <= hi)
    by_norm = np.argsort(n[keep], kind="stable")  # each shell stays lex-sorted
    n = n[keep][by_norm]
    rows = rows[keep][by_norm]
    sizes = _row_orbit_sizes(rows)
    cuts = np.searchsorted(n, np.arange(lo, hi + 2)).tolist()
    totals = np.concatenate(([0], np.cumsum(sizes)))[cuts].tolist()
    out = []
    for k in range(lo, hi + 1):
        a, b = cuts[k - lo], cuts[k - lo + 1]
        total = totals[k - lo + 1] - totals[k - lo]
        expect = 1 if k == 0 else 240 * sigma_pow(k, 3)
        if total != expect:
            raise CertificationError(f"shell {2 * k}: {total} points, expected {expect}")
        out.append((rows[a:b], sizes[a:b]))
    return out


def shell(two_n: int) -> list[tuple[DominantWeight, int]]:
    """Orbit decomposition of the norm-2n shell, with orbit sizes.

    Representatives are the alcove points of that norm, cut out of one
    alcove walk that sizes only them (_shell_rows), so a large norm raises
    BudgetError (from two_n = 2048 at the default budget). Sizes come from
    the stabilizer order, and the total is certified by the theta-series
    identity. A theta build takes all its shells from one walk of its own
    (jacobi.theta_e8) and does not go through here.
    """
    if two_n < 0 or two_n % 2:
        raise ValueError("shell norm must be even and non-negative")
    return list(_shell(two_n))


@functools.cache
def _shell(two_n: int) -> tuple[tuple[DominantWeight, int], ...]:
    ((rows, sizes),) = _shell_rows(two_n // 2, two_n // 2)
    return tuple(zip(DominantWeight._from_rows(rows), sizes.tolist()))


# ---------------------------------------------------------------------------
# Coset minima via exact closest-vector decoding.
#
# min{(v,v) : v in l + tE8} = t^2 * dist(-l/t, E8)^2, and E8 decoding splits
# over the two glue classes of D8. Working at scale 2t keeps everything in
# integers: per coordinate A_i = -(d_i + t*g) with g in {0,1} encodes the
# target times 2t; rounding residues R_i lie in [-t, t].

def _decode_scaled(d: np.ndarray, t: int) -> np.ndarray:
    """Per row of doubled coordinates: 4 * the minimum norm of l + tE8, exactly.

    Decodes both glue classes g = 0, 1 at once and keeps the nearer.
    """
    T = 2 * t
    A = -(d + t * np.array([0, 1])[:, None, None])  # glue class g per plane
    n = (A + t) // T  # nearest integer (ties round up: value unaffected)
    R = A - T * n
    cost = (R * R).sum(axis=-1)
    # flipping coordinate i to its second-nearest integer costs T^2 - 2T|R_i|
    flip = (T * T - 2 * T * np.abs(R)).min(axis=-1)
    odd = (n.sum(axis=-1) % 2) != 0
    return np.where(odd, cost + flip, cost).min(axis=0)


def coset_min_norm(l: E8Vector, t: int) -> int:
    """Minimum norm in the coset l + tE8, by exact decoding (no search)."""
    if t < 1:
        raise ValueError("index t must be positive")
    q, r = divmod(int(_decode_scaled(np.array([l.d], dtype=np.int64), t)[0]), 4)
    if r:
        raise CertificationError("scaled minimum must be divisible by 4")
    return q


def max_coset_min_norm(t: int) -> int:
    """max over all cosets of E8/tE8 of the coset minimum norm.

    Every coset is a W-image of one whose alcove point is its shortest
    vector, so this is the largest norm in alcove(t). That premise is
    certified on every call: each alcove point must decode to its own norm.
    """
    if t < 1:
        raise ValueError("index t must be positive")
    rows = alcove(t)
    norms4 = (rows * rows).sum(axis=1)
    if (_decode_scaled(rows, t) != norms4).any():
        raise CertificationError(f"an alcove point at t={t} is not its coset's minimum")
    return int(norms4.max()) // 4


def max_pairing(m: DominantWeight, two_n: int) -> int:
    """max of (m, l) over the norm-2n shell. For dominant λ and m,
    (w·λ, m) <= (λ, m), so the maximum is at a shell representative."""
    return max(pairing(rep, m) for rep, _ in shell(two_n))
