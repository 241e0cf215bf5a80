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
Every dedupe or bin of lattice rows packs each row into one uint64 key, a
byte per doubled coordinate (see _pack), so every doubled coordinate must
lie in [-128, 127]. A row beyond that, which needs norm >= 4096, raises
BudgetError; the deepest path in the benchmark and the catalog reaches a
doubled coordinate of 12.
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
    """The effective element budget: explicit argument, else environment, else default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV)
    return int(env) if env else DEFAULT_BUDGET


class E8Vector:
    """A lattice point in doubled-integer coordinates (true coordinate = d_i / 2)."""

    __slots__ = ("d",)

    def __init__(self, d):
        d = tuple(int(x) for x in d)
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
        fw = [int(x) for x in fw]
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


_SPINOR_D = np.array(_ROOTS_D[0], dtype=np.int64)
# key(r - c·α_i) = key(r) - c·_ROOT_KEYS[i] (mod 2^64) while every byte of
# both rows stays in range: the byte offsets cancel.
_ROOT_KEYS = _pack(_A2) - _pack(np.zeros_like(_A2))


def _batch_reduce(arr: np.ndarray) -> np.ndarray:
    """Dominant-reduce every row of an (n, 8) doubled-coordinate array.

    The simple roots split into the chain generating W(D7) — signed
    permutations of coordinates 1..7 with an even number of sign changes —
    and the single spinor-type root. A whole W(D7) canonicalization is one
    vectorized step: sort absolute values ascending and put a minus on the
    smallest entry iff the sign parity is odd (a zero absorbs odd parity
    for free). Alternating that step with one spinor reflection wherever
    its pairing is negative converges in a handful of passes, since the
    canonicalization maximizes the D7 height at fixed last coordinate and
    the reflection strictly increases the full height.
    """
    v = np.array(arr, dtype=np.int64)
    active = np.arange(len(v))
    while active.size:
        block = v[active]
        aa = np.abs(block[:, :7])
        odd = (block[:, :7] < 0).sum(axis=1) & 1
        aa.sort(axis=1)
        flip = (odd == 1) & (aa[:, 0] > 0)
        aa[flip, 0] = -aa[flip, 0]
        block[:, :7] = aa
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
# generated by the simple reflections fixing it, J = {i : fw[i] = 0}. Its
# order is a product over the positive roots supported on J (Macdonald, The
# Poincaré series of a Coxeter group, 1972):
#     |W_J| = prod (ht α + 1) / ht α  over α > 0 with supp α ⊆ J.

def _positive_roots() -> np.ndarray:
    """The 120 positive roots as rows of simple-root coefficients.

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
    return positive


_POSITIVE_ROOTS = _positive_roots()
_ROOT_HEIGHTS = _POSITIVE_ROOTS.sum(axis=1)
_ROOT_SUPPORTS = (_POSITIVE_ROOTS > 0) @ (1 << np.arange(8))


@functools.cache
def _parabolic_order(mask: int) -> int:
    """|W_J| for J the set bits of mask: the stabilizer order of a dominant
    weight whose fw coordinates vanish exactly on J."""
    heights = _ROOT_HEIGHTS[(_ROOT_SUPPORTS & ~mask) == 0].tolist()
    q, r = divmod(prod(h + 1 for h in heights), prod(heights))
    if r:
        raise CertificationError(f"height product for mask {mask} is not an integer")
    return q


_orbit_cache: dict[tuple, np.ndarray] = {}


@functools.cache
def orbit_size(m: DominantWeight) -> int:
    """|W(E8)-orbit of m| = |W(E8)| / |stabilizer|, computed without enumeration."""
    stab = _parabolic_order(sum(1 << i for i, x in enumerate(m.fw) if x == 0))
    q, r = divmod(WEYL_ORDER, stab)
    if r:
        raise CertificationError(f"stabilizer order {stab} does not divide |W|")
    return q


def orbit_array(m: DominantWeight) -> np.ndarray:
    """The full orbit as a lexicographically sorted (size, 8) int64 array.

    Closed level by level in the depth of a, #{β > 0 : (β, a) < 0}, the
    length of the shortest w with w·m = a. Where (α_i, a) > 0 the image
    s_i·a has depth one more than a, and every a of positive depth has a
    simple root with (α_i, a) < 0, whose reflection lowers it by one. So
    level k+1 is exactly the positive-pairing images of level k: the levels
    are disjoint and each is deduplicated on its own, with no seen set.

    The largest |doubled coordinate| on the orbit is (m, w_1) = m.d[7], so
    one look at m decides whether every row fits a packed key; when they
    all do, keys are linear in the row and an image's key is computed from
    its preimage's. The size is known up front from the stabilizer order,
    which doubles as the budget guard and, with the sorted keys' lack of
    adjacent duplicates, as a completeness check on the closure.
    """
    key = m.d
    cached = _orbit_cache.get(key)
    if cached is not None:
        return cached
    size = orbit_size(m)
    limit = element_budget()
    if size > limit:
        raise BudgetError(f"orbit of size {size} exceeds element budget {limit}")
    if m.d[7] > 127:
        raise BudgetError("lattice row has a doubled coordinate outside [-128, 127]")
    level = np.array([m.d], dtype=np.int64)
    levels = [_pack(level)]
    while True:
        p4 = level @ _A2.T
        row, i = np.nonzero(p4 > 0)
        if not row.size:
            break
        images = levels[-1][row] - (p4[row, i] // 4).astype(np.uint64) * _ROOT_KEYS[i]
        images.sort()  # numpy's hashing np.unique is far slower on these keys
        levels.append(images[np.concatenate(([True], images[1:] != images[:-1]))])
        level = _unpack(levels[-1])
    keys = np.sort(np.concatenate(levels))
    if len(keys) != size or (keys[1:] == keys[:-1]).any():
        raise CertificationError("orbit closure disagrees with stabilizer order")
    out = _unpack(keys)
    out.setflags(write=False)
    _orbit_cache[key] = out
    return out


def orbit(m: DominantWeight) -> list[E8Vector]:
    """The orbit as E8Vector objects in deterministic (lex) order."""
    return [E8Vector(tuple(row)) for row in orbit_array(m)]


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


def shell(two_n: int) -> list[tuple[DominantWeight, int]]:
    """Orbit decomposition of the norm-2n shell, with orbit sizes.

    Representatives are the alcove points of that norm: by Cauchy–Schwarz
    (m, θ)^2 <= 2(m, m), so alcove(isqrt(2 * two_n)) holds them all. That
    walk is bounded by the element budget, so a large norm raises
    BudgetError (from two_n = 2048 at the default budget). Sizes
    come from the stabilizer order. Completeness is certified by the
    theta-series identity: total size = 240 * sigma_3(n).
    """
    if two_n < 0 or two_n % 2:
        raise ValueError("shell norm must be even and non-negative")
    return list(_shell(two_n))


@functools.cache
def _shell(two_n: int) -> tuple[tuple[DominantWeight, int], ...]:
    rows = alcove(isqrt(2 * two_n))
    rows = rows[(rows * rows).sum(axis=1) == 4 * two_n]
    out = tuple((m, orbit_size(m)) for m in DominantWeight._from_rows(rows))
    total = sum(s for _, s in out)
    expect = 1 if two_n == 0 else 240 * sigma_pow(two_n // 2, 3)
    if total != expect:
        raise CertificationError(f"shell {two_n}: {total} points, expected {expect}")
    return out


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


@functools.cache
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
    """max of (m, l) over the norm-2n shell."""
    if two_n == 0:
        return 0
    md = np.array(m.d, dtype=np.int64)
    return max(int((orbit_array(rep) @ md).max()) // 4 for rep, _ in shell(two_n))
