"""Slow reference routes kept as test oracles for the library's fast paths.

Each function here is an independent way to compute what a library
function computes, and is used only by the tests:

* ``inv_mul_brute`` for ``invring.inv_mul`` (orbit-pair products);
* ``orbit_pair_product_by_full_orbit`` for ``invring._orbit_pair_product``;
* ``orbit_array_by_seen_set`` for ``e8.orbit_array``;
* ``_batch_reduce_by_reflection`` for ``e8._batch_reduce``;
* ``weight_coordinates_by_pairings`` for ``e8.DominantWeight._from_rows``
  (the fw coordinates of one row by eight scalar pairings);
* ``parabolic_order_by_diagram`` for ``e8._parabolic_order`` (stabilizer
  orders by classifying the Coxeter subdiagram);
* ``shell_by_enumeration`` for ``e8.shell``;
* ``check_quasi_periodicity_by_orbit_scan`` for
  ``jacobi.check_quasi_periodicity``;
* ``lincomb_by_fold`` for ``invring.lincomb``.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

import numpy as np

from e8jac.e8 import (
    _A2,
    HIGHEST_ROOT,
    SIMPLE_ROOTS,
    WEYL_ORDER,
    ZERO,
    BudgetError,
    DominantWeight,
    E8Vector,
    _batch_reduce,
    _pack,
    _unpack,
    element_budget,
    orbit_array,
    orbit_size,
    pairing,
)
from e8jac.invring import InvariantElement


def orbit_array_by_seen_set(m: DominantWeight) -> np.ndarray:
    """The orbit of m as a lex-sorted (size, 8) int64 array, by breadth-first
    closure under all 8 simple reflections against a seen set of sorted
    packed keys. Every level searches and inserts into the whole seen set.
    Not cached."""
    frontier = np.array([m.d], dtype=np.int64)
    seen = _pack(frontier)
    while frontier.size:
        p4 = frontier @ _A2.T
        images = [frontier - (p4[:, i : i + 1] // 4) * _A2[i] for i in range(8)]
        cand = np.unique(_pack(np.concatenate(images)))
        pos = np.searchsorted(seen, cand)
        fresh = cand[seen[np.minimum(pos, len(seen) - 1)] != cand]
        if not fresh.size:
            break
        seen = np.insert(seen, np.searchsorted(seen, fresh), fresh)
        frontier = _unpack(fresh)
    if len(seen) != orbit_size(m):
        raise AssertionError("orbit closure disagrees with stabilizer order")
    return _unpack(seen)


def orbit_pair_product_by_full_orbit(
    m1: DominantWeight, m2: DominantWeight
) -> InvariantElement:
    """orb(m1)·orb(m2) by dominant-reducing a + m2 for every a in the
    smaller orbit and rescaling the counts by orbit sizes. Not cached."""
    if orbit_size(m1) > orbit_size(m2):
        m1, m2 = m2, m1
    if m2 == ZERO:
        return InvariantElement.orbit_sum(m1)
    shifted = orbit_array(m1) + np.array(m2.d, dtype=np.int64)
    keys, counts = np.unique(_pack(_batch_reduce(shifted)), return_counts=True)
    out = InvariantElement()
    for rep, u in zip(_unpack(keys), counts):
        m = DominantWeight(E8Vector(rep))
        out.terms[m] = Fraction(int(u) * orbit_size(m2), orbit_size(m))
    return out


def inv_mul_brute(m1: DominantWeight, m2: DominantWeight) -> dict[DominantWeight, Fraction]:
    """Reference double-loop decomposition of orb(m1)·orb(m2): enumerate both
    orbits, bin every sum a+b by its dominant representative, divide by orbit
    sizes. Quadratic.

    The binning runs on packed row keys; work is chunked to bound memory.
    """
    a = orbit_array(m1)
    b = orbit_array(m2)
    chunk = max(1, 2_000_000 // len(b))
    keys: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for lo in range(0, len(a), chunk):
        sums = (a[lo:lo + chunk, None, :] + b[None, :, :]).reshape(-1, 8)
        u, c = np.unique(_pack(_batch_reduce(sums)), return_counts=True)
        keys.append(u)
        counts.append(c)
    uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    merged = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(merged, inverse, np.concatenate(counts))
    out = {}
    for row, n in zip(_unpack(uniq), merged):
        m = DominantWeight(E8Vector(row))
        out[m] = Fraction(int(n), orbit_size(m))
    return out


def weight_coordinates_by_pairings(v: E8Vector) -> tuple[int, ...]:
    """fw[i] = (alpha_{i+1}, v) for a dominant v, one scalar pairing per
    simple root; raises ValueError when v is not dominant."""
    fw = tuple(pairing(r, v) for r in SIMPLE_ROOTS)
    if any(x < 0 for x in fw):
        raise ValueError(f"not dominant: pairings {fw}")
    return fw


def _batch_reduce_by_reflection(arr: np.ndarray) -> np.ndarray:
    """Dominant-reduce every row by repeated single simple reflections.

    One reflection per row per pass makes this slow on large batches with
    long reduction words.
    """
    v = np.array(arr, dtype=np.int64)
    active = np.arange(len(v))
    while active.size:
        p4 = v[active] @ _A2.T
        neg = p4 < 0
        hit = neg.any(axis=1)
        if not hit.any():
            break
        rows = active[hit]
        first = neg[hit].argmax(axis=1)
        coef = p4[hit, first] // 4
        v[rows] -= coef[:, None] * _A2[first]
        active = rows
    return v


def _component_group_order(nodes: list[int], adj: dict[int, list[int]]) -> int:
    """The Weyl-group order of one connected Coxeter diagram of type A, D or E."""
    n = len(nodes)
    branch = [u for u in nodes if len(adj[u]) == 3]
    if not branch:
        return factorial(n + 1)  # type A_n
    b = branch[0]
    arms = []
    for start in adj[b]:
        length, prev, cur = 1, b, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return 2 ** (n - 1) * factorial(n)  # type D_n
    if arms == [1, 2, 2]:
        return 51840  # E6
    if arms == [1, 2, 3]:
        return 2903040  # E7
    if arms == [1, 2, 4]:
        return WEYL_ORDER  # E8
    raise AssertionError(f"impossible subdiagram arms {arms}")


def parabolic_order_by_diagram(mask: int) -> int:
    """|W_J| for J the set bits of mask, as the product of the Weyl-group
    orders of the connected components of the Coxeter subdiagram on J; two
    nodes are joined when their simple roots pair non-trivially."""
    J = [i for i in range(8) if mask >> i & 1]
    gram = _A2 @ _A2.T
    adj = {u: [v for v in J if v != u and gram[u, v]] for u in J}
    order = 1
    seen: set[int] = set()
    for u in J:
        if u in seen:
            continue
        comp, stack = [], [u]
        seen.add(u)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        order *= _component_group_order(comp, adj)
    return order


def _int_tuples4(max_sq: int, odd: bool) -> np.ndarray:
    """All 4-tuples of (all-even-parity handled by caller) integers, |.|^2 <= max_sq."""
    r = isqrt(max_sq)
    vals = np.arange(-r, r + 1, dtype=np.int64)
    if odd:
        vals = vals[vals % 2 != 0]
    grids = np.meshgrid(vals, vals, vals, vals, indexing="ij")
    tup = np.stack([g.ravel() for g in grids], axis=1)
    keep = (tup * tup).sum(axis=1) <= max_sq
    return tup[keep]


def _join_halves(half: np.ndarray, target: int, budget: int) -> np.ndarray:
    """All 8-tuples (a | b) with a, b from `half` and |a|^2 + |b|^2 = target."""
    ss = (half * half).sum(axis=1)
    order = np.argsort(ss, kind="stable")
    half, ss = half[order], ss[order]
    values, starts = np.unique(ss, return_index=True)
    ends = np.append(starts[1:], len(ss))
    span = {int(v): (int(s), int(e)) for v, s, e in zip(values, starts, ends)}
    total = sum(
        (span[v][1] - span[v][0]) * (span[target - v][1] - span[target - v][0])
        for v in span
        if target - v in span
    )
    if total > budget:
        raise BudgetError(f"enumeration of {total} candidates exceeds budget {budget}")
    blocks = []
    for v, (s1, e1) in span.items():
        w = target - v
        if w not in span:
            continue
        s2, e2 = span[w]
        left = np.repeat(half[s1:e1], e2 - s2, axis=0)
        right = np.tile(half[s2:e2], (e1 - s1, 1))
        blocks.append(np.concatenate([left, right], axis=1))
    if not blocks:
        return np.empty((0, 8), dtype=np.int64)
    return np.concatenate(blocks)


def shell_by_enumeration(
    two_n: int, budget: int | None = None
) -> list[tuple[DominantWeight, int]]:
    """Shell decomposition by the direct route: enumerate every lattice point
    of the given norm, batch dominant-reduce, and bin.

    Meet-in-the-middle join over coordinate halves; integer-coordinate and
    half-integer-coset points handled as separate parity classes.
    """
    if two_n < 0 or two_n % 2:
        raise ValueError("shell norm must be even and non-negative")
    if two_n == 0:
        return [(DominantWeight(ZERO), 1)]
    limit = element_budget(budget)
    # even class: d = 2y with sum(y) even and |y|^2 = 2n
    even = _join_halves(_int_tuples4(two_n, odd=False), two_n, limit)
    even = 2 * even[even.sum(axis=1) % 2 == 0]
    # odd class: all d_i odd, sum d = 0 mod 4, |d|^2 = 8n
    odd = _join_halves(_int_tuples4(4 * two_n, odd=True), 4 * two_n, limit)
    odd = odd[odd.sum(axis=1) % 4 == 0]
    points = np.concatenate([even, odd])
    reduced = _batch_reduce(points)
    keys, counts = np.unique(_pack(reduced), return_counts=True)
    out = [
        (DominantWeight(E8Vector(r)), int(c)) for r, c in zip(_unpack(keys), counts)
    ]
    out.sort(key=lambda pair: pair[0])
    return out


def check_quasi_periodicity_by_orbit_scan(a, samples: int = 100, seed: int = 0) -> int:
    """Verify f(n, l) = f(n', l + t·v) with n' = n + (l,v) + t(v,v)/2 on
    randomly sampled stored coefficients and shifts v = w·(root), w = 1, 2.

    The shift is sampled first and the whole orbit of a sampled support
    weight is then scanned for elements l whose image row lands in range;
    one of those is picked at random, and both sides are looked up through
    dominant reduction. Returns the number of identity checks performed;
    raises AssertionError on a mismatch.
    """
    t = a.index
    if t == 0:
        raise ValueError("quasi-periodicity concerns index >= 1")
    rng = np.random.default_rng(seed)
    pool = [(n, m) for n in range(a.order + 1) for m in a.terms[n].terms]
    if not pool:
        return 0
    roots = orbit_array(DominantWeight(HIGHEST_ROOT))
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 500 * samples:
            raise RuntimeError("could not find enough checkable triples")
        n, m = pool[rng.integers(len(pool))]
        arr = orbit_array(m)
        r = roots[rng.integers(len(roots))]
        w = int(rng.integers(1, 3))
        # n' = n + w·(l, r) + t·w² across the whole orbit at once
        n2_all = n + w * ((arr @ r) // 4) + t * w * w
        ok = np.flatnonzero(n2_all <= a.order)
        if not len(ok):
            continue
        pick = int(ok[rng.integers(len(ok))])
        l = E8Vector(tuple(int(x) for x in arr[pick]))
        v = E8Vector(tuple(w * int(x) for x in r))
        n2 = int(n2_all[pick])
        if n2 < 0:
            raise AssertionError("support bound forbids negative image rows")
        lhs = a.coefficient(n, l)
        rhs = a.coefficient(n2, l + t * v)
        if lhs != rhs:
            raise AssertionError(
                f"quasi-periodicity broken: f({n},{l.d}) = {lhs} but "
                f"f({n2}, shifted) = {rhs}"
            )
        done += 1
    return done


def lincomb_by_fold(pairs) -> InvariantElement:
    """The sum of c·x over (c, x) pairs by repeated immutable addition: every
    summand is scaled into a fresh element and added into a fresh dict, and
    every step goes through the coercing constructor."""
    acc = InvariantElement.zero()
    for c, x in pairs:
        c = Fraction(c)
        scaled = InvariantElement({m: c * v for m, v in x.terms.items()})
        out = dict(acc.terms)
        for m, v in scaled.terms.items():
            out[m] = out.get(m, Fraction(0)) + v
        acc = InvariantElement(out)
    return acc
