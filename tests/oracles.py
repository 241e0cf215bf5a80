"""Slow reference routes kept as test oracles for the library's fast paths.

Each function here is an independent way to compute what a library
function computes, and is used only by the tests:

* ``inv_mul_brute`` for ``invring.inv_mul`` (orbit-pair products);
* ``orbit_pair_product_by_full_orbit`` for ``invring._orbit_pair_product``;
* ``orbit_array_by_seen_set`` for ``e8.orbit_array`` (compared on keys),
  and its breadth-first levels ``orbit_levels_by_seen_set``, whose count
  is the orbit's depth;
* ``sign_bits_by_bytes`` for ``e8._high_bytes`` and ``e8._zero_bits``
  (``np.packbits`` over byte comparisons, where the library works on whole
  words);
* ``_batch_reduce_by_reflection`` for ``e8._batch_reduce``;
* ``weight_coordinates_by_pairings`` for ``e8.DominantWeight._from_rows``
  (the fw coordinates of one row by eight scalar pairings);
* ``parabolic_order_by_diagram`` for ``e8._parabolic_order`` (stabilizer
  orders by classifying the Coxeter subdiagram);
* ``shell_by_enumeration`` for ``e8.shell``;
* ``check_quasi_periodicity_by_orbit_scan`` for
  ``jacobi.check_quasi_periodicity``;
* ``lincomb_by_fold`` for ``invring.lincomb``;
* ``delta_by_eta_product`` for ``qseries.delta`` (η²⁴ from the pentagonal
  series, where the library uses (E4³ − E6²)/1728);
* ``max_pairing_by_orbit`` for ``e8.max_pairing`` (the maximum over every
  closed shell orbit, not only the representatives);
* ``_theta_pair_block`` for the seed of ``catalog.build_phi16_4`` (one
  factor pair theta(u+v)^2 theta(u-v)^2 by four nested loops over the
  theta exponents; the dict-fold oracle of ``tests/test_catalog.py``
  builds on it);
* ``phi16_4_by_raw_rows`` for ``catalog.build_phi16_4`` (folds the seed
  table with every two- and four-factor term keyed by its raw exponent
  row, and bins only the eight-factor products by W(D8)-canonical row);
* ``rank_series_by_convolution`` for ``catalog.rank_series`` (expands the
  denominator and divides by convolving with all of it);
* ``inv_mul_by_membership`` for ``invring.inv_mul`` on two orbit sums
  (counts, for each candidate dominant m, the a in orb(m1) with m - a in
  orb(m2), with no dominant reduction);
* ``rank_by_bareiss`` for ``linalg.rank`` (forward elimination by
  Bareiss's rule, dividing each update exactly by the previous pivot, where
  the library divides each combined row by its gcd);
* ``free_module_report_by_forms`` for ``catalog.verify_free_module`` (builds
  every candidate form E4^a·E6^b·g with ``jf_scale`` and ranks its Fraction
  coefficients on the sorted (q-power, orbit) columns with
  ``rank_by_bareiss``);
* ``holomorphic_subspace_by_forms`` for ``catalog.holomorphic_subspace``
  (builds the same candidate forms, ``_weight_candidates``, reads the
  holomorphy constraints off their Fraction coefficients and sums each
  solution with ``jf_lincomb``).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm

import numpy as np

from e8jac.e8 import (
    _A2,
    _W2,
    HIGHEST_ROOT,
    SIMPLE_ROOTS,
    WEYL_ORDER,
    ZERO,
    BudgetError,
    DominantWeight,
    E8Vector,
    _batch_reduce,
    _dn_canonical,
    _key_fw,
    _key_weight,
    _pack,
    _sum_by_key,
    _unpack,
    alcove,
    element_budget,
    orbit_array,
    orbit_size,
    pairing,
    shell,
)
from e8jac.catalog import (
    ModuleReport,
    _WEAK_GEN_NAMES,
    _fold,
    _hol_rules,
    _mf,
    _monomials,
    _normalize_solution,
    _theta_square,
    build,
    default_order,
)
from e8jac.invring import InvariantElement, _element
from e8jac.jacobi import JacobiQExpansion, jf_div_modular, jf_lincomb, jf_scale
from e8jac.linalg import _primitive, nullspace
from e8jac.qseries import ModularQSeries, dim_modular


def orbit_rows(m: DominantWeight) -> np.ndarray:
    """The orbit of m as lex-sorted (size, 8) int64 rows: the weight keys of
    e8.orbit_array as coordinates, sorted by their packed keys."""
    return _unpack(np.sort(_pack(_key_fw(orbit_array(m)) @ _W2)))


def _root_bits(mask: np.ndarray) -> np.ndarray:
    """Bit i of row r set where mask[r, i]: an (n, 8) bool array as n uint8s."""
    return np.packbits(mask, axis=1, bitorder="little").ravel()


def sign_bits_by_bytes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neg and zero simple-root masks of every weight key in w, from an
    (n, 8) table of byte comparisons each."""
    fwb = w.view(np.uint8).reshape(-1, 8)
    return _root_bits(fwb < 128), _root_bits(fwb == 128)


def orbit_levels_by_seen_set(m: DominantWeight) -> list[np.ndarray]:
    """The orbit of m as its breadth-first levels under all 8 simple
    reflections: level k holds the sorted packed keys at k reflections from
    m and no fewer, found against a seen set of sorted packed keys. Every
    level searches and inserts into the whole seen set. Not cached."""
    frontier = np.array([m.d], dtype=np.int64)
    seen = _pack(frontier)
    levels = [seen]
    while frontier.size:
        p4 = frontier @ _A2.T
        images = [frontier - (p4[:, i : i + 1] // 4) * _A2[i] for i in range(8)]
        cand = np.unique(_pack(np.concatenate(images)))
        pos = np.searchsorted(seen, cand)
        fresh = cand[seen[np.minimum(pos, len(seen) - 1)] != cand]
        if not fresh.size:
            break
        seen = np.insert(seen, np.searchsorted(seen, fresh), fresh)
        levels.append(fresh)
        frontier = _unpack(fresh)
    if len(seen) != orbit_size(m):
        raise AssertionError("orbit closure disagrees with stabilizer order")
    return levels


def orbit_array_by_seen_set(m: DominantWeight) -> np.ndarray:
    """The orbit of m as a lex-sorted (size, 8) int64 array: the levels of
    orbit_levels_by_seen_set, merged."""
    return _unpack(np.sort(np.concatenate(orbit_levels_by_seen_set(m))))


def orbit_pair_product_by_full_orbit(
    m1: DominantWeight, m2: DominantWeight
) -> InvariantElement:
    """orb(m1)·orb(m2) by dominant-reducing a + m2 for every a in the
    smaller orbit and rescaling the counts by orbit sizes. Not cached."""
    if orbit_size(m1) > orbit_size(m2):
        m1, m2 = m2, m1
    if m2 == ZERO:
        return InvariantElement.orbit_sum(m1)
    shifted = orbit_rows(m1) + np.array(m2.d, dtype=np.int64)
    keys, counts = np.unique(_pack(_batch_reduce(shifted)), return_counts=True)
    terms = {}
    for rep, u in zip(_unpack(keys), counts):
        m = DominantWeight(E8Vector(rep))
        terms[m] = Fraction(int(u) * orbit_size(m2), orbit_size(m))
    return InvariantElement(terms)


def inv_mul_brute(m1: DominantWeight, m2: DominantWeight) -> dict[DominantWeight, Fraction]:
    """Reference double-loop decomposition of orb(m1)·orb(m2): enumerate both
    orbits, bin every sum a+b by its dominant representative, divide by orbit
    sizes. Quadratic.

    The binning runs on packed row keys; work is chunked to bound memory.
    """
    a = orbit_rows(m1)
    b = orbit_rows(m2)
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
    roots = orbit_rows(DominantWeight(HIGHEST_ROOT))
    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 500 * samples:
            raise RuntimeError("could not find enough checkable triples")
        n, m = pool[rng.integers(len(pool))]
        arr = orbit_rows(m)
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


def delta_by_eta_product(order: int) -> ModularQSeries:
    """Δ = q·P(q)^24 with η = q^{1/24}·P(q) and P = sum over k in Z of
    (-1)^k q^{k(3k-1)/2}, Euler's pentagonal series; P is needed through
    q^{order-1}."""
    if order == 0:
        return ModularQSeries(12, [Fraction(0)])
    n = order - 1
    p = [Fraction(0)] * (n + 1)
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= n:
                p[e] += (-1) ** (kk % 2)
                hit = True
        if not hit:
            break
        k += 1
    p24 = ModularQSeries(0, p) ** 24
    return ModularQSeries(12, [Fraction(0)] + p24.coeffs)


def max_pairing_by_orbit(m: DominantWeight, two_n: int) -> int:
    """max of (m, l) over the norm-2n shell, scanning every closed orbit."""
    if two_n == 0:
        return 0
    md = np.array(m.d, dtype=np.int64)
    return max(int((orbit_rows(rep) @ md).max()) // 4 for rep, _ in shell(two_n))


def _theta_pair_block(max_t2: int) -> dict[tuple[int, tuple[int, int]], int]:
    """theta(u+v)^2 theta(u-v)^2 as {(doubled q-exponent, (e_u, e_v)): value},
    the terms of doubled q-exponent at most max_t2.

    With theta(w)^2 = -sum_A (-1)^A S_A(q) xi^A and S_A the sum over
    delta = A+1 mod 2 of q^((A^2+delta^2)/4), the pair block is
    sum_{A,B} (-1)^(A+B) S_A S_B zeta_u^(A+B) zeta_v^(A-B).
    """
    out: dict[tuple[int, tuple[int, int]], int] = {}
    r = isqrt(2 * max_t2)
    for A in range(-r, r + 1):
        for B in range(-r, r + 1):
            base = A * A + B * B
            if base > 2 * max_t2:
                continue
            sign = -1 if (A + B) & 1 else 1
            eu, ev = A + B, A - B
            for dd in range(-r - 1, r + 2):
                if (dd & 1) == (A & 1):
                    continue
                base2 = base + dd * dd
                if base2 > 2 * max_t2:
                    continue
                for ee in range(-r - 1, r + 2):
                    if (ee & 1) == (B & 1):
                        continue
                    ss = base2 + ee * ee
                    if ss > 2 * max_t2:
                        continue
                    key = (ss // 2, (eu, ev))
                    out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


# The raw exponent row (A_1, ..., A_8) of eight seed factors as the doubled
# E8 row 2(A_1+A_2, A_1-A_2, A_3+A_4, ...).
_RAW_FRAME = np.kron(np.eye(4, dtype=np.int64), np.array([[2, 2], [2, -2]]))


def _concat(width: int):
    """Product keys as the factors' keys concatenated, first factor high,
    width bits each."""
    return lambda k1, k2: ((k1[:, None] << width) | k2).ravel()


def _d8_canonical(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Product keys of two four-factor raw rows: the packed W(D8)-canonical
    E8 row of the eight factors' exponents."""
    return _pack(_dn_canonical(_unpack(_concat(32)(k1, k2)) @ _RAW_FRAME))


def phi16_4_by_raw_rows(order: int) -> JacobiQExpansion:
    """phi_-16_4 with the two- and four-factor tables keyed by raw exponent
    rows (a byte per A) and only the eight-factor products binned by
    W(D8)-canonical row. Charges the element budget as the library does."""
    n_num = order + 2
    seed = {e: ((_unpack(k)[:, 7] + 128).astype(np.uint64), v)
            for e, (k, v) in _theta_square(4 * n_num - 7).items()}
    two, spent = _fold(seed, range(4 * n_num - 5), _concat(8), 0)
    four, spent = _fold(two, range(4 * n_num - 3), _concat(16), spent)
    eight, _ = _fold(four, range(0, 4 * n_num + 1, 4), _d8_canonical, spent)
    terms = []
    for keys, vals in eight.values():
        keys, vals = _sum_by_key(_pack(_batch_reduce(_unpack(keys))), vals)
        keys = keys.tolist()
        sizes = [orbit_size(_key_weight(k)) for k in keys]
        den = lcm(*sizes)
        terms.append(_element(
            {k: v * (den // size) for k, v, size in zip(keys, vals.tolist(), sizes)},
            den,
        ))
    quot = jf_div_modular(JacobiQExpansion(8, 4, terms), _mf(0, 0, 2, n_num))
    return quot.scale(1 / quot.term(0).display_map()["Σ_{16'}"])


def rank_series_by_convolution(t_max: int) -> list[int]:
    """Coefficients 0..t_max of 1/((1-x)(1-x²)²(1-x³)²(1-x⁴)²(1-x⁵)(1-x⁶)):
    expand the denominator to degree t_max, then solve den·out = 1 term by
    term against the whole expansion. Quadratic in t_max."""
    den = [0] * (t_max + 1)
    den[0] = 1
    for d, mult in ((1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1)):
        for _ in range(mult):
            for i in range(t_max, d - 1, -1):
                den[i] -= den[i - d]
    out = [0] * (t_max + 1)
    out[0] = 1
    for n in range(1, t_max + 1):
        out[n] = -sum(den[j] * out[n - j] for j in range(1, n + 1))
    return out


def inv_mul_by_membership(
    m1: DominantWeight, m2: DominantWeight
) -> dict[DominantWeight, Fraction]:
    """orb(m1)·orb(m2) in orbit sums: the coefficient of orb(m) is the number
    of a in orb(m1) with m - a in orb(m2), for the dominant m itself.

    Every dominant m = reduce(a + b) has (m, θ) <= (m1, θ) + (m2, θ) and
    |m| <= |m1| + |m2|, so the candidates are the alcove points under both
    bounds. Each membership test is a searchsorted into the packed keys of
    the lex-sorted rows of orb(m2).
    """
    if orbit_size(m1) > orbit_size(m2):
        m1, m2 = m2, m1
    a = orbit_rows(m1)
    keys2 = _pack(orbit_rows(m2))
    n1, n2 = (sum(x * x for x in m.d) for m in (m1, m2))  # 4|m|^2
    out = {}
    for md in alcove(pairing(m1, HIGHEST_ROOT) + pairing(m2, HIGHEST_ROOT)):
        slack = int(md @ md) - n1 - n2  # |m| <= |m1| + |m2| in integers
        if slack > 0 and slack * slack > 4 * n1 * n2:
            continue
        cand = _pack(md - a)
        pos = np.minimum(np.searchsorted(keys2, cand), len(keys2) - 1)
        count = int((keys2[pos] == cand).sum())
        if count:
            out[DominantWeight(E8Vector(md))] = Fraction(count)
    return out


def rank_by_bareiss(rows) -> int:
    """The rank of a rational matrix, by forward fraction-free elimination
    (Bareiss, Math. Comp. 1968).

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


def free_module_report_by_forms(
    t: int, max_weight: int, order: int | None = None
) -> ModuleReport:
    """verify_free_module by candidate forms: for each weight, every modular
    multiple of a weak generator is built as a form, and the rank is taken
    on its Fraction coefficients over the sorted (n, orbit) columns that
    some candidate reaches. A deficiency names the first nullspace vector of
    the transposed matrix."""
    if order is None:
        order = default_order(t)
    gens = [build(g, order) for g in _WEAK_GEN_NAMES[t]]
    report = ModuleReport(t, len(gens))
    for w in range(min(g.weight for g in gens), max_weight + 1, 2):
        cands = _weight_candidates(w, t, order)
        expected = sum(dim_modular(w - g.weight) for g in gens)
        assert len(cands) == expected
        if not cands:
            report.rows.append((w, 0, 0, True, ""))
            continue
        cols = sorted(
            {(n, mm) for c in cands for n in range(order + 1) for mm in c.term(n).terms}
        )
        matrix = [[c.term(n).coeff(mm) for (n, mm) in cols] for c in cands]
        rk = rank_by_bareiss(matrix)
        ok = rk == expected
        detail = ""
        if not ok:
            combo = nullspace([list(r) for r in zip(*matrix)], len(cands))
            detail = f"vanishing combination: {combo[0] if combo else '?'}"
        report.rows.append((w, expected, rk, ok, detail))
    return report


def _weight_candidates(weight: int, t: int, order: int) -> list[JacobiQExpansion]:
    """Every modular multiple E4^a·E6^b·g of a weak generator of index t at
    the given weight, built as a form with jf_scale: generators outermost,
    in registry order."""
    cands = []
    for gname in _WEAK_GEN_NAMES[t]:
        g = build(gname, order)
        for a4, a6 in _monomials(weight - g.weight):
            cands.append(jf_scale(g, _mf(a4, a6, 0, order)))
    return cands


def holomorphic_subspace_by_forms(
    weight: int, t: int, order: int
) -> list[JacobiQExpansion]:
    """holomorphic_subspace by candidate forms: one constraint row of
    Fraction coefficients per orbit of norm above 2nt that some candidate
    carries at q^n, and each nullspace vector x summed as Σ xᵢ·candidateᵢ
    by jf_lincomb, then normalized. Takes valid arguments only."""
    cands = _weight_candidates(weight, t, order)
    if not cands:
        return []
    matrix = []
    for n, bound in _hol_rules(t):
        pts = {k for c in cands for k in c.term(n).num
               if _key_weight(k).norm() > bound}
        matrix.extend([c.term(n).coeff(_key_weight(k)) for c in cands]
                      for k in sorted(pts))
    return [
        _normalize_solution(jf_lincomb([(x, c) for x, c in zip(vec, cands) if x]))
        for vec in nullspace(matrix, len(cands))
    ]
