"""Acceptance battery: one numbered pass/fail test per headline check.

Every expected value is pinned literally in this file — nothing is shared
with the CLI verification suites — so each test stands (and fails) on its
own.  Every test runs in seconds; test_12 (the orbit-product oracle sweep)
checks 45 pairs against the membership oracle in under a second.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import e8jac

from e8jac import (
    REGISTRY,
    SIGMA_LABELS,
    DominantWeight,
    InvariantElement,
    build,
    check_quasi_periodicity,
    classify,
    coset_min_norm,
    delta,
    dimension_bound_table,
    eisenstein,
    holomorphic_subspace,
    inv_mul,
    jf_mul,
    jf_scale,
    label_weight,
    max_coset_min_norm,
    orbit_size,
    pullback_max_table,
    rank_series,
    shell,
    solve_cascade,
    theta_e8,
    verify_free_module,
    weight0_identity,
)
from oracles import inv_mul_by_membership

F = Fraction


def test_01_rank_table():
    assert rank_series(14)[1:] == [
        1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270, 364, 505,
    ]


def test_02_shell_orbit_decomposition():
    expected_reps = {
        2: [(0, 0, 0, 0, 0, 0, 0, 1)],
        4: [(1, 0, 0, 0, 0, 0, 0, 0)],
        6: [(0, 0, 0, 0, 0, 0, 1, 0)],
        8: [(0, 0, 0, 0, 0, 0, 0, 2), (0, 1, 0, 0, 0, 0, 0, 0)],
        10: [(1, 0, 0, 0, 0, 0, 0, 1)],
        12: [(0, 0, 0, 0, 0, 1, 0, 0)],
        14: [(0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 1)],
        16: [(2, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 1)],
        18: [(1, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 3)],
        20: [(0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 2)],
        22: [(0, 0, 0, 0, 0, 1, 0, 1), (1, 1, 0, 0, 0, 0, 0, 0)],
        24: [(0, 0, 0, 0, 0, 0, 2, 0), (0, 0, 1, 0, 0, 0, 0, 1)],
    }
    for two_n, reps in expected_reps.items():
        got = shell(two_n)
        assert sorted(m.fw for m, _ in got) == sorted(reps), f"shell {two_n}"


def test_03_shell_sizes_divisor_sum():
    # independent oracle: |R_2n| = 240 * sum of d^3 over divisors d of n
    for n in range(1, 13):
        sigma3 = sum(d**3 for d in range(1, n + 1) if n % d == 0)
        assert sum(s for _, s in shell(2 * n)) == 240 * sigma3


def test_04_coset_minima_maxima():
    assert [max_coset_min_norm(t) for t in range(2, 7)] == [4, 8, 16, 22, 36]


_INDEX2 = [
    ("phi_-4_2", 0, {"Σ_2": 2, "Σ_4": -1, None: -240}),
    ("phi_-2_2", 0, {"Σ_2": 1, "Σ_4": 1, None: -480}),
    ("phi_0_2", 0, {"Σ_2": 1, None: 120}),
    ("a2", 0, {None: 1}),
    ("a2", 1, {"Σ_4": 1}),
    ("b2", 0, {None: 1}),
    ("b2", 1, {"Σ_2": F(-8, 5), "Σ_4": F(-3, 5), None: 24}),
    ("b2", 2, {"Σ_{8''}": 1, "Σ_{8'}": F(-24, 5), "Σ_6": F(-224, 5),
               "Σ_4": F(-72, 5), "Σ_2": F(-32, 5), None: 24}),
]


def test_05_index2_displays():
    for name, n, want in _INDEX2:
        got = build(name).term(n).display_map()
        assert got == want, f"{name} q^{n}"


def test_06_theta_squared_relation():
    # θ² = (1/1080)·E4·(3·E4·φ0 − E4²·φ−4 − E6·φ−2) + Δ·φ−4, through q^10
    N = 10
    th = theta_e8(N)
    p4, p2, p0 = (build(x, N) for x in ("phi_-4_2", "phi_-2_2", "phi_0_2"))
    e4, e6 = eisenstein(4, N), eisenstein(6, N)
    inner = (
        jf_scale(p0, e4).scale(3)
        - jf_scale(p4, e4 * e4)
        - jf_scale(p2, e6)
    )
    rhs = jf_scale(inner, e4).scale(F(1, 1080)) + jf_scale(p4, delta(N))
    assert jf_mul(th, th) == rhs


def test_07_cascade_nullspaces():
    cases = [
        ((3, -8, (0, 2, 4, 6, 8)), ((1, -4, 6, -4, 1),)),
        ((4, -16, tuple(range(0, 18, 2))),
         ((1, -8, 28, -56, 70, -56, 28, -8, 1),)),
        ((3, -10, (0, 2, 4, 6, 8)), ()),
        ((3, -6, (0, 2, 4, 6)), ()),
        ((4, -18, tuple(range(0, 18, 2))), ()),
        ((4, -14, tuple(range(0, 16, 2))), ()),
    ]
    for (t, w0, norms), want in cases:
        assert solve_cascade(t, w0, norms).nullspace == want, (t, w0)


_INDEX3 = [
    ("phi_-8_3", 0, {"Σ_{8'}": 1, "Σ_6": -4, "Σ_4": 6, "Σ_2": -4, None: 240}),
    ("phi_-6_3", 0, {"Σ_{8'}": 1, "Σ_4": -6, "Σ_2": 8, None: -720}),
    ("phi_-4_3", 0, {"Σ_2": 1, "Σ_4": 1, "Σ_6": -1, None: -240}),
    ("phi_-2_3", 0, {"Σ_2": 1, "Σ_6": 1, None: -480}),
    ("phi_0_3", 0, {"Σ_2": 1}),
    ("a3", 1, {"Σ_6": 1}),
    ("b3", 1, {"Σ_6": F(-7, 20), "Σ_4": F(-27, 20), "Σ_2": F(-9, 20),
               None: 12}),
    ("u10_3", 1, {"Σ_4": 1, "Σ_2": F(-2, 3), None: -80}),
    ("u12_3", 1, {"Σ_4": 1, "Σ_2": -2, None: 240}),
    ("v12_3", 1, {"Σ_2": 1}),
    ("u14_3", 1, {"Σ_4": 1, "Σ_2": 2, None: -720}),
]


def test_08_index3_displays():
    for name, n, want in _INDEX3:
        got = build(name).term(n).display_map()
        assert got == want, f"{name} q^{n}"
    # the weight-6 holomorphic space at index 3 is one-dimensional: B_3
    sols = holomorphic_subspace(6, 3, 2)
    assert sols == [build("b3", 2)]


_INDEX4 = [
    ("phi_-16_4", 0, {"Σ_{16'}": 1, "Σ_{14'}": -8, "Σ_{12}": 28,
                      "Σ_{10}": -56, "Σ_{8''}": 14, "Σ_{8'}": 56,
                      "Σ_6": -56, "Σ_4": 28, "Σ_2": -8, None: 240}),
    ("phi_-14_4", 0, {"Σ_{16'}": 1, "Σ_{14'}": -2, "Σ_{12}": -14,
                      "Σ_{10}": 70, "Σ_{8''}": -28, "Σ_{8'}": -112,
                      "Σ_6": 154, "Σ_4": -98, "Σ_2": 34, None: -1200}),
    ("phi_-12_4", 0, {"Σ_{14'}": 1, "Σ_{12}": -4, "Σ_{10}": 3,
                      "Σ_{8''}": 2, "Σ_{8'}": 8, "Σ_6": -25, "Σ_4": 24,
                      "Σ_2": -11, None: 480}),
    ("phi_-10_4", 0, {"Σ_{12}": 1, "Σ_{10}": -4, "Σ_{8''}": 1, "Σ_{8'}": 4,
                      "Σ_4": -5, "Σ_2": 4, None: -240}),
    ("phi_-8_4", 0, {"Σ_{10}": 1, "Σ_{8''}": F(-7, 10), "Σ_{8'}": F(-14, 5),
                     "Σ_6": 4, "Σ_4": -1, "Σ_2": -1, None: 120}),
    ("phi_-6_4", 0, {"Σ_{8''}": 1, "Σ_{8'}": 4, "Σ_6": -14, "Σ_4": 12,
                     "Σ_2": -2, None: -240}),
    ("phi_-4_4", 0, {"Σ_6": 1, "Σ_4": -2, "Σ_2": 1}),
    ("phi_-2_4", 0, {"Σ_4": -7, "Σ_2": 8, None: -240}),
    ("phi_0_4", 0, {"Σ_2": 2, None: -120}),
    ("psi_-8_4", 0, {"Σ_{8'}": 1, "Σ_{8''}": -1}),
    ("a4", 1, {"Σ_{8''}": 1}),
    ("b4", 1, {"Σ_{8''}": F(1, 15), "Σ_6": F(-28, 15), "Σ_2": F(-4, 15),
               None: -8}),
]


def test_09_index4_displays():
    # the phi ladder descends from the theta-quotient seed by repeated heat
    # application; its displays pin the whole cascade
    for name, n, want in _INDEX4:
        got = build(name).term(n).display_map()
        assert got == want, f"{name} q^{n}"
    m16 = DominantWeight.from_fw((2, 0, 0, 0, 0, 0, 0, 0))
    for name in ("u10_4", "u12_4", "cusp_8_4", "cusp_10_4", "cusp_12_4"):
        assert build(name).term(2).coeff(m16) == 0, name


def test_10_structure():
    for t, want in ((1, 1), (2, 1), (3, 1), (4, 2)):
        assert len(holomorphic_subspace(4, t, 2)) == want, t
    for t, gens in ((1, 1), (2, 3), (3, 5), (4, 10)):
        rep = verify_free_module(t, 16)
        assert rep.generator_count == gens, t
        assert rep.ok, [r for r in rep.rows if not r[3]]


# forms with fewer than 100 checkable quasi-periodicity triples, and how many
_FEWER_THAN_100_TRIPLES = {
    "a4": 15, "b4": 28, "c8_4": 47, "cusp_8_4": 15, "cusp_10_4": 12,
    "cusp_12_4": 12, "u10_4": 16, "u12_4": 16, "x4": 31,
}


def test_11_form_properties():
    for name, entry in sorted(REGISTRY.items()):
        if not entry.buildable:
            continue
        f = build(name)
        assert classify(f).kind == entry.expected_class, name
        checks = _FEWER_THAN_100_TRIPLES.get(name, 100)
        assert check_quasi_periodicity(f, samples=100, seed=0) == checks, name
        # support bound: 2nt - (l,l) >= -min norm of the coset l + t·E8
        for n in range(f.order + 1):
            for m in f.term(n).terms:
                slack = 2 * n * f.index - m.norm()
                assert slack >= -coset_min_norm(m, f.index), (name, n)
        ok, bad = f.term(0).t_support_check(f.index)
        assert ok, (name, bad)
        if f.weight == 0:
            assert weight0_identity(f), name


def test_12_product_oracle_sweep():
    checked = 0
    for l1, l2 in combinations_with_replacement(SIGMA_LABELS, 2):
        m1, m2 = label_weight(l1), label_weight(l2)
        if orbit_size(m1) * orbit_size(m2) > 10**7:
            continue
        fast = inv_mul(
            InvariantElement.orbit_sum(m1), InvariantElement.orbit_sum(m2)
        )
        assert fast.terms == inv_mul_by_membership(m1, m2), (l1, l2)
        checked += 1
    assert checked == 45


def test_13_pullback_max_table():
    want = [2, 4, 4, 5, 4, 6, 6, 7, 6, 8, 7, 8, 6,
            8, 8, 9, 8, 8, 9, 10, 9, 10, 10, 11, 10, 12]
    assert pullback_max_table() == list(zip(SIGMA_LABELS, want))
    assert len(want) == 26


def test_14_dimension_bounds():
    rows = dimension_bound_table(40)
    assert [b for _, b, _ in rows] == [
        1, 0, 1, 1, 2, 1, 3, 2, 4, 4, 6, 5, 9, 8, 12, 13, 17, 17, 24,
    ]
    assert rows[0] == (4, 1, "")
    assert rows[1] == (
        6, 0, "forced to zero: no invariant form of weight 6, index 1"
    )


_PROPERTIES_UNDER_OPTIMIZE = """
import numpy as np
from e8jac import (HIGHEST_ROOT, REGISTRY, DominantWeight, build,
                   check_quasi_periodicity, classify, coset_min_norm,
                   orbit, weight0_identity)
roots = np.array([r.d for r in orbit(DominantWeight(HIGHEST_ROOT))])
forms = checks = 0
for name, entry in sorted(REGISTRY.items()):
    if not entry.buildable:
        continue
    f = build(name)
    t = f.index
    if classify(f).kind != entry.expected_class:
        print("classify", name)
    k = 0
    for n in range(f.order + 1):
        for m in f.term(n).terms:
            if 2 * n * t - m.norm() < -coset_min_norm(m, t):
                print("support bound", name, n)
            dots = roots @ np.array(m.d) // 4
            k += sum(int((n + w * dots + t * w * w <= f.order).sum())
                     for w in (1, 2))
    try:
        checks += check_quasi_periodicity(f, samples=k)
    except AssertionError as exc:
        print("quasi-periodicity", name, exc)
    if not f.term(0).t_support_check(t)[0]:
        print("T(m) support", name)
    if f.weight == 0 and not weight0_identity(f):
        print("weight-0 identity", name)
    forms += 1
print(forms, "forms,", checks, "checks")
"""


def test_15_form_properties_under_optimize():
    # the same properties as test_11, with every checkable quasi-periodicity
    # triple, under python -O: the library must not lean on assert
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PROPERTIES_UNDER_OPTIMIZE],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "46 forms, 37348 checks"
