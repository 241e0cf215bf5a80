"""e8: lattice model, orbits, shells, coset decoding."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import e8jac
from e8jac.catalog import rank_series
from e8jac.e8 import (
    BUDGET_ENV,
    FUNDAMENTAL_WEIGHTS,
    HIGHEST_ROOT,
    SIMPLE_ROOTS,
    WEYL_ORDER,
    ZERO,
    BudgetError,
    DominantWeight,
    E8Vector,
    _A2,
    _POSITIVE_ROOTS,
    _ROOT_ROWS,
    _decode_scaled,
    _dn_canonical,
    _pack,
    _parabolic_order,
    _unpack,
    alcove,
    coset_min_norm,
    dominant_reduce,
    element_budget,
    max_coset_min_norm,
    max_pairing,
    orbit,
    orbit_array,
    orbit_size,
    pairing,
    shell,
)
from e8jac.qseries import sigma_pow
from e8jac.invring import SIGMA_LABELS, label_weight
from oracles import (
    max_pairing_by_orbit,
    orbit_array_by_seen_set,
    orbit_rows,
    parabolic_order_by_diagram,
    shell_by_enumeration,
    weight_coordinates_by_pairings,
)

rng = np.random.default_rng(20240817)


def fw(*coords):
    return DominantWeight.from_fw(coords)


# ---------------------------------------------------------------------------
# model constants


def test_roots_have_norm_two():
    for r in SIMPLE_ROOTS:
        assert r.norm() == 2


def test_weights_dual_to_roots():
    for i, r in enumerate(SIMPLE_ROOTS):
        for j, w in enumerate(FUNDAMENTAL_WEIGHTS):
            assert pairing(r, w) == (1 if i == j else 0)


def test_weight_norms():
    assert [w.norm() for w in FUNDAMENTAL_WEIGHTS] == [4, 8, 14, 30, 20, 12, 6, 2]


def test_highest_root_is_last_weight():
    assert HIGHEST_ROOT == FUNDAMENTAL_WEIGHTS[7]
    assert HIGHEST_ROOT.norm() == 2
    # marks of the affine diagram
    marks = [2, 3, 4, 6, 5, 4, 3, 2]
    combo = ZERO
    for c, r in zip(marks, SIMPLE_ROOTS):
        combo = combo + c * r
    assert combo == HIGHEST_ROOT


def test_t_statistic():
    assert fw(0, 0, 0, 0, 0, 0, 0, 1).t_statistic() == 2
    assert fw(1, 0, 0, 0, 0, 0, 0, 0).t_statistic() == 2
    assert fw(0, 0, 0, 1, 0, 0, 0, 0).t_statistic() == 6


def test_vector_validation():
    with pytest.raises(ValueError):
        E8Vector((1, 0, 0, 0, 0, 0, 0, 0))  # mixed parity
    with pytest.raises(ValueError):
        E8Vector((2, 0, 0, 0, 0, 0, 0, 0))  # sum not 0 mod 4
    with pytest.raises(ValueError):
        E8Vector((1, 1, 1))  # wrong length
    assert E8Vector((1,) * 8).norm() == 2


def test_dominant_weight_rejects_non_dominant():
    with pytest.raises(ValueError, match="not dominant"):
        DominantWeight(-HIGHEST_ROOT)
    with pytest.raises(ValueError, match="not dominant"):
        DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, -1))
    with pytest.raises(ValueError, match="8 fw coordinates"):
        DominantWeight.from_fw((1, 0, 0))


# ---------------------------------------------------------------------------
# reduction and orbits


def random_lattice_vector(scale=3):
    while True:
        y = rng.integers(-scale, scale + 1, size=8)
        if rng.integers(2):
            d = 2 * y
        else:
            d = 2 * y + 1
        if d.sum() % 4 == 0:
            return E8Vector(tuple(int(x) for x in d))


def test_reduce_fixes_dominant():
    for coords in [(0,) * 8, (1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 2, 0)]:
        m = fw(*coords)
        assert dominant_reduce(m) == m


def test_reduce_preserves_norm_and_lands_dominant():
    for _ in range(300):
        v = random_lattice_vector()
        m = dominant_reduce(v)
        assert m.norm() == v.norm()
        assert all(c >= 0 for c in m.fw)


def test_reduce_constant_on_orbit():
    m = fw(1, 0, 0, 0, 0, 0, 0, 1)
    arr = orbit_rows(m)
    for row in arr[rng.integers(len(arr), size=50)]:
        assert dominant_reduce(E8Vector(tuple(int(x) for x in row))) == m


def test_batch_reduce_matches_reference():
    from e8jac.e8 import _batch_reduce
    from oracles import _batch_reduce_by_reflection

    roots = orbit_rows(fw(0, 0, 0, 0, 0, 0, 0, 1))
    for k in (1, 2, 4, 6):
        picks = roots[rng.integers(len(roots), size=(20000, k))].sum(axis=1)
        assert (_batch_reduce(picks) == _batch_reduce_by_reflection(picks)).all()
    singles = np.array(
        [random_lattice_vector(4).d for _ in range(500)], dtype=np.int64
    )
    ref = _batch_reduce_by_reflection(singles)
    assert (_batch_reduce(singles) == ref).all()
    for v, row in zip(singles, ref):
        assert dominant_reduce(E8Vector(tuple(int(x) for x in v))).d == tuple(
            int(x) for x in row
        )


def test_batch_constructor_matches_per_row():
    rows = alcove(6)
    batch = DominantWeight._from_rows(rows)
    assert len(batch) == len(rows)
    for m, row in zip(batch, rows):
        assert m.d == tuple(row.tolist())
        assert m.fw == weight_coordinates_by_pairings(E8Vector(row))
        assert all(type(x) is int for x in m.d + m.fw)


@pytest.mark.parametrize("bad,why", [
    ((-2, 2, 0, 0, 0, 0, 0, 0), "not dominant"),  # a root with (α_1, r) < 0
    ((1, 1, 0, 0, 0, 0, 0, 0), "parity"),         # off the lattice
    ((2, 0, 0, 0, 0, 0, 0, 0), "divisible by 4"), # off the lattice
])
def test_batch_constructor_rejects_bad_rows(bad, why):
    rows = np.array([HIGHEST_ROOT.d, bad], dtype=np.int64)
    with pytest.raises(ValueError, match=why):
        DominantWeight._from_rows(rows)
    # a single weight is a batch of one: the same checks, the same messages
    unchecked = E8Vector.__new__(E8Vector)  # skips E8Vector's own checks
    unchecked.d = bad
    with pytest.raises(ValueError, match=why):
        DominantWeight(unchecked)


def test_dominant_weight_is_its_lattice_vector():
    m = fw(0, 1, 0, 0, 0, 0, 0, 1)
    v = E8Vector(m.d)
    assert isinstance(m, E8Vector)
    assert m == v and v == m and hash(m) == hash(v)
    assert m.v is m
    assert m.norm() == v.norm() == 16
    assert (m < HIGHEST_ROOT) == (m.d < HIGHEST_ROOT.d)
    assert DominantWeight(v).fw == m.fw
    assert DominantWeight.from_json(m.to_json()) == m
    assert m.to_json() == {"d": list(m.d), "doubled": True, "fw": list(m.fw)}


def test_non_integral_coordinates_are_rejected():
    with pytest.raises(ValueError, match="integers"):
        E8Vector([1.5] * 8)
    with pytest.raises(ValueError, match="integers"):
        DominantWeight.from_fw([0] * 7 + [1.7])
    with pytest.raises(ValueError, match="integers"):
        E8Vector.from_json({"d": [1.5] * 8, "doubled": True})
    # integral floats and numpy integers are integers
    assert E8Vector([2.0, 2.0] + [0] * 6) == E8Vector(np.array([2, 2] + [0] * 6))
    assert DominantWeight.from_fw(np.array([0.0] * 7 + [1.0])) == HIGHEST_ROOT


@pytest.mark.parametrize(
    "coords,size",
    [
        ((0, 0, 0, 0, 0, 0, 0, 0), 1),
        ((0, 0, 0, 0, 0, 0, 0, 1), 240),       # roots
        ((1, 0, 0, 0, 0, 0, 0, 0), 2160),
        ((0, 0, 0, 0, 0, 0, 1, 0), 6720),
        ((0, 1, 0, 0, 0, 0, 0, 0), 17280),
        ((0, 0, 0, 0, 0, 0, 0, 2), 240),
        ((1, 0, 0, 0, 0, 0, 0, 1), 30240),     # the whole norm-10 shell
        ((1, 0, 0, 0, 0, 1, 0, 0), 604800),
    ],
)
def test_orbit_sizes_against_bfs(coords, size):
    m = fw(*coords)
    assert orbit_size(m) == size
    arr = orbit_rows(m)
    assert arr.shape == (size, 8)
    # all distinct, lexicographically sorted
    assert (np.unique(arr, axis=0) == arr).all()


def _assert_same_as_seen_set_closure(m):
    arr = orbit_array(m)
    ref = _pack(orbit_array_by_seen_set(m))
    assert arr.dtype.names == ("key", "neg", "zero")
    assert arr.shape == ref.shape and (arr["key"] == ref).all()
    assert not arr.flags.writeable
    assert orbit_array(m) is arr


@pytest.mark.parametrize(
    "label", [lab for lab in SIGMA_LABELS if orbit_size(label_weight(lab)) <= 200_000])
def test_orbit_closure_by_depth_matches_seen_set(label, cold_memos):
    _assert_same_as_seen_set_closure(label_weight(label))


@pytest.mark.parametrize("label", SIGMA_LABELS)
def test_orbit_sign_bits_are_the_simple_root_pairings(label, cold_memos):
    orb = orbit_array(label_weight(label))
    p4 = _unpack(orb["key"]) @ _A2.T
    bits = 1 << np.arange(8)
    assert (orb["neg"] == (p4 < 0) @ bits).all()
    assert (orb["zero"] == (p4 == 0) @ bits).all()
    assert orb.nbytes == 10 * len(orb) == 10 * orbit_size(label_weight(label))


@pytest.mark.parametrize("coords", [
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 63),   # doubled coordinates up to 126
    (31, 0, 0, 0, 0, 0, 0, 1),   # up to 126, 30,240 rows
    (0, 1, 0, 0, 0, 0, 0, 61),   # up to 127, the largest a key holds
])
def test_orbit_closure_by_depth_to_the_byte_range(coords, cold_memos):
    m = fw(*coords)
    _assert_same_as_seen_set_closure(m)
    assert np.abs(orbit_rows(m)).max() == m.d[7]


def test_orbit_beyond_byte_range_raises_before_closure(cold_memos):
    # (m, w_1) = m.d[7] is the largest |doubled coordinate| on the orbit
    m = fw(0, 0, 0, 0, 0, 0, 1, 62)
    assert m.d[7] == 128
    with pytest.raises(BudgetError):
        orbit_array(m)


def test_orbit_size_total_is_group_order_bound():
    assert WEYL_ORDER == 696729600
    assert WEYL_ORDER % orbit_size(fw(1, 0, 0, 0, 0, 1, 0, 0)) == 0


def test_parabolic_order_matches_diagram_classifier():
    for mask in range(256):
        assert _parabolic_order(mask) == parabolic_order_by_diagram(mask), mask
    assert _parabolic_order(255) == WEYL_ORDER
    assert len(_POSITIVE_ROOTS) == 120
    assert sorted(set(_POSITIVE_ROOTS.sum(axis=1).tolist())) == list(range(1, 30))
    roots = _POSITIVE_ROOTS @ _A2
    table = {tuple(r) for r in np.concatenate([roots, -roots]).tolist()}
    assert len(table) == 240
    assert table == {tuple(r) for r in orbit_rows(HIGHEST_ROOT).tolist()}


def test_root_rows_are_the_root_orbit_in_key_order():
    # the order fixes which triples a quasi-periodicity seed samples
    assert np.array_equal(_ROOT_ROWS, orbit_rows(HIGHEST_ROOT))


def test_orbit_size_certifications_fire_under_optimize():
    code = (
        "import e8jac.e8 as e8\n"
        "from e8jac.e8 import CertificationError, DominantWeight\n"
        "def attempt(f, *args):\n"
        "    try:\n"
        "        f(*args)\n"
        "    except CertificationError as e:\n"
        "        print(e)\n"
        "size = e8.orbit_size\n"
        "e8.orbit_size = lambda m: size(m) - 1\n"
        "attempt(e8.orbit_array, DominantWeight.from_fw((0,) * 7 + (1,)))\n"
        "e8.orbit_size = size\n"
        "order = e8._parabolic_order\n"
        "e8._parabolic_order = lambda mask: 11\n"
        "attempt(size, DominantWeight.from_fw((1,) * 8))\n"
        "e8._parabolic_order = order\n"
        "e8._ROOT_HEIGHTS = e8._ROOT_HEIGHTS + 1\n"
        "attempt(order, 1)\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(BUDGET_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "orbit closure disagrees with stabilizer order",
        "stabilizer order 11 does not divide |W|",
        "height product for mask 1 is not an integer",
    ]


def test_orbit_list_variant():
    pts = orbit(fw(0, 0, 0, 0, 0, 0, 0, 1))
    assert len(pts) == 240
    assert all(p.norm() == 2 for p in pts)


def test_orbit_budget_guard(monkeypatch):
    # norm-44 weight: appears in no shell or catalog support, so never cached
    monkeypatch.setenv("E8JAC_BUDGET", "1000")
    with pytest.raises(BudgetError):
        orbit_array(fw(2, 1, 0, 0, 0, 0, 0, 0))


def test_orbit_budget_env(monkeypatch):
    monkeypatch.setenv("E8JAC_BUDGET", "100")
    with pytest.raises(BudgetError):
        orbit_array(fw(1, 2, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("bad", [-5, 0, 1.5, "100"])
def test_budget_argument_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError, match=r"budget argument \(--budget\) must be a "
                       r"positive integer"):
        element_budget(bad)


@pytest.mark.parametrize("bad", ["abc", "-5", "0", "1e3", "²"])
def test_budget_environment_must_be_a_positive_integer(monkeypatch, bad):
    monkeypatch.setenv(BUDGET_ENV, bad)
    with pytest.raises(ValueError, match=f"^{BUDGET_ENV} must be a positive integer"):
        element_budget()
    # a library call that reads the budget reports the same setting
    with pytest.raises(ValueError, match=BUDGET_ENV):
        rank_series(3)


def test_budget_sources_in_order(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert element_budget() == 2_000_000
    monkeypatch.setenv(BUDGET_ENV, "")
    assert element_budget() == 2_000_000
    monkeypatch.setenv(BUDGET_ENV, " 700 ")
    assert element_budget() == 700
    assert element_budget(5) == 5


# ---------------------------------------------------------------------------
# packed row keys

byte_rows = arrays(
    np.int64, st.tuples(st.integers(0, 40), st.just(8)),
    elements=st.integers(-128, 127),
)


@given(byte_rows)
def test_pack_round_trip(rows):
    keys = _pack(rows)
    assert keys.dtype == np.uint64 and keys.shape == (len(rows),)
    assert (_unpack(keys) == rows).all()


@given(byte_rows)
def test_pack_order_is_lex_row_order(rows):
    lex = np.lexsort(tuple(rows[:, i] for i in range(7, -1, -1)))
    assert (np.argsort(_pack(rows), kind="stable") == lex).all()


@given(st.data())
def test_dn_canonical_is_one_row_per_dn_orbit(data):
    # W(D_k): a permutation with an even number of sign flips
    k = data.draw(st.integers(1, 8))
    rows = data.draw(arrays(
        np.int64, st.tuples(st.integers(1, 20), st.just(k)),
        elements=st.integers(-60, 60),
    ))
    perm = data.draw(st.permutations(range(k)))
    signs = data.draw(arrays(np.int64, k, elements=st.sampled_from([1, -1])))
    if (signs < 0).sum() % 2:
        signs[0] = -signs[0]
    canon = _dn_canonical(rows)
    assert (_dn_canonical(canon) == canon).all()
    assert (_dn_canonical(rows[:, list(perm)] * signs) == canon).all()


@pytest.mark.parametrize("bad", [128, -129])
def test_pack_rejects_out_of_byte_range(bad):
    rows = np.zeros((3, 8), dtype=np.int64)
    rows[1, 5] = bad
    with pytest.raises(BudgetError):
        _pack(rows)


def test_orbit_beyond_byte_range_raises_under_optimize():
    # 64*w_8 has doubled coordinates (0,...,0,128): a 240-point orbit, well
    # inside the element budget, that packed keys cannot hold
    code = (
        "from e8jac.e8 import BudgetError, DominantWeight, orbit_array\n"
        "try:\n"
        "    orbit_array(DominantWeight.from_fw((0,) * 7 + (64,)))\n"
        "except BudgetError:\n"
        "    print('BudgetError')\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "BudgetError"


# ---------------------------------------------------------------------------
# shells


def test_shell_sizes_sigma3():
    for n in range(1, 13):
        total = sum(size for _, size in shell(2 * n))
        assert total == 240 * sigma_pow(n, 3)


def test_shell_zero():
    assert shell(0) == [(DominantWeight(ZERO), 1)]


def test_shell_spot_reps():
    assert [m.fw for m, _ in shell(2)] == [(0, 0, 0, 0, 0, 0, 0, 1)]
    assert sorted(m.fw for m, _ in shell(8)) == [
        (0, 0, 0, 0, 0, 0, 0, 2),
        (0, 1, 0, 0, 0, 0, 0, 0),
    ]


@pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12, 16, 20, 24])
def test_shell_dual_routes_agree(two_n):
    assert shell(two_n) == shell_by_enumeration(two_n)


def test_shell_by_enumeration_budget():
    with pytest.raises(BudgetError):
        shell_by_enumeration(24, budget=1000)


def test_shell_rejects_odd():
    with pytest.raises(ValueError):
        shell(3)


def test_shell_certification_is_an_exception(monkeypatch, cold_memos):
    # the theta-identity count must raise, not assert, so it fires under -O
    full = e8jac.e8.alcove

    def alcove(t):
        rows = full(t)
        return rows[(rows * rows).sum(axis=1) != 32]  # drop the norm-8 rows

    monkeypatch.setattr(e8jac.e8, "alcove", alcove)
    with pytest.raises(RuntimeError, match="shell 8"):
        shell(8)


def test_shell_certification_fires_under_optimize():
    code = (
        "import e8jac.e8 as e8\n"
        "full = e8.alcove\n"
        "def alcove(t):\n"
        "    rows = full(t)\n"
        "    return rows[(rows * rows).sum(axis=1) != 32]\n"
        "e8.alcove = alcove\n"
        "try:\n"
        "    e8.shell(8)\n"
        "except RuntimeError:\n"
        "    print('RuntimeError')\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "RuntimeError"


# ---------------------------------------------------------------------------
# the scaled alcove


def test_alcove_counts_are_rank_series():
    # r(t) counts the alcove points: its exponents are the affine E8 marks
    r = rank_series(20)
    for t in range(21):
        assert len(alcove(t)) == r[t]


def test_alcove_points_are_dominant_and_bounded():
    rows = alcove(8)
    assert (rows @ np.array([r.d for r in SIMPLE_ROOTS]).T >= 0).all()
    assert ((rows @ np.array(HIGHEST_ROOT.d)) // 4 <= 8).all()
    assert (np.unique(rows, axis=0) == rows).all()  # distinct, lex-sorted


def test_alcove_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "1000")
    with pytest.raises(BudgetError):
        alcove(20)


# ---------------------------------------------------------------------------
# coset minima


def brute_coset_min(l, t):
    """Independent oracle: scan all x with (x,x) <= 4(l,l)/t² plus x = 0.

    Any x beyond that bound has |tx| > 2|l|, hence |l + tx| > |l|, so it
    cannot beat the x = 0 candidate.
    """
    best = l.norm()
    m_cap = 4 * l.norm() // (t * t)
    for two_j in range(2, m_cap + 1, 2):
        for rep, _ in shell(two_j):
            arr = orbit_rows(rep)
            cand = np.asarray(l.d, dtype=np.int64) + t * arr
            best = min(best, int((cand * cand).sum(axis=1).min()) // 4)
    return best


def test_coset_min_norm_examples():
    assert coset_min_norm(FUNDAMENTAL_WEIGHTS[7], 2) == 2
    assert coset_min_norm(FUNDAMENTAL_WEIGHTS[0], 2) == 4
    assert coset_min_norm(ZERO, 3) == 0


@pytest.mark.parametrize("t", [2, 3, 4])
def test_coset_min_norm_against_brute_ball(t):
    hits = 0
    while hits < 250:
        l = random_lattice_vector(scale=2)
        if l.norm() > 16:
            continue
        hits += 1
        assert coset_min_norm(l, t) == brute_coset_min(l, t)


def test_coset_min_norm_translation_invariant():
    for _ in range(50):
        l = random_lattice_vector(scale=2)
        t = int(rng.integers(2, 5))
        x = random_lattice_vector(scale=1)
        shifted = l + t * x
        assert coset_min_norm(shifted, t) == coset_min_norm(l, t)


def test_max_coset_min_norm_small():
    assert max_coset_min_norm(2) == 4
    assert max_coset_min_norm(3) == 8


def coset_sweep_max(t):
    """Oracle: decode all t^8 coset representatives sum(c_i * alpha_i),
    c in [0, t)^8, in one array."""
    idx = np.arange(t**8, dtype=np.int64)
    digits = (idx[:, None] // t ** np.arange(8, dtype=np.int64)) % t
    scaled = _decode_scaled(digits @ np.array([r.d for r in SIMPLE_ROOTS]), t)
    return int(scaled.max()) // 4


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_max_coset_min_norm_against_sweep(t):
    assert max_coset_min_norm(t) == coset_sweep_max(t)


def test_max_coset_min_norm_covering_radius():
    # the covering radius of E8 is 1 (w_1/2 is a deep hole), so for even t
    # the deepest coset tw_1/2 + tE8 has minimum t^2
    for t in range(2, 41, 2):
        assert max_coset_min_norm(t) == t * t


def test_max_coset_min_norm_certifies_alcove(monkeypatch):
    full = e8jac.e8.alcove

    def with_outsider(t):
        # 3θ lies outside the t = 2 alcove; its coset holds θ, of norm 2
        return np.concatenate([full(t), [3 * np.array(HIGHEST_ROOT.d)]])

    monkeypatch.setattr(e8jac.e8, "alcove", with_outsider)
    with pytest.raises(RuntimeError, match="alcove"):
        max_coset_min_norm(2)


# ---------------------------------------------------------------------------
# pairing maxima


def test_max_pairing_spot_values():
    assert max_pairing(fw(0, 0, 0, 0, 0, 0, 0, 1), 4) == 2
    assert max_pairing(fw(1, 0, 0, 0, 0, 0, 0, 0), 4) == 4
    assert max_pairing(fw(3, 0, 0, 0, 0, 0, 0, 0), 4) == 12


@pytest.mark.parametrize("two_n", range(0, 13, 2))
def test_max_pairing_matches_orbit_scan(two_n, cold_memos):
    for lab in SIGMA_LABELS:
        m = label_weight(lab)
        assert max_pairing(m, two_n) == max_pairing_by_orbit(m, two_n), lab


def test_max_pairing_symmetric_in_sign():
    # shells are symmetric under negation, so maxima are non-negative
    m = fw(0, 0, 1, 0, 0, 0, 0, 0)
    assert max_pairing(m, 2) >= 0
