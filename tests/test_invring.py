"""Tests for the orbit-sum ring: products, evaluation, display, pullback."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import e8jac.catalog
import e8jac.e8
import e8jac.invring
from e8jac import (
    HIGHEST_ROOT,
    DominantWeight,
    E8Vector,
    InvariantElement,
    from_display,
    inv_mul,
    label_weight,
    lincomb,
    orbit_size,
    sigma_label,
    SIGMA_LABELS,
)
from conftest import assert_canonical
from oracles import (
    inv_mul_brute,
    inv_mul_by_membership,
    lincomb_by_fold,
    orbit_pair_product_by_full_orbit,
)

W8 = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 1))
W1 = DominantWeight.from_fw((1, 0, 0, 0, 0, 0, 0, 0))
W7 = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 1, 0))
W2 = DominantWeight.from_fw((0, 1, 0, 0, 0, 0, 0, 0))
TWO_W8 = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 2))
ZERO_W = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Products


def test_root_orbit_squared_decomposition():
    # Sums a+b over pairs of roots, binned by inner product (a,b):
    #   (a,b) = -2: 240 pairs, sum 0            -> 240 * orb(0)
    #   (a,b) = -1: 240*56 pairs, norm-2 sums   ->  56 * orb(w8)
    #   (a,b) =  0: 240*126 pairs, norm-4 sums  ->  14 * orb(w1)
    #   (a,b) = +1: 240*56 pairs, norm-6 sums   ->   2 * orb(w7)
    #   (a,b) = +2: 240 pairs, doubled roots    ->   1 * orb(2*w8)
    prod = inv_mul(InvariantElement.orbit_sum(W8), InvariantElement.orbit_sum(W8))
    assert prod.terms == {
        ZERO_W: Fraction(240),
        W8: Fraction(56),
        W1: Fraction(14),
        W7: Fraction(2),
        TWO_W8: Fraction(1),
    }


@pytest.mark.parametrize("m1,m2", [(W8, W8), (W8, W1), (W7, W8), (ZERO_W, W1)])
def test_product_matches_brute_force(m1, m2):
    # the membership oracle of test_12 is checked against the brute product too
    fast = inv_mul(InvariantElement.orbit_sum(m1), InvariantElement.orbit_sum(m2))
    brute = inv_mul_brute(m1, m2)
    assert fast.terms == brute
    assert inv_mul_by_membership(m1, m2) == brute


def test_product_commutes():
    x = InvariantElement.orbit_sum(W8) + InvariantElement.constant(3)
    y = InvariantElement.orbit_sum(W1) - InvariantElement.orbit_sum(W8, Fraction(1, 2))
    assert inv_mul(x, y) == inv_mul(y, x)


def test_product_associates():
    # different bracketings of orb(w8)^4 must agree term by term
    a = InvariantElement.orbit_sum(W8)
    sq = inv_mul(a, a)
    lhs = inv_mul(inv_mul(sq, a), a)
    rhs = inv_mul(sq, sq)
    assert lhs == rhs
    assert lhs.eval_zero() == 240**4


def test_constant_is_scalar():
    x = InvariantElement.orbit_sum(W1, Fraction(5, 7))
    assert inv_mul(InvariantElement.constant(3), x) == x.scale(3)
    assert InvariantElement.constant(1) * x == x


def test_pair_products_match_full_orbit_oracle(cold_memos):
    # all 351 unordered pairs of dictionary orbits; with the smaller orbit
    # first, each pair closes only that orbit, which is dropped once its
    # pairs are done so that the memos hold at most one of them
    reps = sorted((label_weight(lab) for lab in SIGMA_LABELS), key=orbit_size)
    for i, m1 in enumerate(reps):
        for m2 in reps[i:]:
            fast = e8jac.invring._orbit_pair_product(m1, m2)
            ref = orbit_pair_product_by_full_orbit(m1, m2)
            assert list(fast.terms.items()) == list(ref.terms.items()), (m1, m2)
        cold_memos()


def test_pair_product_weight_sum_is_certified_under_optimize():
    code = (
        "import e8jac.invring as inv\n"
        "from e8jac import CertificationError, DominantWeight\n"
        "inv._parabolic_order = lambda mask: 1\n"
        "w8 = DominantWeight.from_fw((0,) * 7 + (1,))\n"
        "try:\n"
        "    inv._orbit_pair_product(w8, w8)\n"
        "except CertificationError as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "W_J-orbit weights disagree with the orbit size of the first factor")


def test_pair_product_integrality_is_certified_under_optimize():
    # every orbit size but those with the stabilizer of the factor w8 is off
    # by one, so the count on orb(w1) no longer divides into an integer
    # coefficient
    code = (
        "import e8jac.e8 as e8\n"
        "import e8jac.invring as inv\n"
        "from e8jac import CertificationError, DominantWeight\n"
        "w8 = DominantWeight.from_fw((0,) * 7 + (1,))\n"
        "size = e8._mask_orbit_size\n"
        "j8 = e8._stabilizer_mask(w8.d)\n"
        "e8._mask_orbit_size = lambda mask: size(mask) + (mask != j8)\n"
        "try:\n"
        "    inv._orbit_pair_product(w8, w8)\n"
        "except CertificationError as e:\n"
        "    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "a product of orbit sums has a coefficient that is not an integer")


def test_pair_product_sign_bits_are_certified_under_optimize():
    # one weight-key byte inside J corrupted each way: byte 0 of a
    # J-dominant row of orb(w8) made negative, so the row drops out, and
    # byte 1 of a row that is J-dominant but for that byte made positive,
    # so it joins in; either way the weights no longer add up to |orb(w8)|
    code = (
        "import numpy as np\n"
        "import e8jac.invring as inv\n"
        "from e8jac import CertificationError, DominantWeight\n"
        "w8 = DominantWeight.from_fw((0,) * 7 + (1,))\n"
        "J = inv._stabilizer_mask(w8.d)\n"
        "real = inv.orbit_array(w8)\n"
        "fwb = real.view(np.uint8).reshape(-1, 8)\n"
        "neg = np.packbits(fwb < 128, axis=1, bitorder='little').ravel() & J\n"
        "for row, byte, value in ((np.flatnonzero(neg == 0)[0], 0, 127),\n"
        "                         (np.flatnonzero(neg == 2)[0], 1, 129)):\n"
        "    orb = real.copy()\n"
        "    orb.view(np.uint8).reshape(-1, 8)[row, byte] = value\n"
        "    inv.orbit_array = lambda m: orb\n"
        "    try:\n"
        "        inv._orbit_pair_product.__wrapped__(w8, w8)\n"
        "    except CertificationError as e:\n"
        "        print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "W_J-orbit weights disagree with the orbit size of the first factor"] * 2


def test_deep_build_memory_holds_no_orbit_rows(monkeypatch, cold_memos):
    # the orbit memo holds one weight key per row (8 bytes, where int64
    # rows took 64), and a pair product converts only its kept keys:
    # int64 orbit rows peaked at 31.7 MB here
    closed = []
    real = e8jac.invring.orbit_array

    def recorded(m):
        closed.append(m)
        return real(m)

    monkeypatch.setattr(e8jac.invring, "orbit_array", recorded)
    tracemalloc.start()
    try:
        e8jac.catalog.build("phi_-4_2", 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    largest = max(closed, key=orbit_size)
    assert orbit_size(largest) == 138240
    assert real(largest).nbytes == 8 * orbit_size(largest)


def test_deep_build_reduces_one_row_per_stabilizer_orbit(monkeypatch, cold_memos):
    # a fallback to reducing every row of the smaller orbit reduces 222,257
    rows = []
    reduce = e8jac.invring._batch_reduce

    def counted(arr):
        rows.append(len(arr))
        return reduce(arr)

    monkeypatch.setattr(e8jac.invring, "_batch_reduce", counted)
    e8jac.catalog.build("phi_-4_2", 10)
    assert sum(rows) == 1253


def test_operator_sugar():
    x = InvariantElement.orbit_sum(W8)
    assert x * x == inv_mul(x, x)
    assert 2 * x == x.scale(2)
    assert (x - x).is_zero()
    assert (-x).coeff(W8) == -1


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_zero_simple():
    assert InvariantElement.orbit_sum(W8).eval_zero() == 240
    assert InvariantElement.constant(Fraction(-3, 2)).eval_zero() == Fraction(-3, 2)
    # every Σ contributes 240 * display coefficient at z = 0
    e = from_display([("Σ_2", 2), ("Σ_4", -1), (None, -240)])
    assert e.eval_zero() == 2 * 240 - 240 - 240


def test_eval_zero_is_multiplicative():
    x = InvariantElement.orbit_sum(W8, 2) + InvariantElement.constant(1)
    y = InvariantElement.orbit_sum(W1) - InvariantElement.orbit_sum(W7, Fraction(1, 3))
    assert inv_mul(x, y).eval_zero() == x.eval_zero() * y.eval_zero()


def test_norm_moment():
    assert InvariantElement.orbit_sum(W8).norm_moment() == 240 * 2
    assert InvariantElement.constant(17).norm_moment() == 0
    e = InvariantElement.orbit_sum(W1, Fraction(1, 4))
    assert e.norm_moment() == Fraction(2160 * 4, 4)


def test_t_support_check():
    x = InvariantElement.orbit_sum(W8) + InvariantElement.constant(5)
    assert x.t_support_check(2) == (True, [])
    ok, bad = x.t_support_check(1)
    assert not ok and bad == [W8]
    three_w8 = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 3))
    y = InvariantElement.orbit_sum(three_w8)
    assert y.t_support_check(6)[0] and not y.t_support_check(5)[0]


# ---------------------------------------------------------------------------
# Labels and display


def test_sigma_labels_cover_dictionary():
    assert SIGMA_LABELS[0] == "Σ_2"
    assert "Σ_{8'}" in SIGMA_LABELS and "Σ_{8''}" in SIGMA_LABELS
    for lab in SIGMA_LABELS:
        assert sigma_label(label_weight(lab)) == lab


def test_label_norms_match_subscripts():
    for lab in SIGMA_LABELS:
        sub = lab.removeprefix("Σ_").strip("{}").rstrip("'")
        assert label_weight(lab).norm() == int(sub)


def test_norm8_labels():
    # two orbits of norm 8: the doubled roots and the 17280-element orbit
    assert label_weight("Σ_{8''}") == TWO_W8
    assert label_weight("Σ_{8'}") == W2
    assert orbit_size(TWO_W8) == 240
    assert orbit_size(W2) == 17280


def test_offdictionary_label_round_trip():
    m = DominantWeight.from_fw((2, 1, 0, 0, 0, 0, 0, 0))
    lab = sigma_label(m)
    assert lab == "orb(2,1,0,0,0,0,0,0)"
    assert label_weight(lab) == m


def test_label_weight_rejects_garbage():
    with pytest.raises(KeyError):
        label_weight("Σ_{9}")


def test_display_order_and_string():
    e = from_display([(None, -240), ("Σ_4", -1), ("Σ_2", 2)])
    assert e.to_display() == [
        ("Σ_2", Fraction(2)),
        ("Σ_4", Fraction(-1)),
        (None, Fraction(-240)),
    ]
    assert e.display_str() == "2Σ_2 − Σ_4 − 240"


def test_display_tie_break_on_label():
    # equal norms sort by label text: Σ_{8''} ahead of Σ_{8'}
    e = from_display([("Σ_{8'}", 3), ("Σ_{8''}", 5)])
    assert [lab for lab, _ in e.to_display()] == ["Σ_{8''}", "Σ_{8'}"]


def test_display_str_edge_cases():
    assert InvariantElement.zero().display_str() == "0"
    assert InvariantElement.orbit_sum(W8).display_str() == "Σ_2"
    assert from_display([("Σ_2", -1)]).display_str() == "−Σ_2"
    assert from_display([("Σ_2", Fraction(1, 3))]).display_str() == "(1/3)Σ_2"
    assert InvariantElement.constant(7).display_str() == "7"


def test_display_coefficient_scaling():
    # display coefficient is c * |orbit| / 240
    e = InvariantElement.orbit_sum(W1, Fraction(1, 9))
    assert e.display_map() == {"Σ_4": Fraction(2160, 9 * 240)}
    back = from_display(e.to_display())
    assert back == e


_POOL = ["Σ_2", "Σ_4", "Σ_6", "Σ_{8''}", None]


@st.composite
def small_elements(draw, max_den=4):
    pairs = []
    for lab in _POOL:
        c = draw(st.integers(min_value=-9, max_value=9))
        d = draw(st.integers(min_value=1, max_value=max_den))
        if c:
            pairs.append((lab, Fraction(c, d)))
    return from_display(pairs)


@settings(max_examples=30, deadline=None)
@given(small_elements())
def test_display_round_trip(e):
    assert from_display(e.to_display()) == e
    assert from_display(list(e.display_map().items())) == e


@settings(max_examples=20, deadline=None)
@given(small_elements(), small_elements())
def test_eval_zero_homomorphism(x, y):
    assert inv_mul(x, y).eval_zero() == x.eval_zero() * y.eval_zero()
    assert (x + y).eval_zero() == x.eval_zero() + y.eval_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
              small_elements(10**6)),
    max_size=4,
))
def test_lincomb_matches_fold(pairs):
    total = lincomb(pairs)
    assert total == lincomb_by_fold(pairs)
    assert_canonical(total)
    assert all(type(v) is Fraction and v for v in total.terms.values())
    # every summand cancelled: the zero element, with no terms left
    cancelled = lincomb(pairs + [(-c, x) for c, x in pairs])
    assert cancelled.terms == {}
    assert (cancelled.num, cancelled.den) == ({}, 1)
    assert cancelled == lincomb_by_fold(pairs + [(-c, x) for c, x in pairs])


@settings(max_examples=20, deadline=None)
@given(small_elements(10**6), small_elements(10**6))
def test_products_and_constructor_are_canonical(x, y):
    assert_canonical(x)
    assert_canonical(inv_mul(x, y))
    assert InvariantElement(dict(x.terms)) == x
    assert InvariantElement(x.terms).terms == x.terms


def test_terms_is_a_read_only_view_in_key_order():
    e = from_display([("Σ_4", Fraction(1, 3)), ("Σ_2", 2), (None, -1)])
    assert list(e.terms) == sorted(e.terms)
    with pytest.raises(TypeError):
        e.terms[W8] = Fraction(1)
    assert e.coeff(W8) == Fraction(2 * 240, 240)
    assert e.coeff(E8Vector((0,) * 7 + (256,))) == 0  # 64·w1, outside the byte range


@pytest.mark.parametrize("d", [(-2, -2) + (0,) * 6, (254, 2) + (0,) * 6])
def test_coeff_refuses_a_non_dominant_vector(d):
    # (-2, -2, 0, ...) lies in the orbit of w8, which 3·orb(w8) holds; the
    # second vector lies outside the byte range as well
    x = InvariantElement.orbit_sum(W8, 3)
    with pytest.raises(ValueError, match="not dominant"):
        x.coeff(E8Vector(d))
    assert x.coeff(W8) == 3 and x.coeff(E8Vector(W8.d)) == 3


def test_dilate_maps_orbits_to_multiples():
    e = from_display([("Σ_2", 3), (None, -240)])
    assert e.dilate(2) == from_display([("Σ_{8''}", 3), (None, -240)])
    assert e.dilate(1) == e


@pytest.mark.parametrize("c", [0, -1])
def test_dilate_by_a_nonpositive_factor_is_refused(c):
    # z -> 0·z would collapse orb(w8) + orb(w1) to the constant 2400, and
    # z -> -z would store the non-dominant images of w8 and w1
    x = InvariantElement({W8: 1, W1: 1})
    with pytest.raises(ValueError, match="positive integer"):
        x.dilate(c)


def test_constructor_refuses_a_non_dominant_key():
    # (2, -2, 0, ..., 0) is a root in the orbit of w8, not its dominant row
    with pytest.raises(ValueError, match=r"not dominant: \(2, -2, 0, 0, 0, 0, 0, 0\)"):
        InvariantElement({E8Vector((2, -2, 0, 0, 0, 0, 0, 0)): 1})
    assert InvariantElement({E8Vector(W8.d): 1}) == InvariantElement.orbit_sum(W8)


# ---------------------------------------------------------------------------
# Serialization


def test_json_round_trip():
    e = from_display([("Σ_2", Fraction(2, 3)), ("Σ_4", -1), (None, 5)])
    obj = e.to_json()
    assert InvariantElement.from_json(obj) == e
    coeffs = [t["coeff"] for t in obj["terms"]]
    assert all(isinstance(c, str) for c in coeffs)


def test_json_rejects_non_integral_weight_coordinates():
    obj = {"terms": [{"fw": [0] * 7 + [1.7], "coeff": "1"}]}
    with pytest.raises(ValueError, match="integers"):
        InvariantElement.from_json(obj)


# ---------------------------------------------------------------------------
# Pullback


def test_root_orbit_pullback_along_root():
    # restriction of the 240 roots to a line through one of them splits
    # 1 + 56 + 126 + 56 + 1 by inner product with that root
    p = InvariantElement.orbit_sum(W8).pullback(HIGHEST_ROOT)
    assert p == {
        -2: Fraction(1),
        -1: Fraction(56),
        0: Fraction(126),
        1: Fraction(56),
        2: Fraction(1),
    }


@pytest.mark.parametrize("m", [W8, W1, W7])
def test_pullback_palindromic(m):
    p = InvariantElement.orbit_sum(m).pullback(HIGHEST_ROOT)
    assert p == {-e: c for e, c in p.items()}
    assert sum(p.values()) == orbit_size(m)


def test_pullback_of_constant():
    p = InvariantElement.constant(4).pullback(HIGHEST_ROOT)
    assert p == {0: Fraction(4)}


def test_coeff_by_weight_or_by_its_lattice_vector():
    x = InvariantElement({W8: Fraction(3), ZERO_W: Fraction(-1)})
    assert x.coeff(W8) == x.coeff(E8Vector(W8.d)) == x.coeff(HIGHEST_ROOT) == 3
    assert x.coeff(E8Vector((0,) * 8)) == -1
    assert x.coeff(E8Vector(W1.d)) == 0


def test_pullback_max_exponent_is_pairing_bound():
    p = InvariantElement.orbit_sum(W8).pullback(W1)
    assert max(p) == 2
    assert min(p) == -2
