"""Tests for truncated Jacobi q-expansions and the operators acting on them."""

import ast
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import e8jac
from e8jac import (
    HIGHEST_ROOT,
    REGISTRY,
    DominantWeight,
    E8Vector,
    InvariantElement,
    JacobiQExpansion,
    ModularQSeries,
    build,
    check_quasi_periodicity,
    classify,
    delta,
    eisenstein,
    heat,
    hecke_t_minus,
    jf_div_modular,
    jf_lincomb,
    jf_mul,
    jf_scale,
    orbit_array,
    rescale_z,
    theta_e8,
    weight0_identity,
)
from oracles import check_quasi_periodicity_by_orbit_scan

W8 = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 1))
W1 = DominantWeight.from_fw((1, 0, 0, 0, 0, 0, 0, 0))
TWO_W8 = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 2))
ZERO_W = DominantWeight.from_fw((0, 0, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Construction and accessors


def test_constructor_validation():
    const = InvariantElement.constant(1)
    with pytest.raises(ValueError):
        JacobiQExpansion(3, 1, [const])  # odd weight
    with pytest.raises(ValueError):
        JacobiQExpansion(4, -1, [const])
    with pytest.raises(ValueError):
        JacobiQExpansion(4, 1, [])


def test_index0_is_modular():
    f = JacobiQExpansion(4, 0, [InvariantElement.constant(1),
                                InvariantElement.constant(240)])
    assert f.value_z0() == eisenstein(4, 1)
    with pytest.raises(ValueError, match="index-0"):
        JacobiQExpansion(4, 0, [InvariantElement.orbit_sum(W8)])


def test_support_bound_enforced():
    """A root at q^0 is fine at index 2 (its coset minimum pays the debt)
    but illegal at index 1, where every coset contains the origin."""
    root = InvariantElement.orbit_sum(W8)
    f = JacobiQExpansion(-4, 2, [root])
    assert f.term(0).coeff(W8) == 1
    with pytest.raises(ValueError, match="support bound"):
        JacobiQExpansion(-4, 1, [root])


def test_term_and_coefficient_lookup():
    th = theta_e8(4)
    assert th.order == 4
    assert th.term(0).coeff(ZERO_W) == 1
    assert th.coefficient(1, HIGHEST_ROOT) == 1
    # lookup reduces to the dominant representative first
    neg = E8Vector(tuple(-c for c in HIGHEST_ROOT.d))
    assert th.coefficient(1, neg) == 1
    with pytest.raises(IndexError):
        th.term(5)


def test_truncate():
    th = theta_e8(5)
    assert th.truncate(2).order == 2
    assert th.truncate(2).term(2) == th.term(2)
    with pytest.raises(ValueError):
        th.truncate(7)


def test_add_requires_matching_type():
    with pytest.raises(ValueError, match="mismatch"):
        theta_e8(2) + JacobiQExpansion.zero(4, 2, 2)


def test_jf_lincomb_validates_once(monkeypatch):
    parts = [(2, theta_e8(3)), (Fraction(-1, 3), theta_e8(2)), (5, theta_e8(4))]
    calls = []
    init = JacobiQExpansion.__init__

    def counted(self, *args):
        calls.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(JacobiQExpansion, "__init__", counted)
    total = jf_lincomb(parts)
    assert calls == [(4, 1)]
    assert total.order == 2
    assert total.term(1).coeff(W8) == 2 - Fraction(1, 3) + 5


def test_jf_lincomb_rejects_mixed_weights():
    parts = [(1, theta_e8(2)), (1, jf_scale(theta_e8(2), eisenstein(4, 2)))]
    with pytest.raises(ValueError, match="mismatch"):
        jf_lincomb(parts)


def test_zero_and_one():
    z = JacobiQExpansion.zero(10, 3, 2)
    assert z.is_zero() and z.order == 2
    one = JacobiQExpansion.one(3)
    assert (one.weight, one.index) == (0, 0)
    assert one.value_z0() == ModularQSeries(0, [1, 0, 0, 0])


# ---------------------------------------------------------------------------
# Theta series and products


def test_theta_restricts_to_eisenstein():
    assert theta_e8(6).value_z0() == eisenstein(4, 6)


def test_theta_squared():
    sq = jf_mul(theta_e8(3), theta_e8(3))
    assert (sq.weight, sq.index) == (8, 2)
    # q^1: the root can sit in either factor
    assert sq.term(1).coeff(W8) == 2
    assert sq.value_z0() == eisenstein(4, 3) * eisenstein(4, 3)


def test_jf_scale():
    f = jf_scale(theta_e8(3), eisenstein(6, 3))
    assert (f.weight, f.index) == (10, 1)
    assert f.term(1).coeff(W8) == 1
    assert f.term(1).coeff(ZERO_W) == -504


def test_jf_div_round_trip():
    th = theta_e8(5)
    g = jf_scale(th, delta(5))
    back = jf_div_modular(g, delta(5))
    assert back == th.truncate(4)
    assert (back.weight, back.index) == (4, 1)


def test_jf_div_rejects_nondivisible():
    with pytest.raises(ValueError, match="not divisible"):
        jf_div_modular(theta_e8(3), delta(3))
    zero_series = eisenstein(4, 3) - eisenstein(4, 3)
    with pytest.raises(ZeroDivisionError):
        jf_div_modular(theta_e8(3), zero_series)


# ---------------------------------------------------------------------------
# Operators


def test_heat_kills_theta():
    # every shell vector of theta has (l,l) = 2n, so the diagonal multiplier
    # n - (l,l)/2 vanishes, and at weight 4 the quasi-modular correction
    # carries the factor (4-4)/12 = 0
    assert heat(theta_e8(5)).is_zero()
    assert heat(theta_e8(5)).weight == 6


def test_heat_on_index2_generator():
    """Hand computation of the q^0 row of the heat image of the weight -4
    index 2 form with display 2Σ_2 − Σ_4 − 240: the diagonal part gives
    −Σ_2 + Σ_4, the E2 correction 2/3·(2Σ_2 − Σ_4 − 240)."""
    f = build("phi_-4_2", 2)
    h = heat(f)
    assert h.weight == -2
    assert h.term(0).display_map() == {
        "Σ_2": Fraction(1, 3),
        "Σ_4": Fraction(1, 3),
        None: Fraction(-160),
    }
    assert h.scale(3) == build("phi_-2_2", 2)


def test_heat_validates_once(monkeypatch):
    f = build("phi_-4_2", 3)
    calls = []
    init = JacobiQExpansion.__init__

    def counted(self, *args):
        calls.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(JacobiQExpansion, "__init__", counted)
    h = heat(f)
    assert calls == [(-2, 2)]
    assert h.scale(3) == build("phi_-2_2", 3)


def test_heat_rejects_index0():
    f = JacobiQExpansion(4, 0, [InvariantElement.constant(1)])
    with pytest.raises(ValueError):
        heat(f)


def test_hecke_identity_at_s1():
    th = theta_e8(3)
    assert hecke_t_minus(th, 1) == th


def test_hecke_on_theta():
    g = hecke_t_minus(theta_e8(4), 2)
    assert (g.weight, g.index, g.order) == (4, 2, 2)
    # q^0: d runs over divisors of s, contributing d^(k-1) = 1 + 8
    assert g.term(0).coeff(ZERO_W) == 9
    # q^1: only d = 1 contributes, pulling in the norm-4 shell
    assert g.term(1).coeff(W1) == 1
    assert build("x2", 2) == g.scale(Fraction(1, 9))


def test_hecke_order_accounting():
    assert hecke_t_minus(theta_e8(7), 3).order == 2
    with pytest.raises(ValueError, match="input order 4"):
        hecke_t_minus(theta_e8(3), 2, order=2)
    with pytest.raises(ValueError):
        hecke_t_minus(theta_e8(3), 0)


def test_rescale_z():
    a4 = rescale_z(theta_e8(3), 2)
    assert (a4.weight, a4.index) == (4, 4)
    assert a4.term(1).coeff(TWO_W8) == 1
    assert a4.term(1).display_map() == {"Σ_{8''}": Fraction(1)}
    assert rescale_z(theta_e8(3), 1) == theta_e8(3)
    with pytest.raises(ValueError):
        rescale_z(theta_e8(3), 0)


# ---------------------------------------------------------------------------
# Classification and identities


def test_classify_weak_with_witness():
    res = classify(build("phi_-4_2", 2))
    assert res.kind == "weak"
    assert res.witness == (0, W8)


def test_classify_holomorphic():
    res = classify(build("x2", 2))
    assert res.kind == "holomorphic"
    assert res.witness is None


def test_classify_cusp():
    assert classify(build("u12_2", 2)).kind == "cusp"
    assert classify(JacobiQExpansion.zero(12, 2, 2)).kind == "cusp"


def test_classify_needs_index():
    with pytest.raises(ValueError):
        classify(JacobiQExpansion(4, 0, [InvariantElement.constant(1)]))


def test_weight0_identity():
    assert weight0_identity(build("phi_0_2", 1))
    assert weight0_identity(build("phi_0_3", 1))
    with pytest.raises(ValueError):
        weight0_identity(theta_e8(1))


def test_quasi_periodicity_counts_samples():
    assert check_quasi_periodicity(theta_e8(4), samples=25, seed=3) == 25
    assert check_quasi_periodicity(build("phi_-4_2", 3), samples=10, seed=1) == 10


def test_quasi_periodicity_cost_does_not_grow_with_samples():
    f = build("x2")
    check_quasi_periodicity(f, samples=1)  # close the root orbit untraced
    assert _checkable_triples(f) == 604
    tracemalloc.start()
    try:
        assert check_quasi_periodicity(f, samples=10**7, seed=2) == 604
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.0f} MB"
    with pytest.raises(ValueError, match="non-negative"):
        check_quasi_periodicity(f, samples=-1)


def test_quasi_periodicity_catches_corruption():
    th = theta_e8(4)
    bad_terms = list(th.terms)
    bad_terms[2] = bad_terms[2] + InvariantElement.orbit_sum(W1, 7)
    bad = JacobiQExpansion(4, 1, bad_terms)
    with pytest.raises(AssertionError):
        check_quasi_periodicity(bad, samples=60, seed=0)


def test_quasi_periodicity_catches_corruption_under_optimize():
    # the check raises AssertionError explicitly, so -O does not strip it
    code = (
        "from e8jac import InvariantElement, JacobiQExpansion, build\n"
        "from e8jac import check_quasi_periodicity\n"
        "f = build('phi_-4_2')\n"
        "q1 = dict(f.terms[1].terms)\n"
        "m = min(q1)\n"
        "q1[m] += 1\n"
        "bad = JacobiQExpansion(f.weight, f.index,\n"
        "                       [f.terms[0], InvariantElement(q1)] + f.terms[2:])\n"
        "try:\n"
        "    check_quasi_periodicity(bad, samples=200)\n"
        "except AssertionError:\n"
        "    print('AssertionError')\n"
    )
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "AssertionError"


def _buildable_forms():
    return [build(name) for name, entry in sorted(REGISTRY.items())
            if entry.buildable]


def _checkable_triples(f):
    """How many (n, l, v) have a stored orbit l at q^n, a shift v = w·r
    (r a root, w = 1, 2) and n + (l,v) + t·w² within the truncation."""
    roots = orbit_array(DominantWeight(HIGHEST_ROOT))
    count = 0
    for n in range(f.order + 1):
        for m in f.term(n).terms:
            pairings = roots @ np.array(m.d) // 4
            for w in (1, 2):
                count += int((n + w * pairings + f.index * w * w <= f.order).sum())
    return count


def _corrupt_theta():
    terms = list(theta_e8(4).terms)
    terms[2] = terms[2] + InvariantElement.orbit_sum(W1, 7)
    return JacobiQExpansion(4, 1, terms)


def _corrupt_phi_m4_2():
    f = build("phi_-4_2")
    q1 = dict(f.terms[1].terms)
    q1[min(q1)] += 1
    return JacobiQExpansion(f.weight, f.index,
                            [f.terms[0], InvariantElement(q1)] + f.terms[2:])


def test_quasi_periodicity_exhaustive_on_every_form():
    # samples >= the number of checkable triples checks every one of them
    total = 0
    for f in _buildable_forms():
        k = _checkable_triples(f)
        assert check_quasi_periodicity(f, samples=k) == k, f
        total += k
    assert total == 37348


def test_exhaustive_quasi_periodicity_catches_corruption_for_every_seed():
    bad = _corrupt_phi_m4_2()
    k = _checkable_triples(bad)
    for seed in range(10):
        with pytest.raises(AssertionError, match="quasi-periodicity broken"):
            check_quasi_periodicity(bad, samples=k, seed=seed)


def test_quasi_periodicity_sample_ignores_insertion_order():
    # the same values with every term dict built in the opposite order
    bad = _corrupt_phi_m4_2()
    flipped = JacobiQExpansion(bad.weight, bad.index, [
        InvariantElement(dict(reversed(list(t.terms.items())))) for t in bad.terms
    ])

    def outcome(f, seed):
        try:
            return check_quasi_periodicity(f, samples=20, seed=seed)
        except AssertionError as exc:
            return str(exc)

    for seed in range(10):
        assert outcome(bad, seed) == outcome(flipped, seed)


@pytest.mark.parametrize(
    "check", [check_quasi_periodicity, check_quasi_periodicity_by_orbit_scan])
def test_quasi_periodicity_agrees_with_orbit_scan(check, restore_orbit_cache):
    # the library counts the checks it made, at most the K checkable
    # triples; the orbit scan samples with repetition and makes all 20
    for f in _buildable_forms():
        k = _checkable_triples(f) if check is check_quasi_periodicity else 20
        assert check(f, samples=20, seed=7) == min(20, k), f
    with pytest.raises(AssertionError):
        check(_corrupt_theta(), samples=60, seed=0)
    with pytest.raises(AssertionError):
        check(_corrupt_phi_m4_2(), samples=200)


def test_quasi_periodicity_closes_only_the_root_orbit():
    forms = [build(name) for name in ("b2", "u12_2", "v14_2", "w16_2", "x2")]
    before = set(e8jac.e8._orbit_cache)
    for f in forms:
        assert check_quasi_periodicity(f) == 100
    assert set(e8jac.e8._orbit_cache) - before <= {HIGHEST_ROOT.d}


def test_quasi_periodicity_needs_a_checkable_triple():
    # at order 0 every index-1 shift lands at q^1 or beyond
    with pytest.raises(RuntimeError, match="no checkable triple"):
        check_quasi_periodicity(theta_e8(0))


def test_package_has_no_assert_statements():
    # certifications must raise under -O too
    pkg = pathlib.Path(e8jac.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        hits = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not hits, f"{path.name}: assert at lines {hits}"


# ---------------------------------------------------------------------------
# Serialization and display


def test_json_round_trip():
    f = build("phi_-4_2", 2)
    g = JacobiQExpansion.from_json(f.to_json())
    assert g == f
    assert (g.weight, g.index, g.order) == (-4, 2, 2)


def test_display_lines():
    lines = theta_e8(2).display_lines()
    assert lines[0] == "q^0: 1"
    assert lines[1] == "q^1: Σ_2"
