"""Tests for the form registry, cascade systems, subspaces, and tables."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import e8jac
from e8jac import (
    CatalogError,
    CertificationError,
    DominantWeight,
    REGISTRY,
    build,
    classify,
    cusp_basis,
    dimension_bound_table,
    holomorphic_basis,
    holomorphic_subspace,
    pullback_max_table,
    rank_series,
    solve_cascade,
    theta_e8,
    verify_free_module,
)
from e8jac.catalog import (
    Recipe,
    Term,
    _hol_rules,
    _integer_blocks,
    _integer_candidates,
    _mf,
    build_phi16_4,
    default_order,
    parse_recipe,
    weak_generator_names,
)
from e8jac.e8 import (
    BUDGET_ENV, BudgetError, E8Vector, _batch_reduce, _key, _key_weight, _pack,
    orbit_size,
)
from e8jac.invring import SIGMA_LABELS, InvariantElement
from e8jac.jacobi import (
    JacobiQExpansion, check_quasi_periodicity, heat, jf_div_modular, jf_lincomb,
    jf_scale,
)
from e8jac.qseries import ModularQSeries, delta, eisenstein
from conftest import assert_canonical
from oracles import (
    _theta_pair_block,
    _weight_candidates,
    free_module_report_by_forms,
    holomorphic_subspace_by_forms,
    phi16_4_by_raw_rows,
    rank_series_by_convolution,
)


# ---------------------------------------------------------------------------
# Registry


def test_registry_shape():
    assert len(REGISTRY) == 50
    for name, entry in REGISTRY.items():
        assert entry.name == name
        assert entry.weight % 2 == 0
        assert 1 <= entry.index <= 6
        assert entry.expected_class in ("weak", "holomorphic", "cusp")


def test_declared_only_entries():
    # listed for completeness, but out of constructible range
    for name in ("a5", "x5", "b6", "x6"):
        assert not REGISTRY[name].buildable
        assert REGISTRY[name].builder is None
        with pytest.raises(CatalogError, match="not constructible"):
            build(name)


def test_registry_meta_json():
    meta = REGISTRY["phi_-4_2"].meta_json()
    assert meta["name"] == "phi_-4_2"
    assert meta["weight"] == -4
    assert meta["index"] == 2
    assert meta["display"] == {"0": "2Σ_2 − Σ_4 − 240"}
    assert list(REGISTRY["b2"].meta_json()["display"]) == ["0", "1", "2"]
    # an alias carries no pins: they live on its target
    assert REGISTRY["a2"].meta_json()["display"] == {}
    assert json.loads(json.dumps(meta)) == meta


def test_only_the_theta_seeds_are_function_builders():
    seeds = {name: entry.builder for name, entry in REGISTRY.items()
             if entry.buildable and not isinstance(entry.builder, Recipe)}
    assert seeds.pop("phi_-16_4") is build_phi16_4
    assert {name: b.__name__ for name, b in seeds.items()} == {
        "theta_e8": "theta_e8", "x1": "theta_e8", "a1": "theta_e8",
        "a4": "_b_a4"}


def test_build_unknown_name():
    with pytest.raises(KeyError, match="nosuchform"):
        build("nosuchform")


def test_default_orders():
    assert default_order(1) == default_order(3) == 3
    assert default_order(4) == 2
    assert build("x2").order == 3
    assert build("phi_-4_4").order == 2


def test_build_memo_returns_same_object():
    assert build("x2", 2) is build("x2", 2)
    assert build("x2", 2) is not build("x2", 3)


def test_build_respects_requested_order():
    f = build("phi_-4_2", 1)
    assert f.order == 1
    assert (f.weight, f.index) == (-4, 2)


def test_aliases_agree():
    assert build("a1", 2) == build("theta_e8", 2) == theta_e8(2)
    assert build("a2", 2) == build("x2", 2)
    assert build("a3", 2) == build("x3", 2)


def test_aliases_share_the_cached_form():
    assert build("a2", 2) is build("x2", 2)
    assert build("a3", 2) is build("x3", 2)
    assert build("x1", 2) is build("a1", 2) is build("theta_e8", 2)
    for alias, target in (("x1", "theta_e8"), ("a1", "theta_e8"),
                          ("a2", "x2"), ("a3", "x3")):
        assert REGISTRY[alias].buildable
        assert REGISTRY[alias].recipe == f"alias of {target}"
        assert REGISTRY[alias].weight == REGISTRY[target].weight


def test_recipe_text_is_rendered_from_the_recipe():
    rendered = 0
    for name, entry in REGISTRY.items():
        if entry.recipe.startswith("alias of "):
            continue
        if isinstance(entry.builder, Recipe):
            assert entry.recipe == str(entry.builder), name
            rendered += 1
    assert rendered == 39
    assert REGISTRY["b4"].recipe == "(1/33)·b2|T₋(2) + (2/55)Δ·phi_-6_4"
    assert REGISTRY["phi_-4_2"].recipe == (
        "(theta_e8·theta_e8 − (1/9)E4·theta_e8|T₋(2)) / Δ")
    assert REGISTRY["cusp_8_4"].recipe == "Δ·phi_-4_4 + (32/9)Δ²·phi_-16_4"


def test_term_parse():
    t = Term.parse("-5/324 E4^2 E6 Δ heat(x2·theta_e8|T₋(3))")
    assert (t.coeff, t.e4, t.e6, t.delta) == (Fraction(-5, 324), 2, 1, 1)
    assert t.heat and t.factors == ("x2", "theta_e8") and t.lift == 3
    assert t.text() == "(5/324)E4²E6Δ·heat(x2·theta_e8|T₋(3))"
    assert Term.parse("phi_0_2") == Term(Fraction(1), 0, 0, 0, False,
                                         ("phi_0_2",), 1)


def test_recipes_evaluate_like_operators():
    p4 = build("phi_-4_2", 2)
    assert parse_recipe("3 heat(phi_-4_2)")(2) == heat(p4).scale(3)
    assert parse_recipe("E4 Δ phi_-4_2")(2) == jf_scale(
        jf_scale(p4, eisenstein(4, 2)), delta(2))
    assert parse_recipe("1/9 theta_e8|T₋(2)")(2) == build("x2", 2)


def test_recipe_terms_of_mixed_kind_are_a_certification_error():
    with pytest.raises(CertificationError, match="disagree"):
        parse_recipe("theta_e8", "phi_-4_2")(1)


def test_build_contract_is_an_exception(monkeypatch):
    entry = REGISTRY["x4"]
    monkeypatch.setitem(REGISTRY, "x4", replace(entry, builder=theta_e8))
    with pytest.raises(CertificationError, match="contract"):
        build("x4", 5)


def test_free_module_count_is_an_exception(monkeypatch):
    import e8jac.catalog as catalog

    monkeypatch.setattr(catalog, "dim_modular", lambda k: 7)
    with pytest.raises(CertificationError, match="candidates"):
        verify_free_module(1, 8, order=1)


def test_free_module_needs_integral_modular_products(monkeypatch):
    import e8jac.catalog as catalog

    half = ModularQSeries(4, [Fraction(1, 2), 0, 0, 0])
    monkeypatch.setattr(catalog, "_mf", lambda *args: half)
    with pytest.raises(CertificationError, match="not an integer"):
        verify_free_module(1, 8)


_STARRED = ("u10_4", "u12_4", "cusp_8_4", "cusp_10_4", "cusp_12_4")


@pytest.mark.parametrize("name", _STARRED)
def test_starred_recipes_build_at_every_order(name):
    # the cancelling term is a literal coefficient, so no order is too low
    for n in (0, 1):
        assert build(name, n) == build(name, 2).truncate(n)


@pytest.mark.parametrize("name", _STARRED)
def test_starred_literals_cancel_the_q2_sigma16(name):
    m16 = DominantWeight.from_fw((2, 0, 0, 0, 0, 0, 0, 0))
    for n in (2, 3):
        assert build(name, n).term(2).coeff(m16) == 0


def test_phi_8_3_literals_normalize_the_sigma8_lead():
    assert build("phi_-8_3").term(0).display_map()["Σ_{8'}"] == 1


def test_expected_classes_hold_for_index2():
    for name in ("phi_-4_2", "phi_-2_2", "phi_0_2", "x2", "b2",
                 "u12_2", "v14_2", "w16_2"):
        f = build(name, 2)
        assert classify(f).kind == REGISTRY[name].expected_class, name


# ---------------------------------------------------------------------------
# Cascade systems


def test_cascade_index2():
    cs = solve_cascade(2, -4, (0, 2, 4))
    assert cs.index == 2 and cs.start_weight == -4
    assert cs.norms == (0, 2, 4)
    # two vanishing rows plus the weight-0 balance row
    assert len(cs.matrix) == 3
    assert cs.matrix[0] == (1, 1, 1)
    assert cs.matrix[1] == (Fraction(2, 3), Fraction(1, 6), Fraction(-1, 3))
    assert cs.nullspace == ((1, -2, 1),)


def test_cascade_index3():
    cs = solve_cascade(3, -8, (0, 2, 4, 6, 8))
    assert cs.nullspace == ((1, -4, 6, -4, 1),)


def test_cascade_index4():
    cs = solve_cascade(4, -16, tuple(range(0, 18, 2)))
    assert cs.nullspace == ((1, -8, 28, -56, 70, -56, 28, -8, 1),)


@pytest.mark.parametrize("t,w0,top", [(3, -10, 10), (3, -6, 6),
                                      (4, -18, 18), (4, -14, 14)])
def test_cascade_trivial_systems(t, w0, top):
    cs = solve_cascade(t, w0, tuple(range(0, top + 2, 2)))
    assert cs.nullspace == ()


def test_cascade_validation():
    with pytest.raises(ValueError, match="index"):
        solve_cascade(0, -4, (0, 2))
    with pytest.raises(ValueError, match="weight"):
        solve_cascade(2, -3, (0, 2))
    with pytest.raises(ValueError, match="weight"):
        solve_cascade(2, 0, (0, 2))
    for bad in [(), (2, 4), (0, 3), (0, 4, 2)]:
        with pytest.raises(ValueError, match="norms"):
            solve_cascade(2, -4, bad)


# ---------------------------------------------------------------------------
# Holomorphic subspaces


def test_weak_generator_names():
    assert weak_generator_names(1) == ("theta_e8",)
    assert len(weak_generator_names(2)) == 3
    assert len(weak_generator_names(3)) == 5
    assert len(weak_generator_names(4)) == 10
    with pytest.raises(ValueError, match="index 5 outside the constructible range 1..4"):
        weak_generator_names(5)


@pytest.mark.parametrize("t", [0, 5])
def test_free_module_refuses_an_index_outside_1_to_4(t):
    with pytest.raises(ValueError, match=f"index {t} outside the constructible range 1..4"):
        verify_free_module(t, 16)


def test_holomorphy_rules_from_coset_maxima():
    # (n, 2nt) for every n with 2nt below the largest coset minimum 0, 4, 8, 16
    assert [_hol_rules(t) for t in (1, 2, 3, 4)] == [
        (), ((0, 0),), ((0, 0), (1, 6)), ((0, 0), (1, 8)),
    ]


def test_weight4_solutions_match_recipes():
    # the linear solver and the operator recipes must find the same forms
    assert holomorphic_subspace(4, 1, 2) == [theta_e8(2)]
    assert holomorphic_subspace(4, 2, 2) == [build("x2", 2)]


def test_weight6_index3_solution():
    sols = holomorphic_subspace(6, 3, 2)
    assert len(sols) == 1
    assert sols[0] == build("b3", 2)
    assert sols[0].term(0).display_map() == {None: Fraction(1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b3_recipe_is_the_unique_weight6_index3_form(n):
    # the linear solver is the oracle for the literal recipe
    assert holomorphic_subspace(6, 3, n) == [build("b3", n)]


def test_weight4_index4_two_solutions():
    sols = holomorphic_subspace(4, 4, 2)
    assert len(sols) == 2
    consts = sorted(s.term(0).coeff(DominantWeight.from_fw([0] * 8)) for s in sols)
    assert consts == [0, 1]
    for s in sols:
        assert classify(s).kind in ("holomorphic", "cusp")


def test_subspace_validation():
    with pytest.raises(ValueError, match="order"):
        holomorphic_subspace(4, 3, 0)
    with pytest.raises(ValueError, match="index"):
        holomorphic_subspace(4, 5, 2)
    with pytest.raises(ValueError, match="even"):
        holomorphic_subspace(5, 2, 2)


def test_empty_subspace_below_range():
    assert holomorphic_subspace(-20, 2, 2) == []


@pytest.mark.parametrize("weight,t,order", [
    (4, 1, 2), (4, 2, 2), (4, 3, 2), (4, 4, 2), (6, 3, 2), (8, 4, 2),
    (10, 4, 3), (12, 3, 4), (16, 4, 2), (20, 3, 3), (8, 2, 5), (-20, 2, 2),
])
def test_holomorphic_subspace_matches_form_oracle(weight, t, order):
    # the oracle builds every candidate form and solves on Fraction coefficients
    assert holomorphic_subspace(weight, t, order) == \
        holomorphic_subspace_by_forms(weight, t, order)


def test_holomorphic_subspace_builds_no_candidate_form(monkeypatch):
    import e8jac.catalog as catalog
    import e8jac.jacobi as jacobi

    assert len(holomorphic_subspace(8, 4, 2)) == 5  # builds the generators
    calls = []

    def counted_scale(*args):
        calls.append("jf_scale")
        return jf_scale(*args)

    monkeypatch.setattr(catalog, "jf_scale", counted_scale)
    monkeypatch.setattr(jacobi, "jf_scale", counted_scale)
    assert len(holomorphic_subspace(8, 4, 2)) == 5
    assert calls == []


# ---------------------------------------------------------------------------
# Free-module structure


def test_free_module_index1():
    rep = verify_free_module(1, 16, order=2)
    assert rep.ok
    assert rep.generator_count == 1
    # one copy of the modular ring shifted to weight 4
    expected = {4: 1, 6: 0, 8: 1, 10: 1, 12: 1, 14: 1, 16: 2}
    assert {w: e for w, e, _, _, _ in rep.rows} == expected
    for _, e, rk, ok, _ in rep.rows:
        assert ok and rk == e


def test_free_module_index2():
    rep = verify_free_module(2, 6, order=2)
    assert rep.ok
    assert rep.rows[0][0] == -4


@pytest.mark.parametrize("order", [None, 2])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_free_module_matches_form_oracle(t, order):
    # the oracle builds every candidate form and ranks Fraction coefficients
    assert verify_free_module(t, 16, order) == free_module_report_by_forms(t, 16, order)


# sha256 of repr(verify_free_module(t, max_weight, order).rows), generated
# while rank still ran Bareiss's elimination: systems deeper than the other
# tests reach, with the weights that fail. (4, 24) fails where order 2 is
# too shallow to tell the candidates apart.
DEEP_FREE_MODULE_PINS = [
    ((4, 40, 4), [], "ff8a07c8c3ba644daac84b1c1be3c932da4b8e95ef2487a2a6d323ceacf7a6c7"),
    ((3, 40, None), [40], "9c85fa2dd509cbd92cd22f4ab885cf652510ce6a1a3e03dc03fd6bdfda09b8a5"),
    ((4, 24, None), [20, 22, 24],
     "3430b232bd92ea3c0cef35a5b72f2da1afc078d6a1185a5cacbf8942e677f352"),
]


@pytest.mark.parametrize("args, failing, digest", DEEP_FREE_MODULE_PINS,
                         ids=["t4-w40-order4", "t3-w40", "t4-w24"])
def test_free_module_deep_systems_are_pinned(args, failing, digest):
    rep = verify_free_module(*args)
    assert [w for w, _, _, ok, _ in rep.rows if not ok] == failing
    assert hashlib.sha256(repr(rep.rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_integer_candidates_are_scaled_candidate_forms(t):
    order = default_order(t)
    gens = [build(g, order) for g in weak_generator_names(t)]
    keys, blocks = _integer_blocks(gens)
    orbits = [_key_weight(k) for k in keys]
    for w in range(min(g.weight for g in gens), 17, 2):
        rows, scales = _integer_candidates(w, gens, blocks, order)
        cands = _weight_candidates(w, t, order)
        assert len(rows) == len(scales) == len(cands)
        for row, d, cand in zip(rows, scales, cands):
            assert all(set(cand.term(n).terms) <= set(orbits) for n in range(order + 1))
            assert all(type(x) is int for x in row)
            assert row == [d * cand.term(n).coeff(mm)
                           for n in range(order + 1) for mm in orbits]


@pytest.mark.parametrize("names", [
    ("phi_-4_2", "phi_-4_2"),
    # x2 has denominator lcm 1 where the others have 9, so the reported
    # combination must undo the row scaling
    ("phi_-4_2", "phi_-2_2", "phi_0_2", "x2"),
])
def test_free_module_deficiency_names_a_vanishing_combination(monkeypatch, names):
    import e8jac.catalog as catalog

    monkeypatch.setitem(catalog._WEAK_GEN_NAMES, 2, names)
    rep = verify_free_module(2, 16)
    assert not rep.ok
    assert rep == free_module_report_by_forms(2, 16)
    for w, expected, rk, ok, detail in rep.rows:
        if ok:
            continue
        assert rk < expected
        combo = json.loads(detail.removeprefix("vanishing combination: "))
        cands = _weight_candidates(w, 2, default_order(2))
        assert jf_lincomb([(x, c) for x, c in zip(combo, cands) if x]).is_zero()


def test_free_module_builds_no_candidate_form(monkeypatch):
    import e8jac.catalog as catalog
    import e8jac.jacobi as jacobi

    verify_free_module(4, 16)  # builds the generators
    calls = []
    init = JacobiQExpansion.__init__

    def counted_init(self, *args):
        calls.append("JacobiQExpansion")
        init(self, *args)

    def counted_scale(*args):
        calls.append("jf_scale")
        return jf_scale(*args)

    monkeypatch.setattr(JacobiQExpansion, "__init__", counted_init)
    monkeypatch.setattr(catalog, "jf_scale", counted_scale)
    monkeypatch.setattr(jacobi, "jf_scale", counted_scale)
    assert verify_free_module(4, 16).ok
    assert calls == []


# ---------------------------------------------------------------------------
# Tables


def test_rank_series():
    assert rank_series(6) == [1, 1, 3, 5, 10, 15, 27]
    assert rank_series(0) == [1]
    assert rank_series(14)[14] == 505
    assert rank_series(300) == rank_series_by_convolution(300)
    with pytest.raises(ValueError):
        rank_series(-1)


def test_rank_series_is_bounded_by_the_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "100")
    assert len(rank_series(99)) == 100
    with pytest.raises(BudgetError):
        rank_series(100)


def test_dimension_bounds_low_range():
    table = dimension_bound_table(12)
    assert table == [
        (4, 1, ""),
        (6, 0, "forced to zero: no invariant form of weight 6, index 1"),
        (8, 1, ""),
        (10, 1, ""),
        (12, 2, ""),
    ]


def test_dimension_bounds_top_of_range():
    table = dimension_bound_table(40)
    assert table[-1] == (40, 24, "")
    assert len(table) == 19


def test_dimension_bounds_validation():
    with pytest.raises(ValueError):
        dimension_bound_table(13)
    with pytest.raises(ValueError):
        dimension_bound_table(2)
    with pytest.raises(CatalogError, match="weight 40"):
        dimension_bound_table(42)


def test_pullback_max_table():
    table = pullback_max_table()
    assert len(table) == len(SIGMA_LABELS)
    d = dict(table)
    assert d["Σ_2"] == 2
    assert d["Σ_4"] == 4


# ---------------------------------------------------------------------------
# Distinguished bases


def test_index3_bases():
    hol = holomorphic_basis(3, 2)
    assert [n for n, _ in hol] == ["x3", "b3", "x2*theta", "b2*theta", "theta^3"]
    for name, f in hol:
        assert f.index == 3
        assert classify(f).kind in ("holomorphic", "cusp"), name
    cusp = cusp_basis(3, 2)
    assert len(cusp) == 5
    for name, f in cusp:
        assert classify(f).kind == "cusp", name


def test_index4_bases():
    hol = holomorphic_basis(4, 2)
    assert len(hol) == 10
    weights = [f.weight for _, f in hol]
    assert weights == sorted(weights)
    for name, f in hol:
        assert f.index == 4
        assert classify(f).kind in ("holomorphic", "cusp"), name
    cusp = cusp_basis(4, 2)
    for name, f in cusp:
        assert classify(f).kind == "cusp", name


def test_bases_outside_tabulated_range():
    with pytest.raises(ValueError):
        holomorphic_basis(2)
    with pytest.raises(ValueError):
        cusp_basis(5)


# ---------------------------------------------------------------------------
# Full-catalog pins: sha256 of build(name).to_json(), serialized with sorted
# keys and no whitespace, for every buildable form at its default order and
# for every index <= 3 form at order 4.


def _sha(form):
    text = json.dumps(form.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_PINS_DEFAULT_ORDER = {
    "a0_3": "668d1dc0f028ceb50e2f27aef4fbb96b06b54553c59494b313e99df44c927d6f",
    "a1": "01e5e16ccd867ed28756eebb5332e6f7bbd13b97d73da8ae191fd25e62813b45",
    "a2": "ad04bf3d153ee4cf8b71ca6cddd000fd9de7b4ffc4fa115d88c05c1843ec11bc",
    "a3": "eb9fa90e0d9e69b33248cdf9d10eef4b261723a2c42878b3646d30d8d9281f23",
    "a4": "93b616ffd86fbaf5e7d1b5a5b711412e3076d0d4923660685872b46b85cc9a0e",
    "b2": "120f5400fdf91d4b17031c7afcf69af52a1e87162237176995b12925dd36fef2",
    "b3": "19a3f86cf10e0a6b121b2df774946943979e902eb98a844080f0cc5e65c0e303",
    "b4": "1ff8f38d6c14e7bff116feb93ce867e9c75c916cad44c887875714650f2b38c1",
    "b_-2_3": "02107759b4e7c825357b4eafe9b3a2e9c7989614353974fb2add30b09c49303c",
    "c8_4": "76a79a2df49a910fe8ba8c3ed9d10c94c9c1c14f4c60696b7072296be823bc63",
    "cusp_10_4": "03f97838dc402feda4a52317ac9c0cc63724dfdae9686a74f66b66c470905a28",
    "cusp_12_4": "8c5d0a3babd10a384827aeebe773da13a27ff5eee1a1b4d2ac9c1f83b935a59c",
    "cusp_8_4": "466c7171a0a145202df0c835a0ee8c2bd21d6a82bb3dfed5d3fd4546526cf302",
    "phi_-10_4": "f8f10cd4c1b71c4fa1d4fc330644444012be89a9417ff41317cc2d89ff45173c",
    "phi_-12_4": "4d4a42b2da05e5a52cf2300a141aaffe9d0e348fa41b0a6836a1147da21d4606",
    "phi_-14_4": "517dd5357927564698c8dc2fd045d20117cd297c8b320479bd28c113938c8056",
    "phi_-16_4": "abed76ace5e1f2f87ee8d415d2ff5cc11b0c5b22b25b328afe33b12c58611701",
    "phi_-2_2": "c17883c059ffb5783848f152b1133ae94e7fd82e629fbbb497140b2dcb1b1078",
    "phi_-2_3": "1e9039a9ba68967e868988e53e10c34cab82cf519e7b37e2ab0652476376d915",
    "phi_-2_4": "cf13b8df4ef9ccaebbe05820065320eef0dbc100199c3a37b09f580d52d693c6",
    "phi_-4_2": "dfb6aee4d624642c633c10a7ab42ac26f5380cb872868075286a22e5a49a3c2b",
    "phi_-4_3": "dd32447b319c56d27e7390b7b466ae80679b3eae78a834125f93305d1db7da95",
    "phi_-4_4": "98dc216f8f727e6ee6a82ed9ba58129a2860a85fedd80709ae6fd9aba6679567",
    "phi_-6_3": "1eb1be718ab7d9fe64c117e8369ac2364d304a7ca8bddc2bdf62c1f168b4622a",
    "phi_-6_4": "32dc78892c48fd7f14a960afeef1f9cff980ee5572fd504dca05ca68d4b18883",
    "phi_-8_3": "117e455e6a154e2810f4f3d3666c026d4259ebea69a242da07935acb40be1c40",
    "phi_-8_4": "00bed94fe178c1ef8de3065265b40ca49ddf704874c4cf3c747d80e4106a64e5",
    "phi_0_2": "aae05567c2674a3f6d2e7815d81365e351732851425493956293fe7bdb8c2518",
    "phi_0_3": "66da38e830d8c87e78362b242ae9da571d562ea917a612eda1b555895c27c2fd",
    "phi_0_4": "a0ebafa752cd0d72f794331f6dfd13c813f120789fd4110b575cc1ee09a35b3d",
    "psi_-8_4": "62b8d39c21f12e34381d075fa02b97f2cb81347390e6431b3d9bc7718e071229",
    "theta_e8": "01e5e16ccd867ed28756eebb5332e6f7bbd13b97d73da8ae191fd25e62813b45",
    "u10_3": "5154954557d67cb4e4b8f2ad97194239cf9261b148db74b37b665a93fe8437bd",
    "u10_4": "0a08a49e71221bb5ef9af15583182f27b85008de825f2c381aa6d88bb001dc18",
    "u12_2": "47be6393c69dd64560169075b9ddcc32f93569f07d4860242edd95d78712e9c1",
    "u12_3": "5d8a3375cdeeda23d10e985090af0d8f7ec2108570ed21d388ed77af35ed15d0",
    "u12_4": "69c345be7ced5cebfe087554ca39b191e9445b084a26edb65822dddda5ba0848",
    "u14_3": "316fea3a4ddbc23a1e2904fabb927931597b8ae798ad7b3dacb86580b7f90e68",
    "u16_3": "d59f5344a5450babf21466ff018c17ee91c0dc411b4feeae09ce581d76b84e45",
    "v12_3": "180e816bd8d266b8c4ee07cc88bf87d4d6833afac4c5433f70b1c64aef3bb825",
    "v14_2": "001d9284d1528344d19a32c0b00d599a0acb04e5cbc935ea925516872c8d3a13",
    "w16_2": "092cc22974ea7e70266a69bab7abef4798830a3067ec04303d7991fafbce8e7f",
    "x1": "01e5e16ccd867ed28756eebb5332e6f7bbd13b97d73da8ae191fd25e62813b45",
    "x2": "ad04bf3d153ee4cf8b71ca6cddd000fd9de7b4ffc4fa115d88c05c1843ec11bc",
    "x3": "eb9fa90e0d9e69b33248cdf9d10eef4b261723a2c42878b3646d30d8d9281f23",
    "x4": "c9399bda2b81aa6b7427733ad1584ed77bf27fd38682ecaedf7f76ef78aed34a",
}

_PINS_ORDER_4 = {
    "a0_3": "ae5dc00dc25a6d95e83d38fa8944317580256e73523e99a7025f7530f7006aae",
    "a1": "0e4e36c1f45f8b436c7e7854944f4283dca17e438c0f499ce8b4f8834eb1276f",
    "a2": "8258e08d2b47d2ce78eb009ecbe3e15d17498444188b09c2d694461eb59b2661",
    "a3": "6f0df5fddd4362fca8f15fc02e8d8e3827ac6808e5144672a448d8e9be90a8d4",
    "b2": "69aec39d131bd1ae783ae1a07886beeeecabfb54e9b7bcb1c6e2f59aa2710e12",
    "b3": "a10762a425026552872d4949873d5771d79461eda781ea1ef1e07990535ab15c",
    "b_-2_3": "471d63718a4fe4c758edc3ecd6b8876d438949046dc9f738057207d7d0411243",
    "phi_-2_2": "5de354e723e6b96cd29443084578b4e0dfd573f9f476ff153737f7c034ce0a5a",
    "phi_-2_3": "8f6dfd2093a9a1f69ef88f11501d6b22f495de625f323e6186105b50365e2732",
    "phi_-4_2": "70acb355d5e4ce2dc0a660e85d7b3c5fe936b3d5053cd615efa36cebe3f1d852",
    "phi_-4_3": "2001ae8a5847103d4ce75ab5339407676d0ef9acb59cdc6b2546af9192b00f01",
    "phi_-6_3": "e8db5b3dd8ae0bb5a3b68b8b868cef68b9bb4263890b5ffa4bdbdfae9fbb9976",
    "phi_-8_3": "567a54debafad21ef64dd5cbfff52fb9d0a437d3372d26e58eaf1a8bade5aca4",
    "phi_0_2": "7456e7ca5c9a5d039467f122c67effa19bcedf7613a2d17851eba4cec48464bc",
    "phi_0_3": "9aaee8acdbd9cb5bd6aac49ef96b80d89f094203d45e5ce17a68d3f9932d53ce",
    "theta_e8": "0e4e36c1f45f8b436c7e7854944f4283dca17e438c0f499ce8b4f8834eb1276f",
    "u10_3": "25eb545ff72fe293810a058306650c954cc5f77d4b7393b6454e966388dab304",
    "u12_2": "56b5feaf7483868e31995a33c3e46dd06738beab9e045e6794053a2e29cb98db",
    "u12_3": "a45d7d5a01e15469e2a8217f2c8fdf20a36d5aaf8ebaa3cd7cb714e784e62373",
    "u14_3": "ba48365015e74bc47c0bed10db6c01756d7a8a4ec32a70eeedcfa75f2972b344",
    "u16_3": "aafe0dea756b817371f17f3cdc0a530975764181d3aea8a6f59856ef31455e57",
    "v12_3": "a8ff9ffd1b11393cd13db94d583af2dce214df93a0a10e3311f799ad907895d7",
    "v14_2": "6b435f51847e2735e60070e892881054e77c2c25692bd3c4228f6bb4896aed36",
    "w16_2": "5b4c39d7925a8dc89d7694aaf4a62b907546af31d8ad1647f001d043b44b7047",
    "x1": "0e4e36c1f45f8b436c7e7854944f4283dca17e438c0f499ce8b4f8834eb1276f",
    "x2": "8258e08d2b47d2ce78eb009ecbe3e15d17498444188b09c2d694461eb59b2661",
    "x3": "6f0df5fddd4362fca8f15fc02e8d8e3827ac6808e5144672a448d8e9be90a8d4",
}


def test_pins_cover_the_catalog():
    buildable = {n for n, e in REGISTRY.items() if e.buildable}
    assert set(_PINS_DEFAULT_ORDER) == buildable
    assert set(_PINS_ORDER_4) == {n for n in buildable if REGISTRY[n].index <= 3}


@pytest.mark.parametrize("name", sorted(_PINS_DEFAULT_ORDER))
def test_catalog_pin_default_order(name):
    assert _sha(build(name)) == _PINS_DEFAULT_ORDER[name]


@pytest.mark.parametrize("name", sorted(_PINS_ORDER_4))
def test_catalog_pin_order_4(name):
    assert _sha(build(name, 4)) == _PINS_ORDER_4[name]


def test_built_forms_are_canonical():
    # every stored coefficient is an integer numerator over its q-power's one
    # denominator, keyed by the packed row of a dominant weight
    names = sorted(n for n, e in REGISTRY.items() if e.buildable)
    assert len(names) == 46
    for name in names:
        for term in build(name).terms:
            assert_canonical(term)
            keys = list(term.num)
            rows = np.array([_key_weight(k).d for k in keys], dtype=np.int64)
            assert _pack(rows.reshape(-1, 8)).tolist() == keys
            assert [_key(_key_weight(k).d) for k in keys] == keys


def test_every_form_is_prefix_stable():
    # a form built to order k is the order-k truncation of a deeper build
    names = sorted(n for n, e in REGISTRY.items() if e.buildable)
    assert len(names) == 46
    for name in names:
        deep = build(name, 6)
        for k in range(6):
            assert build(name, k) == deep.truncate(k), (name, k)


# ---------------------------------------------------------------------------
# The theta quotient phi_-16_4. Oracles: a dict fold of four pair blocks
# (tests/oracles.py), binned by dominant row through a tuple dict, and the
# raw-row fold of tests/oracles.py, binned by canonical row only at the top.


def _fold(d1, d2, min_rest, budget):
    out = {}
    for (t1, c1), v1 in d1.items():
        cap = budget - min_rest - t1
        for (t2, c2), v2 in d2.items():
            if t2 > cap:
                continue
            key = (t1 + t2, c1 + c2)
            s = out.get(key, 0) + v1 * v2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _raw_by_dict_fold(order):
    """{(doubled q-exponent, raw row of (e_u, e_v) per pair): coefficient}
    of the numerator of the theta quotient at the given order."""
    budget = 2 * (order + 2)
    block = _theta_pair_block(budget - 3)
    half = _fold(block, block, 2, budget)
    return _fold(half, half, 0, budget)


def _phi16_4_by_dict_fold(order):
    n_num = order + 2
    full = _raw_by_dict_fold(order)
    terms = []
    for n in range(n_num + 1):
        raw = [(c, v) for (t2, c), v in full.items() if t2 == 2 * n]
        rows = _batch_reduce(2 * np.array([c for c, _ in raw], dtype=np.int64))
        bins = {}
        for row, (_, v) in zip(rows.reshape(-1, 8).tolist(), raw):
            bins[tuple(row)] = bins.get(tuple(row), 0) + v
        elem = {}
        for key, total in sorted(bins.items()):
            if total:
                m = DominantWeight(E8Vector(key))
                elem[m] = Fraction(total, orbit_size(m))
        terms.append(InvariantElement(elem))
    quot = jf_div_modular(JacobiQExpansion(8, 4, terms), _mf(0, 0, 2, n_num))
    return quot.scale(1 / quot.term(0).display_map()["Σ_{16'}"])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_phi16_4_matches_dict_fold_oracle(order):
    assert _sha(build_phi16_4(order)) == _sha(_phi16_4_by_dict_fold(order))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_phi16_4_matches_raw_row_oracle(monkeypatch, order):
    # the raw rows of order 4 need 2,458,056 product rows of budget
    monkeypatch.setenv(BUDGET_ENV, "3000000")
    assert _sha(build_phi16_4(order)) == _sha(phi16_4_by_raw_rows(order))


# sha256 of build_phi16_4(order).to_json(), generated before the int64 key
# tables replaced the dict fold; order 2 is pinned above as the default.
_PINS_PHI16_4 = {
    0: "73e0855585b70a4c53d313472f728a8d3ec2b0b6eaa051cc650dc96b111358e5",
    1: "48229758917dde7c20de71b713c523480017b505f7237a313df459bd89da6ba6",
    3: "2c5e0efcf86995b65696a04f2ee9cf0aeb6cede334b8b405f552c5c8c7e7d52f",
}


@pytest.mark.parametrize("order", sorted(_PINS_PHI16_4))
def test_phi16_4_pins(order):
    assert _sha(build_phi16_4(order)) == _PINS_PHI16_4[order]


def test_phi16_4_past_the_default_budget_is_a_budget_error(monkeypatch):
    # order 19 forms 2,008,087 product rows, past the default budget; order
    # 4 forms 5,710, so a budget one row short raises and a budget of
    # exactly 5,710 builds it, extending the order-3 pin and quasi-periodic
    # on every triple
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    with pytest.raises(BudgetError, match="2008087 product rows"):
        build_phi16_4(19)
    monkeypatch.setenv(BUDGET_ENV, "5709")
    with pytest.raises(BudgetError, match="5710 product rows"):
        build_phi16_4(4)
    monkeypatch.setenv(BUDGET_ENV, "5710")
    form = build_phi16_4(4)
    assert _sha(form.truncate(3)) == _PINS_PHI16_4[3]
    assert check_quasi_periodicity(form, samples=10**6) == 6601


def test_phi16_4_reduces_only_d8_canonical_rows(monkeypatch):
    # reducing every distinct raw row would send 204,418 rows at order 2
    def d8_canonical(row):
        out = sorted(abs(x) for x in row)
        if sum(x < 0 for x in row) % 2 and out[0]:
            out[0] = -out[0]
        return tuple(out)

    canonical = {
        (t2, d8_canonical([2 * x for x in row]))
        for t2, row in _raw_by_dict_fold(2)
    }
    rows = []
    reduce = e8jac.catalog._batch_reduce

    def counted(arr):
        rows.append(len(arr))
        return reduce(arr)

    monkeypatch.setattr(e8jac.catalog, "_batch_reduce", counted)
    build_phi16_4(2)
    assert 0 < sum(rows) <= len(canonical)


def test_phi16_4_memory_stays_chunked():
    tracemalloc.start()
    try:
        build_phi16_4(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def _run_optimized(code):
    """Run code under python -O with the package importable; its stdout."""
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_PATCHED_SEED = (
    "import numpy as np\n"
    "import e8jac.catalog as c\n"
    "real = c._theta_square\n"
    "def patched(cap):\n"
    "    table = real(cap)\n"
    "{patch}"
    "    return table\n"
    "c._theta_square = patched\n"
    "try:\n"
    "    c.build_phi16_4(0)\n"
    "except c.CertificationError as e:\n"
    "    print(e)\n"
)


def test_phi16_4_odd_exponent_is_an_exception():
    # every genuine seed term has exponent A^2 + delta^2 = 1 mod 4, so one
    # of exponent 0 gives a four-factor product an odd doubled q-exponent
    patch = ("    table[0] = (c._pack(np.zeros((1, 8), np.int64)),"
             " np.array([1], np.int64))\n")
    out = _run_optimized(_PATCHED_SEED.format(patch=patch))
    assert out == "odd doubled q-exponent in the theta product"


@pytest.mark.parametrize("scale", [2**20, 2**40])
def test_phi16_4_int64_overflow_is_an_exception(scale):
    # 2**20: the two-factor table fits int64 but its square would wrap;
    # 2**40: seed x seed would already wrap
    patch = f"    table = {{e: (k, v * {scale}) for e, (k, v) in table.items()}}\n"
    out = _run_optimized(_PATCHED_SEED.format(patch=patch))
    assert out == "theta product coefficients would overflow int64"
