"""Named-form registry, linear-system solvers, and structure verification.

Every explicitly constructed form of index 1..4 lives here under a stable
ASCII identifier, together with its recipe, its normalization rule, and the
class (weak / holomorphic / cusp) it is expected to have. Builders compute
required input orders backward through the operator chain, so a requested
truncation order is honest: all returned terms are exact.

Alongside the registry: the q^0 cascade linear systems, holomorphic-subspace
extraction by exact linear algebra, free-module rank verification, the rank
generating series, the dimension-bound table, and the pullback maxima table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import isqrt

import numpy as np

from .e8 import (
    DominantWeight,
    E8Vector,
    _batch_reduce,
    _pack,
    _unpack,
    max_pairing,
    orbit_size,
)
from .invring import SIGMA_LABELS, InvariantElement, label_weight
from .jacobi import (
    JacobiQExpansion,
    heat,
    hecke_t_minus,
    jf_div_modular,
    jf_mul,
    jf_scale,
    rescale_z,
    theta_e8,
)
from .linalg import nullspace, rank
from .qseries import ModularQSeries, delta, dim_modular, eisenstein, series_mul, sigma_pow

__all__ = [
    "CatalogError",
    "RegistryEntry",
    "REGISTRY",
    "build",
    "build_phi16_4",
    "CascadeSystem",
    "solve_cascade",
    "holomorphic_subspace",
    "ModuleReport",
    "verify_free_module",
    "rank_series",
    "dimension_bound_table",
    "pullback_max_table",
    "weak_generator_names",
    "holomorphic_basis",
    "cusp_basis",
]


class CatalogError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# small q-series helpers (cached per order)

@cache
def _E(k: int, order: int) -> ModularQSeries:
    return eisenstein(k, order)


@cache
def _D(order: int, power: int = 1) -> ModularQSeries:
    d = delta(order)
    out = d
    for _ in range(power - 1):
        out = series_mul(out, d)
    return out


@cache
def _mf(a4: int, a6: int, order: int) -> ModularQSeries:
    """E4^a4 * E6^a6 at the given order."""
    return _E(4, order) ** a4 * _E(6, order) ** a6


def _display_coeff(elem: InvariantElement, label: str) -> Fraction:
    m = label_weight(label)
    return elem.coeff(m) * Fraction(orbit_size(m), 240)


# ---------------------------------------------------------------------------
# The theta-quotient seed for index 4.
#
# Each factor pair theta(u+v)^2 theta(u-v)^2 is expanded from the classical
# odd theta sum: writing theta(w)^2 = -sum_A (-1)^A S_A(q) xi^A with
# S_A = sum over delta = A+1 mod 2 of q^((A^2+delta^2)/4), the pair block is
# sum_{A,B} (-1)^(A+B) S_A S_B zeta_u^(A+B) zeta_v^(A-B). q-exponents are
# tracked doubled (odd integers per block, even totals across four blocks).


def _theta_pair_block(max_t2: int) -> dict[tuple[int, tuple[int, int]], int]:
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


def _fold(d1, d2, min_rest: int, budget: int):
    out: dict[tuple[int, tuple[int, ...]], int] = {}
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


def build_phi16_4(order: int) -> JacobiQExpansion:
    """The weight -16 index 4 generator, from the 16-fold theta quotient.

    Takes the exact 8-variable Fourier expansion of the product of the four
    pair blocks, divides by Delta^2 (the sixteen q^(1/8) prefactors supply
    exactly q^2), projects onto Weyl invariants by orbit-averaging the raw
    coefficients, and normalizes the q^0 display coefficient of Σ_{16'} to 1.
    """
    if order < 0 or order > 3:
        raise ValueError("theta-quotient construction supports orders 0..3")
    n_num = order + 2
    budget = 2 * n_num  # doubled q-exponent across all four blocks
    block = _theta_pair_block(budget - 3)
    half = _fold(block, block, 2, budget)
    full = _fold(half, half, 0, budget)

    t2 = np.array([k[0] for k in full], dtype=np.int64)
    coords = np.array([k[1] for k in full], dtype=np.int64)
    raw = np.array(list(full.values()), dtype=np.int64)
    if (t2 % 2).any():
        raise CatalogError("odd doubled q-exponent in the theta product")
    if (coords.sum(axis=1) % 2).any():
        raise CatalogError("raw exponent escaped the even-sum sublattice")

    terms = []
    for n in range(n_num + 1):
        sel = t2 == 2 * n
        if not sel.any():
            terms.append(InvariantElement.zero())
            continue
        reduced = _batch_reduce(2 * coords[sel])
        keys, inverse = np.unique(_pack(reduced), return_inverse=True)
        totals = np.zeros(len(keys), dtype=np.int64)
        np.add.at(totals, inverse, raw[sel])
        elem: dict[DominantWeight, Fraction] = {}
        for row, total in zip(_unpack(keys), totals):
            if total:
                m = DominantWeight(E8Vector(row))
                elem[m] = Fraction(int(total), orbit_size(m))
        terms.append(InvariantElement(elem))

    if not (terms[0].is_zero() and terms[1].is_zero()):
        raise CatalogError("prefactor power mismatch")
    num = JacobiQExpansion(8, 4, terms)
    quot = jf_div_modular(num, _D(n_num, 2))
    lam = _display_coeff(quot.term(0), "Σ_{16'}")
    if not lam:
        raise CatalogError("projection lost the leading orbit; recipe broken")
    return quot.scale(1 / lam)


# ---------------------------------------------------------------------------
# Builders. Each takes the requested output order and works out the input
# orders its operator chain consumes.


def _b_theta(n: int) -> JacobiQExpansion:
    return theta_e8(n)


def _make_x(t: int):
    def b(n: int) -> JacobiQExpansion:
        raised = hecke_t_minus(theta_e8(t * n), t, n)
        return raised.scale(Fraction(1, sigma_pow(t, 3)))

    return b


def _b_a4(n: int) -> JacobiQExpansion:
    return rescale_z(theta_e8(n), 2)


def _b_phi_m4_2(n: int) -> JacobiQExpansion:
    th = theta_e8(n + 1)
    t2 = hecke_t_minus(theta_e8(2 * n + 2), 2, n + 1)
    num = jf_mul(th, th) - jf_scale(t2, _E(4, n + 1)).scale(Fraction(1, 9))
    return jf_div_modular(num, _D(n + 1))


def _b_phi_m2_2(n: int) -> JacobiQExpansion:
    return heat(build("phi_-4_2", n)).scale(3)


def _b_phi_0_2(n: int) -> JacobiQExpansion:
    p4 = build("phi_-4_2", n)
    p2 = build("phi_-2_2", n)
    return jf_scale(p4, _E(4, n)).scale(Fraction(1, 2)) - heat(p2)


def _b_b2(n: int) -> JacobiQExpansion:
    p4, p2, p0 = (build(x, n) for x in ("phi_-4_2", "phi_-2_2", "phi_0_2"))
    comb = (
        jf_scale(p0, _E(6, n)).scale(3)
        - jf_scale(p4, series_mul(_E(4, n), _E(6, n)))
        - jf_scale(p2, _mf(2, 0, n))
    )
    return comb.scale(Fraction(1, 1080))


def _b_u12_2(n: int) -> JacobiQExpansion:
    return jf_scale(build("phi_0_2", n), _D(n))


def _b_v14_2(n: int) -> JacobiQExpansion:
    p4, p2 = build("phi_-4_2", n), build("phi_-2_2", n)
    return jf_scale(
        jf_scale(p4, _E(6, n)) + jf_scale(p2, _E(4, n)), _D(n)
    ).scale(Fraction(1, 3))


def _b_w16_2(n: int) -> JacobiQExpansion:
    p4, p2 = build("phi_-4_2", n), build("phi_-2_2", n)
    return jf_scale(
        jf_scale(p4, _mf(2, 0, n)) + jf_scale(p2, _E(6, n)), _D(n)
    ).scale(Fraction(1, 3))


def _b_bm2_3(n: int) -> JacobiQExpansion:
    th = theta_e8(n + 1)
    t3 = hecke_t_minus(theta_e8(3 * n + 3), 3, n + 1)
    num = jf_mul(th, build("b2", n + 1)) - jf_scale(t3, _E(6, n + 1)).scale(
        Fraction(1, 28)
    )
    return jf_div_modular(num, _D(n + 1)).scale(-5)


def _b_phi_m4_3(n: int) -> JacobiQExpansion:
    th = theta_e8(n + 1)
    t3 = hecke_t_minus(theta_e8(3 * n + 3), 3, n + 1)
    num = jf_mul(th, build("x2", n + 1)) - jf_scale(t3, _E(4, n + 1)).scale(
        Fraction(1, 28)
    )
    return jf_div_modular(num, _D(n + 1))


def _b_a0_3(n: int) -> JacobiQExpansion:
    return jf_mul(theta_e8(n), build("phi_-4_2", n))


def _b_phi_m2_3(n: int) -> JacobiQExpansion:
    return heat(build("phi_-4_3", n)).scale(3)


def _b_phi_0_3(n: int) -> JacobiQExpansion:
    a03 = build("a0_3", n)
    p4 = build("phi_-4_3", n)
    p2 = build("phi_-2_3", n)
    return (a03 + jf_scale(p4, _E(4, n)) - heat(p2).scale(2)).scale(
        Fraction(3, 8)
    )


def _b_phi_m8_3(n: int) -> JacobiQExpansion:
    k = n + 1
    p4, p2 = build("phi_-4_3", k), build("phi_-2_3", k)
    a03, bm2 = build("a0_3", k), build("b_-2_3", k)
    num = (
        jf_scale(p4, _mf(2, 0, k))
        + jf_scale(p2, _E(6, k)).scale(6)
        - jf_scale(a03, _E(4, k)).scale(2)
        - jf_scale(bm2, _E(6, k))
    )
    quot = jf_div_modular(num, _D(k))
    lam = _display_coeff(quot.term(0), "Σ_{8'}")
    if not lam:
        raise CatalogError("normalization failed: no Σ_{8'} part at q^0")
    return quot.scale(1 / lam)


def _b_phi_m6_3(n: int) -> JacobiQExpansion:
    return heat(build("phi_-8_3", n)).scale(-3)


def _b_b3(n: int) -> JacobiQExpansion:
    basis = holomorphic_subspace(6, 3, max(n, 1))
    if len(basis) != 1:
        raise CatalogError(f"expected a unique weight-6 form, got {len(basis)}")
    return basis[0].truncate(n)


def _b_u10_3(n: int) -> JacobiQExpansion:
    a3, b3 = build("x3", n), build("b3", n)
    b2t = jf_mul(build("b2", n), theta_e8(n))
    return (
        jf_scale(a3, _E(6, n)).scale(Fraction(-35, 54))
        + jf_scale(b3, _E(4, n)).scale(Fraction(-50, 27))
        + b2t.scale(Fraction(5, 2))
    )


def _b_u12_3(n: int) -> JacobiQExpansion:
    th = theta_e8(n)
    a2t = jf_mul(build("x2", n), th)
    th3 = jf_mul(jf_mul(th, th), th)
    return jf_scale(a2t, _E(4, n)) - th3


def _b_v12_3(n: int) -> JacobiQExpansion:
    return jf_scale(build("phi_0_3", n), _D(n))


def _b_u14_3(n: int) -> JacobiQExpansion:
    p2, p4 = build("phi_-2_3", n), build("phi_-4_3", n)
    return jf_scale(jf_scale(p2, _E(4, n)) + jf_scale(p4, _E(6, n)), _D(n))


def _b_u16_3(n: int) -> JacobiQExpansion:
    return jf_scale(build("phi_-8_3", n), _D(n, 2))


def _b_phi_m14_4(n: int) -> JacobiQExpansion:
    return heat(build("phi_-16_4", n)).scale(-3)


def _b_phi_m12_4(n: int) -> JacobiQExpansion:
    p16, p14 = build("phi_-16_4", n), build("phi_-14_4", n)
    return heat(p14).scale(Fraction(-2, 7)) - jf_scale(p16, _E(4, n)).scale(
        Fraction(1, 7)
    )


def _b_phi_m10_4(n: int) -> JacobiQExpansion:
    p16, p14, p12 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
    )
    return (
        heat(p12).scale(Fraction(-4, 9))
        - (jf_scale(p14, _E(4, n)) - jf_scale(p16, _E(6, n))).scale(
            Fraction(5, 162)
        )
    )


def _b_phi_m8_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
    )
    return (
        heat(p10).scale(Fraction(-3, 5))
        - jf_scale(p12, _E(4, n)).scale(Fraction(1, 15))
        + jf_scale(p14, _E(6, n)).scale(Fraction(1, 90))
        - jf_scale(p16, _mf(2, 0, n)).scale(Fraction(1, 90))
    )


def _b_phi_m6_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10, p8 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
        build("phi_-8_4", n),
    )
    return (
        jf_scale(p10, _E(4, n)).scale(Fraction(-1, 2))
        + jf_scale(p12, _E(6, n)).scale(Fraction(1, 6))
        - (jf_scale(p14, _mf(2, 0, n)) - jf_scale(p16, _mf(1, 1, n))).scale(
            Fraction(1, 36)
        )
        - heat(p8).scale(4)
    )


def _b_phi_m4_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10, p8, p6 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
        build("phi_-8_4", n),
        build("phi_-6_4", n),
    )
    return (
        jf_scale(p8, _E(4, n)).scale(Fraction(-10, 81))
        + jf_scale(p10, _E(6, n)).scale(Fraction(5, 81))
        + (jf_scale(p14, _mf(1, 1, n)) - jf_scale(p16, _mf(3, 0, n))).scale(
            Fraction(5, 1458)
        )
        - jf_scale(p12, _mf(2, 0, n)).scale(Fraction(5, 243))
        - heat(p6).scale(Fraction(2, 9))
    )


def _b_phi_m2_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10, p8, p6, p4 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
        build("phi_-8_4", n),
        build("phi_-6_4", n),
        build("phi_-4_4", n),
    )
    return (
        jf_scale(p8, _E(6, n)).scale(Fraction(-5, 9))
        + jf_scale(p10, _mf(2, 0, n)).scale(Fraction(5, 18))
        + (jf_scale(p14, _mf(3, 0, n)) - jf_scale(p16, _mf(2, 1, n))).scale(
            Fraction(5, 324)
        )
        - jf_scale(p12, _mf(1, 1, n)).scale(Fraction(5, 54))
        + jf_scale(p6, _E(4, n)).scale(Fraction(1, 6))
        + heat(p4).scale(12)
    )


def _b_phi_0_4(n: int) -> JacobiQExpansion:
    return heat(build("phi_-2_4", n))


def _b_psi_m8_4(n: int) -> JacobiQExpansion:
    k = n + 1
    x4 = hecke_t_minus(theta_e8(4 * k), 4, k).scale(Fraction(1, 73))
    num = x4 - rescale_z(theta_e8(k), 2)
    return jf_div_modular(num, _D(k)).scale(Fraction(73, 72))


def _b_b4(n: int) -> JacobiQExpansion:
    lifted = hecke_t_minus(build("b2", 2 * n), 2, n).scale(Fraction(1, 33))
    return lifted + jf_scale(build("phi_-6_4", n), _D(n)).scale(Fraction(2, 55))


def _b_c8_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10, p8 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
        build("phi_-8_4", n),
    )
    comb = (
        jf_scale(p16, _mf(3, 0, n))
        - jf_scale(p14, _mf(1, 1, n))
        + jf_scale(p12, _mf(2, 0, n)).scale(6)
        - jf_scale(p10, _E(6, n)).scale(18)
        + jf_scale(p8, _E(4, n)).scale(36)
    )
    return jf_scale(comb, _D(n)).scale(Fraction(1, 54))


def _cancel_sigma16(main: JacobiQExpansion, tail: JacobiQExpansion) -> JacobiQExpansion:
    """Subtract the multiple of `tail` that kills the q^2 Σ_{16'} coefficient."""
    if main.order < 2:
        raise CatalogError(
            "the cancellation rule reads the q^2 term; build with order >= 2"
        )
    denom = _display_coeff(tail.term(2), "Σ_{16'}")
    if not denom:
        raise CatalogError("cancellation target missing from the subtracted form")
    lam = _display_coeff(main.term(2), "Σ_{16'}") / denom
    return main - tail.scale(lam)


def _b_u10_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10, p8, p6 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
        build("phi_-8_4", n),
        build("phi_-6_4", n),
    )
    comb = (
        jf_scale(p16, _mf(2, 1, n))
        - jf_scale(p14, _mf(3, 0, n))
        + jf_scale(p12, _mf(1, 1, n)).scale(6)
        - jf_scale(p10, _mf(2, 0, n)).scale(18)
        + jf_scale(p8, _E(6, n)).scale(36)
        - jf_scale(p6, _E(4, n)).scale(Fraction(54, 5))
    )
    main = jf_scale(comb, _D(n)).scale(Fraction(-5, 324))
    tail = jf_scale(p14, _D(n, 2))
    return _cancel_sigma16(main, tail)


def _b_u12_4(n: int) -> JacobiQExpansion:
    p16, p14, p12, p10, p8, p6 = (
        build("phi_-16_4", n),
        build("phi_-14_4", n),
        build("phi_-12_4", n),
        build("phi_-10_4", n),
        build("phi_-8_4", n),
        build("phi_-6_4", n),
    )
    comb = (
        jf_scale(p16, _mf(1, 2, n))
        - jf_scale(p14, _mf(2, 1, n))
        + jf_scale(p12, _mf(0, 2, n)).scale(6)
        - jf_scale(p10, _mf(1, 1, n)).scale(18)
        + jf_scale(p8, _mf(2, 0, n)).scale(36)
        - jf_scale(p6, _E(6, n)).scale(Fraction(54, 5))
    )
    main = jf_scale(comb, _D(n)).scale(Fraction(-5, 324))
    tail = jf_scale(jf_scale(p16, _E(4, n)), _D(n, 2))
    return _cancel_sigma16(main, tail)


def _b_cusp_8_4(n: int) -> JacobiQExpansion:
    main = jf_scale(build("phi_-4_4", n), _D(n))
    tail = jf_scale(build("phi_-16_4", n), _D(n, 2))
    return _cancel_sigma16(main, tail)


def _b_cusp_10_4(n: int) -> JacobiQExpansion:
    main = jf_scale(build("phi_-2_4", n), _D(n))
    tail = jf_scale(build("phi_-14_4", n), _D(n, 2))
    return _cancel_sigma16(main, tail)


def _b_cusp_12_4(n: int) -> JacobiQExpansion:
    main = jf_scale(build("phi_0_4", n), _D(n))
    tail = jf_scale(jf_scale(build("phi_-16_4", n), _E(4, n)), _D(n, 2))
    return _cancel_sigma16(main, tail)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    weight: int
    index: int
    recipe: str
    expected_class: str
    normalization: str = ""
    display: str = ""
    default_order: int | None = None
    builder: object = None

    @property
    def buildable(self) -> bool:
        return self.builder is not None

    def meta_json(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "index": self.index,
            "recipe": self.recipe,
            "normalization": self.normalization,
            "expected_class": self.expected_class,
            "display": self.display,
            "buildable": self.buildable,
        }


def _entries() -> list[RegistryEntry]:
    E = RegistryEntry
    out = [
        E("theta_e8", 4, 1, "lattice theta series", "holomorphic",
          display="1 + qΣ_2 + O(q²)", builder=_b_theta),
        E("x1", 4, 1, "theta_e8 (index-raising at s=1 is the identity)",
          "holomorphic", display="1 + qΣ_2 + O(q²)", builder=_b_theta),
        E("x2", 4, 2, "(1/9)·θ|T₋(2)", "holomorphic",
          normalization="z=0 value is E4", display="1 + qΣ_4 + O(q²)",
          builder=_make_x(2)),
        E("x3", 4, 3, "(1/28)·θ|T₋(3)", "holomorphic",
          normalization="z=0 value is E4", display="1 + qΣ_6 + O(q²)",
          builder=_make_x(3)),
        E("x4", 4, 4, "(1/73)·θ|T₋(4)", "holomorphic",
          normalization="z=0 value is E4", builder=_make_x(4)),
        E("a1", 4, 1, "alias of x1", "holomorphic",
          display="1 + qΣ_2 + O(q²)", builder=_b_theta),
        E("a2", 4, 2, "alias of x2", "holomorphic",
          normalization="z=0 value is E4", display="1 + qΣ_4 + O(q²)",
          builder=_make_x(2)),
        E("a3", 4, 3, "alias of x3", "holomorphic",
          normalization="z=0 value is E4", display="1 + qΣ_6 + O(q²)",
          builder=_make_x(3)),
        E("a4", 4, 4, "θ(τ, 2z)", "holomorphic",
          display="1 + qΣ_{8''} + O(q²)", builder=_b_a4),
        # --- index 2
        E("phi_-4_2", -4, 2, "(θ² − (1/9)E4·(θ|T₋(2))) / Δ", "weak",
          display="2Σ_2 − Σ_4 − 240 + O(q)", builder=_b_phi_m4_2),
        E("phi_-2_2", -2, 2, "3·heat(phi_-4_2)", "weak",
          display="Σ_2 + Σ_4 − 480 + O(q)", builder=_b_phi_m2_2),
        E("phi_0_2", 0, 2, "(1/2)E4·phi_-4_2 − heat(phi_-2_2)", "weak",
          display="Σ_2 + 120 + O(q)", builder=_b_phi_0_2),
        E("b2", 6, 2, "(1/1080)(3E6·phi_0_2 − E4E6·phi_-4_2 − E4²·phi_-2_2)",
          "holomorphic", normalization="z=0 value is E6", builder=_b_b2),
        E("u12_2", 12, 2, "Δ·phi_0_2", "cusp",
          display="q(Σ_2 + 120) + O(q²)", builder=_b_u12_2),
        E("v14_2", 14, 2, "(1/3)Δ(E6·phi_-4_2 + E4·phi_-2_2)", "cusp",
          display="q(Σ_2 − 240) + O(q²)", builder=_b_v14_2),
        E("w16_2", 16, 2, "(1/3)Δ(E4²·phi_-4_2 + E6·phi_-2_2)", "cusp",
          display="q(Σ_2 − 240) + O(q²)", builder=_b_w16_2),
        # --- index 3
        E("b_-2_3", -2, 3, "−5(θ·b2 − (1/28)E6·(θ|T₋(3))) / Δ", "weak",
          display="3Σ_2 + 3Σ_4 + 5Σ_6 − 2640 + O(q)", builder=_b_bm2_3),
        E("phi_-4_3", -4, 3, "(θ·x2 − (1/28)E4·(θ|T₋(3))) / Δ", "weak",
          display="Σ_2 + Σ_4 − Σ_6 − 240 + O(q)", builder=_b_phi_m4_3),
        E("a0_3", 0, 3, "θ·phi_-4_2", "weak",
          display="2Σ_2 − Σ_4 − 240 + O(q)", builder=_b_a0_3),
        E("phi_-2_3", -2, 3, "3·heat(phi_-4_3)", "weak",
          display="Σ_2 + Σ_6 − 480 + O(q)", builder=_b_phi_m2_3),
        E("phi_0_3", 0, 3, "(3/8)(a0_3 + E4·phi_-4_3 − 2·heat(phi_-2_3))",
          "weak", display="Σ_2 + O(q)", builder=_b_phi_0_3),
        E("phi_-8_3", -8, 3,
          "(E4²·phi_-4_3 + 6E6·phi_-2_3 − 2E4·a0_3 − E6·b_-2_3) / Δ, rescaled",
          "weak", normalization="q^0 coefficient of Σ_{8'} is 1",
          display="Σ_{8'} − 4Σ_6 + 6Σ_4 − 4Σ_2 + 240 + O(q)",
          builder=_b_phi_m8_3),
        E("phi_-6_3", -6, 3, "−3·heat(phi_-8_3)", "weak",
          display="Σ_{8'} − 6Σ_4 + 8Σ_2 − 720 + O(q)", builder=_b_phi_m6_3),
        E("b3", 6, 3, "unique holomorphic weight-6 index-3 form", "holomorphic",
          normalization="z=0 value is E6", builder=_b_b3),
        E("u10_3", 10, 3, "−(35/54)E6·x3 − (50/27)E4·b3 + (5/2)·b2·θ", "cusp",
          display="q(Σ_4 − (2/3)Σ_2 − 80) + O(q²)", builder=_b_u10_3),
        E("u12_3", 12, 3, "E4·x2·θ − θ³", "cusp",
          display="q(Σ_4 − 2Σ_2 + 240) + O(q²)", builder=_b_u12_3),
        E("v12_3", 12, 3, "Δ·phi_0_3", "cusp",
          display="qΣ_2 + O(q²)", builder=_b_v12_3),
        E("u14_3", 14, 3, "Δ(E4·phi_-2_3 + E6·phi_-4_3)", "cusp",
          display="q(Σ_4 + 2Σ_2 − 720) + O(q²)", builder=_b_u14_3),
        E("u16_3", 16, 3, "Δ²·phi_-8_3", "cusp", builder=_b_u16_3),
        # --- index 4
        E("phi_-16_4", -16, 4, "theta-quotient projection", "weak",
          normalization="q^0 coefficient of Σ_{16'} is 1",
          display="Σ_{16'} − 8Σ_{14'} + 28Σ_{12} − 56Σ_{10} + 14Σ_{8''} + "
                  "56Σ_{8'} − 56Σ_6 + 28Σ_4 − 8Σ_2 + 240 + O(q)",
          builder=build_phi16_4),
        E("phi_-14_4", -14, 4, "−3·heat(phi_-16_4)", "weak",
          builder=_b_phi_m14_4),
        E("phi_-12_4", -12, 4, "−(2/7)heat(phi_-14_4) − (1/7)E4·phi_-16_4",
          "weak", builder=_b_phi_m12_4),
        E("phi_-10_4", -10, 4,
          "−(4/9)heat(phi_-12_4) − (5/162)(E4·phi_-14_4 − E6·phi_-16_4)",
          "weak", builder=_b_phi_m10_4),
        E("phi_-8_4", -8, 4,
          "−(3/5)heat(phi_-10_4) − (1/15)E4·phi_-12_4 + (1/90)E6·phi_-14_4 "
          "− (1/90)E4²·phi_-16_4", "weak", builder=_b_phi_m8_4),
        E("phi_-6_4", -6, 4,
          "−(1/2)E4·phi_-10_4 + (1/6)E6·phi_-12_4 − (1/36)(E4²·phi_-14_4 − "
          "E4E6·phi_-16_4) − 4·heat(phi_-8_4)", "weak", builder=_b_phi_m6_4),
        E("phi_-4_4", -4, 4,
          "−(10/81)E4·phi_-8_4 + (5/81)E6·phi_-10_4 + (5/1458)(E4E6·phi_-14_4 "
          "− E4³·phi_-16_4) − (5/243)E4²·phi_-12_4 − (2/9)heat(phi_-6_4)",
          "weak", display="Σ_6 − 2Σ_4 + Σ_2 + O(q)", builder=_b_phi_m4_4),
        E("phi_-2_4", -2, 4,
          "−(5/9)E6·phi_-8_4 + (5/18)E4²·phi_-10_4 + (5/324)(E4³·phi_-14_4 − "
          "E4²E6·phi_-16_4) − (5/54)E4E6·phi_-12_4 + (1/6)E4·phi_-6_4 + "
          "12·heat(phi_-4_4)", "weak",
          display="−7Σ_4 + 8Σ_2 − 240 + O(q)", builder=_b_phi_m2_4),
        E("phi_0_4", 0, 4, "heat(phi_-2_4)", "weak",
          display="2Σ_2 − 120 + O(q)", builder=_b_phi_0_4),
        E("psi_-8_4", -8, 4, "(73/72)((1/73)θ|T₋(4) − θ(τ,2z)) / Δ", "weak",
          display="Σ_{8'} − Σ_{8''} + O(q)", builder=_b_psi_m8_4),
        E("b4", 6, 4, "(1/33)·b2|T₋(2) + (2/55)Δ·phi_-6_4", "holomorphic",
          builder=_b_b4),
        E("c8_4", 8, 4,
          "(1/54)Δ(E4³·phi_-16_4 − E4E6·phi_-14_4 + 6E4²·phi_-12_4 − "
          "18E6·phi_-10_4 + 36E4·phi_-8_4)", "holomorphic", builder=_b_c8_4),
        E("u10_4", 10, 4,
          "−(5/324)Δ(E4²E6·phi_-16_4 − E4³·phi_-14_4 + 6E4E6·phi_-12_4 − "
          "18E4²·phi_-10_4 + 36E6·phi_-8_4 − (54/5)E4·phi_-6_4) − *Δ²·phi_-14_4",
          "cusp", normalization="* cancels the q² Σ_{16'} coefficient",
          builder=_b_u10_4),
        E("u12_4", 12, 4,
          "−(5/324)Δ(E4E6²·phi_-16_4 − E4²E6·phi_-14_4 + 6E6²·phi_-12_4 − "
          "18E4E6·phi_-10_4 + 36E4²·phi_-8_4 − (54/5)E6·phi_-6_4) − *Δ²E4·phi_-16_4",
          "cusp", normalization="* cancels the q² Σ_{16'} coefficient",
          builder=_b_u12_4),
        E("cusp_8_4", 8, 4, "Δ·phi_-4_4 − *Δ²·phi_-16_4", "cusp",
          normalization="* cancels the q² Σ_{16'} coefficient",
          builder=_b_cusp_8_4),
        E("cusp_10_4", 10, 4, "Δ·phi_-2_4 − *Δ²·phi_-14_4", "cusp",
          normalization="* cancels the q² Σ_{16'} coefficient",
          builder=_b_cusp_10_4),
        E("cusp_12_4", 12, 4, "Δ·phi_0_4 − *Δ²E4·phi_-16_4", "cusp",
          normalization="* cancels the q² Σ_{16'} coefficient",
          builder=_b_cusp_12_4),
        # --- declared, not constructible at this scope
        E("x5", 4, 5, "declared only", "holomorphic"),
        E("x6", 4, 6, "declared only", "holomorphic"),
        E("a5", 4, 5, "declared only", "holomorphic"),
        E("b6", 6, 6, "declared only", "holomorphic"),
    ]
    return out


REGISTRY: dict[str, RegistryEntry] = {e.name: e for e in _entries()}

_build_cache: dict[tuple[str, int], JacobiQExpansion] = {}


def default_order(index: int) -> int:
    return 2 if index >= 4 else 3


def build(name: str, order: int | None = None) -> JacobiQExpansion:
    """Build a registry form to the requested order (default 3, or 2 at index 4)."""
    entry = REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown form name {name!r}; registry holds: {known}")
    if not entry.buildable:
        raise CatalogError(
            f"{name!r} is declared but not constructible at this scope"
        )
    if order is None:
        order = default_order(entry.index)
    key = (name, order)
    cached = _build_cache.get(key)
    if cached is not None:
        return cached
    form = entry.builder(order)
    if form.order > order:
        form = form.truncate(order)
    assert (form.weight, form.index, form.order) == (
        entry.weight,
        entry.index,
        order,
    ), f"builder contract broken for {name}"
    _build_cache[key] = form
    return form


# ---------------------------------------------------------------------------
# Cascade systems on q^0 orbit coefficients


@dataclass(frozen=True)
class CascadeSystem:
    index: int
    start_weight: int
    norms: tuple[int, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    nullspace: tuple[tuple[int, ...], ...]


def solve_cascade(t: int, w0: int, norms) -> CascadeSystem:
    """Linear system satisfied by candidate q^0-terms of a weight-w0 weak form.

    One unknown per orbit norm (primed pairs merged; the norm-0 slot carries
    the constant, normalized so the z=0 row is all ones). Repeated heat
    applications multiply the j-th unknown by (4 - w)/12 - nu_j/(2t) per
    step; each negative weight contributes a z=0 vanishing row, and the
    arrival at weight 0 contributes the balance-identity row with weights
    2t - 3·nu_j.
    """
    if t < 1:
        raise ValueError("index must be >= 1")
    if w0 % 2 or w0 > -2:
        raise ValueError("start weight must be a negative even integer")
    norms = [int(v) for v in norms]
    if not norms or norms[0] != 0 or any(
        b <= a or b % 2 for a, b in zip(norms, norms[1:])
    ):
        raise ValueError("norms must be strictly increasing even values from 0")
    rows: list[tuple[Fraction, ...]] = []
    m = [Fraction(1)] * len(norms)
    w = w0
    for _ in range(-w0 // 2):
        rows.append(tuple(m))
        m = [
            (Fraction(4 - w, 12) - Fraction(v, 2 * t)) * mj
            for v, mj in zip(norms, m)
        ]
        w += 2
    assert w == 0
    rows.append(tuple(Fraction(2 * t - 3 * v) * mj for v, mj in zip(norms, m)))
    basis = nullspace([list(r) for r in rows], len(norms))
    return CascadeSystem(
        t, w0, tuple(norms), tuple(rows), tuple(tuple(v) for v in basis)
    )


# ---------------------------------------------------------------------------
# Holomorphic subspaces and free-module verification

_WEAK_GEN_NAMES = {
    1: ("theta_e8",),
    2: ("phi_-4_2", "phi_-2_2", "phi_0_2"),
    3: ("phi_-8_3", "phi_-6_3", "phi_-4_3", "phi_-2_3", "phi_0_3"),
    4: (
        "phi_-16_4",
        "phi_-14_4",
        "phi_-12_4",
        "phi_-10_4",
        "phi_-8_4",
        "psi_-8_4",
        "phi_-6_4",
        "phi_-4_4",
        "phi_-2_4",
        "phi_0_4",
    ),
}

# Holomorphy is decided by finitely many coefficient conditions per index:
# (q-power, largest orbit norm allowed there). Violations at higher q-powers
# would propagate down by quasi-periodicity, so these are conclusive.
_HOL_RULES = {
    1: (),
    2: ((0, 0),),
    3: ((0, 0), (1, 6)),
    4: ((0, 0), (1, 8)),
}


def weak_generator_names(t: int) -> tuple[str, ...]:
    return _WEAK_GEN_NAMES[t]


def _monomials(d: int) -> list[tuple[int, int]]:
    if d < 0 or d % 2:
        return []
    out = []
    for b in range(d // 6 + 1):
        rem = d - 6 * b
        if rem % 4 == 0:
            out.append((rem // 4, b))
    return out


def _weight_candidates(weight: int, t: int, order: int) -> list[JacobiQExpansion]:
    cands = []
    for gname in _WEAK_GEN_NAMES[t]:
        g = build(gname, order)
        for a4, a6 in _monomials(weight - g.weight):
            cands.append(jf_scale(g, _mf(a4, a6, order)))
    return cands


def holomorphic_subspace(weight: int, t: int, order: int) -> list[JacobiQExpansion]:
    """Basis of the holomorphic forms of the given weight and index.

    Spans all modular-form multiples of the weak generators at that weight
    and imposes the finite holomorphy conditions as exact linear
    constraints. Weight-4 and weight-6 solutions are normalized so the z=0
    value is E4 resp. E6 (q^0 constant 1); other solutions get leading
    display coefficient 1.
    """
    if t not in _WEAK_GEN_NAMES:
        raise ValueError(f"index {t} outside the constructible range 1..4")
    if weight % 2:
        raise ValueError("weight must be even")
    rules = _HOL_RULES[t]
    need = max((n for n, _ in rules), default=0)
    if order < need:
        raise ValueError(
            f"order {order} cannot impose the q^{need} holomorphy conditions; "
            f"build with order >= {need}"
        )
    cands = _weight_candidates(weight, t, order)
    if not cands:
        return []
    constraints: list[tuple[int, DominantWeight]] = []
    for n, bound in rules:
        pts = set()
        for c in cands:
            for mm in c.term(n).terms:
                if mm.norm() > bound:
                    pts.add(mm)
        constraints.extend((n, mm) for mm in sorted(pts))
    matrix = [
        [c.term(n).coeff(mm) for c in cands] for n, mm in constraints
    ]
    coeffs = nullspace(matrix, len(cands))
    basis = []
    for vec in coeffs:
        form = JacobiQExpansion.zero(weight, t, order)
        for x, c in zip(vec, cands):
            if x:
                form = form + c.scale(x)
        basis.append(_normalize_solution(form))
    return basis


def _normalize_solution(form: JacobiQExpansion) -> JacobiQExpansion:
    lead = form.term(0).coeff(DominantWeight.from_fw([0] * 8))
    if form.weight in (4, 6) and lead:
        return form.scale(1 / lead)
    for n in range(form.order + 1):
        disp = form.term(n).to_display()
        if disp:
            return form.scale(1 / disp[0][1])
    return form


@dataclass
class ModuleReport:
    index: int
    generator_count: int
    rows: list = field(default_factory=list)  # (weight, expected, rank, ok, detail)

    @property
    def ok(self) -> bool:
        return all(r[3] for r in self.rows)


def verify_free_module(
    t: int, max_weight: int, order: int | None = None
) -> ModuleReport:
    """Check free-module structure degree by degree.

    For every even weight up to max_weight, the modular multiples of the
    weak generators must be linearly independent (exact rank over the
    rationals) and as numerous as the graded free-module count predicts. A
    rank deficiency is reported with an explicit vanishing combination.
    """
    if order is None:
        order = default_order(t)
    gens = [build(g, order) for g in _WEAK_GEN_NAMES[t]]
    report = ModuleReport(t, len(gens))
    start = min(g.weight for g in gens)
    for w in range(start, max_weight + 1, 2):
        cands = _weight_candidates(w, t, order)
        expected = sum(dim_modular(w - g.weight) for g in gens)
        assert len(cands) == expected
        if not cands:
            report.rows.append((w, 0, 0, True, ""))
            continue
        cols: list[tuple[int, DominantWeight]] = sorted(
            {
                (n, mm)
                for c in cands
                for n in range(order + 1)
                for mm in c.term(n).terms
            }
        )
        matrix = [
            [c.term(n).coeff(mm) for (n, mm) in cols] for c in cands
        ]
        rk = rank(matrix)
        ok = rk == expected
        detail = ""
        if not ok:
            combo = nullspace([list(r) for r in zip(*matrix)], len(cands))
            detail = f"vanishing combination: {combo[0] if combo else '?'}"
        report.rows.append((w, expected, rk, ok, detail))
    return report


# ---------------------------------------------------------------------------
# Tables


def rank_series(t_max: int) -> list[int]:
    """Coefficients 0..t_max of 1/((1-x)(1-x²)²(1-x³)²(1-x⁴)²(1-x⁵)(1-x⁶))."""
    if t_max < 0:
        raise ValueError("need a non-negative bound")
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


_GEN_WEIGHTS_BY_INDEX = {
    1: (4,),
    2: (-4, -2, 0),
    3: (-8, -6, -4, -2, 0),
    4: (-16, -14, -12, -10, -8, -8, -6, -4, -2, 0),
}


def _dim_weak(w: int, r: int) -> int:
    if r == 0:
        return dim_modular(w)
    if 1 <= r <= 4:
        return sum(dim_modular(w - wg) for wg in _GEN_WEIGHTS_BY_INDEX[r])
    if r == 5:
        if w <= -20:
            return 0
        raise CatalogError(
            f"weak index-5 dimension at weight {w} is not determined here"
        )
    raise CatalogError(f"no weak dimension data for index {r}")


def dimension_bound_table(k_max: int) -> list[tuple[int, int, str]]:
    """Upper bounds for the graded pieces of the associated orthogonal-group
    ring: bound(k) = sum over 0 <= r <= k/7 of the weak dimension at
    (k - 12r, r). Valid through weight 40; beyond that the index-5 weight
    -18 weak dimension is an open input."""
    if k_max % 2 or k_max < 4:
        raise ValueError("k_max must be an even integer >= 4")
    if k_max > 40:
        raise CatalogError(
            "bounds beyond weight 40 depend on the undetermined weak "
            "index-5 dimension at weight -18"
        )
    out = []
    for k in range(4, k_max + 1, 2):
        bound = sum(_dim_weak(k - 12 * r, r) for r in range(k // 7 + 1))
        note = ""
        if k == 6:
            bound, note = 0, "forced to zero: no invariant form of weight 6, index 1"
        out.append((k, bound, note))
    return out


def pullback_max_table() -> list[tuple[str, int]]:
    """Largest pairing of each dictionary orbit against the norm-4 shell."""
    return [
        (lab, max_pairing(label_weight(lab), 4)) for lab in SIGMA_LABELS
    ]


# ---------------------------------------------------------------------------
# Distinguished bases for the holomorphic and cusp subspaces


def holomorphic_basis(t: int, order: int | None = None):
    """Named generating set of the holomorphic forms over the modular ring."""
    if order is None:
        order = default_order(t)
    if t == 3:
        th = theta_e8(order)
        return [
            ("x3", build("x3", order)),
            ("b3", build("b3", order)),
            ("x2*theta", jf_mul(build("x2", order), th)),
            ("b2*theta", jf_mul(build("b2", order), th)),
            ("theta^3", jf_mul(jf_mul(th, th), th)),
        ]
    if t == 4:
        return [
            ("a4", build("a4", order)),
            ("delta*psi_-8_4", jf_scale(build("psi_-8_4", order), _D(order))),
            ("b4", build("b4", order)),
            ("delta*phi_-6_4", jf_scale(build("phi_-6_4", order), _D(order))),
            ("c8_4", build("c8_4", order)),
            ("delta*phi_-4_4", jf_scale(build("phi_-4_4", order), _D(order))),
            ("delta^2*phi_-16_4", jf_scale(build("phi_-16_4", order), _D(order, 2))),
            ("delta*phi_-2_4", jf_scale(build("phi_-2_4", order), _D(order))),
            ("delta^2*phi_-14_4", jf_scale(build("phi_-14_4", order), _D(order, 2))),
            ("delta^2*phi_-12_4", jf_scale(build("phi_-12_4", order), _D(order, 2))),
        ]
    raise ValueError("distinguished bases are tabulated for t in {3, 4}")


def cusp_basis(t: int, order: int | None = None):
    """Named generating set of the cusp forms over the modular ring."""
    if order is None:
        order = default_order(t)
    if t == 3:
        return [(n, build(n, order)) for n in
                ("u10_3", "u12_3", "v12_3", "u14_3", "u16_3")]
    if t == 4:
        p16 = build("phi_-16_4", order)
        p14 = build("phi_-14_4", order)
        mixed = jf_scale(
            jf_scale(p14, _E(4, order)) - jf_scale(p16, _E(6, order)),
            _D(order, 2),
        )
        return [
            ("cusp_8_4", build("cusp_8_4", order)),
            ("cusp_10_4", build("cusp_10_4", order)),
            ("u10_4", build("u10_4", order)),
            ("cusp_12_4", build("cusp_12_4", order)),
            ("u12_4", build("u12_4", order)),
            ("delta^2*phi_-12_4", jf_scale(build("phi_-12_4", order), _D(order, 2))),
            ("delta^2*(E4*phi_-14_4 - E6*phi_-16_4)", mixed),
            ("delta^2*phi_-10_4", jf_scale(build("phi_-10_4", order), _D(order, 2))),
            ("delta^2*phi_-8_4", jf_scale(build("phi_-8_4", order), _D(order, 2))),
            ("delta^2*psi_-8_4", jf_scale(build("psi_-8_4", order), _D(order, 2))),
        ]
    raise ValueError("distinguished bases are tabulated for t in {3, 4}")
