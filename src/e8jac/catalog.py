"""Named-form registry, linear-system solvers, and structure verification.

Every explicitly constructed form of index 1..4 lives here under a stable
ASCII identifier, together with its recipe, its normalization rule, and the
class (weak / holomorphic / cusp) it is expected to have, and the leading
terms that the verify suites pin. Every form but the three theta seeds
(theta_e8, a4, phi_-16_4) is a recipe held as data and built by one
evaluator, which computes the input orders backward through the operator
chain, so a requested truncation order is honest: all returned terms are
exact.

Alongside the registry: the q^0 cascade linear systems, holomorphic-subspace
extraction by exact linear algebra, free-module rank verification, the rank
generating series, the dimension-bound table, and the pullback maxima table.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import isqrt, lcm

import numpy as np

from .e8 import (
    BudgetError,
    CertificationError,
    DominantWeight,
    _batch_reduce,
    _dn_canonical,
    _key_weight,
    _pack,
    _sum_by_key,
    _unpack,
    element_budget,
    max_coset_min_norm,
    max_pairing,
    orbit_size,
)
from .invring import SIGMA_LABELS, _element, label_weight
from .jacobi import (
    JacobiQExpansion,
    heat,
    hecke_t_minus,
    jf_div_modular,
    jf_lincomb,
    jf_mul,
    jf_scale,
    rescale_z,
    theta_e8,
)
from .linalg import integerize, nullspace, rank
from .qseries import ModularQSeries, delta, dim_modular, eisenstein

__all__ = [
    "CatalogError",
    "RegistryEntry",
    "REGISTRY",
    "build",
    "build_phi16_4",
    "Recipe",
    "Term",
    "parse_recipe",
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
    """A request the catalog cannot serve: a declared-only form, or a table
    past the range its inputs determine."""


# ---------------------------------------------------------------------------
# small q-series helper (cached per order)

@cache
def _mf(a4: int, a6: int, d: int, order: int) -> ModularQSeries:
    """E4^a4 · E6^a6 · Δ^d at the given order, one factor times a cached
    product of the others."""
    if a4:
        return _mf(a4 - 1, a6, d, order) * eisenstein(4, order)
    if a6:
        return _mf(0, a6 - 1, d, order) * eisenstein(6, order)
    if d:
        return _mf(0, 0, d - 1, order) * delta(order)
    return ModularQSeries(0, [1] + [0] * order)


# ---------------------------------------------------------------------------
# The theta-quotient seed for index 4.
#
# The sixteen theta factors pair up as theta(u+v)^2 theta(u-v)^2 over four
# coordinate pairs (u, v), and each square is the classical odd theta sum
#     theta(w)^2 = -sum_A (-1)^A S_A(q) xi^A,
#     S_A = sum over delta = A+1 mod 2 of q^((A^2+delta^2)/4).
# So the product is the eight-fold power of one one-variable table, and the
# exponents (A_1, A_2) of xi = zeta_u zeta_v, zeta_u/zeta_v in one pair are
# the doubled E8 columns 2(A_1+A_2, A_1-A_2) of that pair.
# q-exponents are kept times 4, so they are integers. A table of w factors
# maps such an exponent to int64 values and uint64 keys whose last w bytes
# hold a row offset by 128, as in e8._pack: the seed's row is (A), and a
# table of 2, 4 or 8 factors keys each term by its W(D_w)-canonical E8 row.
# Binning every level by canonical row is exact: for g_1, g_2 in W(D_w),
# (g_1 x, g_2 y) = (g_1 + g_2)(x, y) with g_1 + g_2 in W(D_2w), and W(D8)
# lies in W(E8), so each product lands in the W(E8)-orbit bin of its raw row.

_PAIR = np.array([[2, 2], [2, -2]], dtype=np.int64)
_NO_TERMS = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))


def _theta_square(cap: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """theta(w)^2 as a table, the terms of exponent at most cap."""
    seed: dict[int, dict[int, int]] = {}
    r = isqrt(cap)
    if r > 127:  # every A in [-r, r] is keyed as the byte A + 128
        raise BudgetError("theta-quotient seed exponent outside the byte range [-128, 127]")
    for a in range(-r, r + 1):
        for d in range(-r, r + 1):
            e = a * a + d * d
            if (a + d) % 2 and e <= cap:
                row = seed.setdefault(e, {})
                row[a + 128] = row.get(a + 128, 0) + (1 if a % 2 else -1)
    return {
        e: (np.array(list(row), dtype=np.uint64),
            np.array(list(row.values()), dtype=np.int64))
        for e, row in seed.items()
    }


def _check_int64(vals: np.ndarray) -> None:
    """Raise unless every sum of products of two entries of vals fits int64.

    Any such sum is at most (Σ|vals|)² in absolute value.
    """
    if sum(map(abs, vals.tolist())) ** 2 > np.iinfo(np.int64).max:
        raise CertificationError("theta product coefficients would overflow int64")


def _join(w: int):
    """Product keys of two w-factor tables: the packed W(D_2w)-canonical E8
    row of the factors' rows side by side, in the last 2w columns."""
    def key(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        r1, r2 = _unpack(k1)[:, 8 - w:], _unpack(k2)[:, 8 - w:]
        rows = np.concatenate([np.repeat(r1, len(r2), axis=0),
                               np.tile(r2, (len(r1), 1))], axis=1)
        if w == 1:
            rows = rows @ _PAIR
        out = np.zeros((len(rows), 8), dtype=np.int64)
        out[:, 8 - 2 * w:] = _dn_canonical(rows)
        return _pack(out)
    return key


def _fold(table, keep, key, spent: int):
    """The square of a table at the exponents in keep, and spent plus the
    product rows it forms. Each exponent's products are keyed by key and
    summed into a running total one factor pair at a time.

    Before any product is formed, every coefficient of the square, and every
    sum of them within one exponent, is certified to fit int64, and a total
    past the element budget raises BudgetError.
    """
    _check_int64(np.concatenate([v for _, v in table.values()]))
    pairs = {e: [(table[a], table[e - a]) for a in table if e - a in table]
             for e in keep}
    spent += sum(len(k1) * len(k2) for ps in pairs.values() for (k1, _), (k2, _) in ps)
    limit = element_budget()
    if spent > limit:
        raise BudgetError(f"theta quotient would form {spent} product rows, "
                          f"over element budget {limit}")
    out = {}
    for e, ps in pairs.items():
        keys, vals = _NO_TERMS
        for (k1, v1), (k2, v2) in ps:
            keys, vals = _sum_by_key(np.concatenate([keys, key(k1, k2)]),
                                     np.concatenate([vals, np.outer(v1, v2).ravel()]))
        out[e] = keys, vals
    return out, spent


def build_phi16_4(order: int) -> JacobiQExpansion:
    """The weight -16 index 4 generator, from the 16-fold theta quotient.

    Takes the exact 8-variable Fourier expansion of theta(w)^16, divides by
    Delta^2 (the sixteen q^(1/8) prefactors supply exactly q^2), projects
    onto Weyl invariants by orbit-averaging the raw coefficients, and
    normalizes the q^0 display coefficient of Σ_{16'} to 1.

    The seed table is folded to two, four and, per q-power, eight factors,
    each fold binned by W(D_w)-canonical row, and only the eight-factor
    rows are dominant-reduced. Every product row is charged against the
    element budget before it is formed: the default budget builds orders
    0..18 (order 18 forms 1,570,857 rows), and order 19 raises BudgetError.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    n_num = order + 2
    # every factor has exponent >= 1 and the eight sum to at most 4 * n_num
    two, spent = _fold(_theta_square(4 * n_num - 7), range(4 * n_num - 5), _join(1), 0)
    four, spent = _fold(two, range(4 * n_num - 3), _join(2), spent)
    # a factor's exponent A^2 + delta^2 is 1 mod 4, so four factors' is 0 mod 4
    if any(e % 4 and len(k) for e, (k, _) in four.items()):
        raise CertificationError("odd doubled q-exponent in the theta product")
    eight, _ = _fold(four, range(0, 4 * n_num + 1, 4), _join(4), spent)

    terms = []
    for keys, vals in eight.values():
        keys, vals = _sum_by_key(_pack(_batch_reduce(_unpack(keys))), vals)
        keys = keys.tolist()
        # the coefficient of orb(m) is the raw total over |orb(m)|
        sizes = [orbit_size(_key_weight(k)) for k in keys]
        den = lcm(*sizes)
        terms.append(_element(
            {k: v * (den // size) for k, v, size in zip(keys, vals.tolist(), sizes)},
            den,
        ))

    if not (terms[0].is_zero() and terms[1].is_zero()):
        raise CertificationError("prefactor power mismatch")
    num = JacobiQExpansion(8, 4, terms)
    quot = jf_div_modular(num, _mf(0, 0, 2, n_num))
    lam = quot.term(0).display_map().get("Σ_{16'}", 0)
    if not lam:
        raise CertificationError("projection lost the leading orbit; recipe broken")
    return quot.scale(1 / lam)


# ---------------------------------------------------------------------------
# Recipes. A catalog form is a sum of terms, each written as one string
#
#     "c E4^a E6^b Δ^d heat(F1·F2·…)"   or   "c E4^a E6^b Δ^d F|T₋(s)"
#
# where c is a rational (default 1), the modular factors and heat are
# optional, F1·F2·… is a product of registry forms and F|T₋(s) applies the
# index-raising operator. A recipe may divide the sum by Δ (its terms are
# then built one order deeper). Every normalization is a literal
# coefficient of some term, so evaluating a recipe reads no coefficient of
# what it builds. One evaluator builds every recipe, and the registry's
# recipe text is rendered from the same data.

_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    e4: int
    e6: int
    delta: int
    heat: bool
    factors: tuple[str, ...]
    lift: int  # s of F|T₋(s); 1 for none

    @classmethod
    def parse(cls, text: str) -> "Term":
        *head, body = text.split()
        coeff = Fraction(head.pop(0) if head and head[0][0] in "-0123456789" else 1)
        powers = {"E4": 0, "E6": 0, "Δ": 0}
        for tok in head:
            base, _, p = tok.partition("^")
            powers[base] += int(p or 1)
        heat = body.startswith("heat(")
        if heat:
            body = body[5:-1]
        body, _, s = body.partition("|T₋(")
        return cls(coeff, powers["E4"], powers["E6"], powers["Δ"],
                   heat, tuple(body.split("·")), int(s[:-1]) if s else 1)

    def text(self) -> str:
        """The term without its sign."""
        c = abs(self.coeff)
        head = "" if c == 1 else str(c) if c.denominator == 1 else f"({c})"
        for base, p in (("E4", self.e4), ("E6", self.e6), ("Δ", self.delta)):
            if p:
                head += base + (str(p).translate(_SUPERSCRIPT) if p > 1 else "")
        body = "·".join(self.factors)
        if self.lift > 1:
            body += f"|T₋({self.lift})"
        if self.heat:
            body = f"heat({body})"
        return f"{head}·{body}" if head else body


@dataclass(frozen=True)
class Recipe:
    terms: tuple[Term, ...]
    over_delta: bool = False

    def __call__(self, n: int) -> JacobiQExpansion:
        """Evaluate the recipe to order n."""
        k = n + 1 if self.over_delta else n
        parts = [_term(t, k) for t in self.terms]
        _check_kinds(f for _, f in parts)
        form = jf_lincomb(parts)
        if self.over_delta:
            form = jf_div_modular(form, _mf(0, 0, 1, k))
        return form

    def __str__(self) -> str:
        out = "".join(
            f" {'−' if t.coeff < 0 else '+'} {t.text()}" for t in self.terms
        )
        out = out[3:] if out.startswith(" + ") else "−" + out[3:]
        return f"({out}) / Δ" if self.over_delta else out


def parse_recipe(*terms: str, over_delta: bool = False) -> Recipe:
    return Recipe(tuple(map(Term.parse, terms)), over_delta)


def _term(t: Term, n: int) -> tuple[Fraction, JacobiQExpansion]:
    """A term at order n, as its coefficient and the form it multiplies."""
    form = build(t.factors[0], t.lift * n)
    for name in t.factors[1:]:
        form = jf_mul(form, build(name, t.lift * n))
    if t.lift > 1:
        form = hecke_t_minus(form, t.lift)
    if t.heat:
        form = heat(form)
    if t.e4 or t.e6 or t.delta:
        form = jf_scale(form, _mf(t.e4, t.e6, t.delta, n))
    return t.coeff, form


def _check_kinds(forms) -> None:
    """Raise unless the forms summed by a recipe share one weight and index."""
    if len({(f.weight, f.index) for f in forms}) > 1:
        raise CertificationError("recipe terms disagree in weight or index")


def _b_a4(n: int) -> JacobiQExpansion:
    return rescale_z(theta_e8(n), 2)


# ---------------------------------------------------------------------------
# Registry

# the normalization of the index-4 forms whose recipe cancels the q² Σ_{16'}
# coefficient; the index4 verify suite checks every entry that carries it
Q2_SIGMA16_CANCELLED = "q² Σ_{16'} coefficient is 0"


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    weight: int
    index: int
    recipe: str
    expected_class: str
    normalization: str = ""
    # (n, text): the q^n term's display_str() is exactly text; the index
    # verify suites check every pin
    pins: tuple[tuple[int, str], ...] = ()
    builder: object = None  # order -> JacobiQExpansion: a Recipe or a function

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
            "display": {str(n): text for n, text in self.pins},
            "buildable": self.buildable,
        }


def _form(name, weight, index, expected_class, *terms, normalization="",
          pins=(), over_delta=False) -> RegistryEntry:
    """A registry entry whose builder and recipe text come from one recipe."""
    recipe = parse_recipe(*terms, over_delta=over_delta)
    return RegistryEntry(name, weight, index, str(recipe), expected_class,
                         normalization, pins, builder=recipe)


def _entries() -> list[RegistryEntry]:
    E, F = RegistryEntry, _form
    z4, z6 = "z=0 value is E4", "z=0 value is E6"
    star = Q2_SIGMA16_CANCELLED
    return [
        E("theta_e8", 4, 1, "lattice theta series", "holomorphic",
          builder=theta_e8),
        F("x2", 4, 2, "holomorphic", "1/9 theta_e8|T₋(2)", normalization=z4,
          pins=((0, "1"), (1, "Σ_4"))),
        F("x3", 4, 3, "holomorphic", "1/28 theta_e8|T₋(3)", normalization=z4,
          pins=((1, "Σ_6"),)),
        F("x4", 4, 4, "holomorphic", "1/73 theta_e8|T₋(4)", normalization=z4),
        E("a4", 4, 4, "θ(τ, 2z)", "holomorphic",
          pins=((0, "1"), (1, "Σ_{8''}")), builder=_b_a4),
        # --- index 2
        F("phi_-4_2", -4, 2, "weak",
          "theta_e8·theta_e8", "-1/9 E4 theta_e8|T₋(2)", over_delta=True,
          pins=((0, "2Σ_2 − Σ_4 − 240"),)),
        F("phi_-2_2", -2, 2, "weak", "3 heat(phi_-4_2)",
          pins=((0, "Σ_2 + Σ_4 − 480"),)),
        F("phi_0_2", 0, 2, "weak", "1/2 E4 phi_-4_2", "-1 heat(phi_-2_2)",
          pins=((0, "Σ_2 + 120"),)),
        F("b2", 6, 2, "holomorphic", "1/360 E6 phi_0_2",
          "-1/1080 E4 E6 phi_-4_2", "-1/1080 E4^2 phi_-2_2", normalization=z6,
          pins=((0, "1"), (1, "−(8/5)Σ_2 − (3/5)Σ_4 + 24"),
                (2, "−(32/5)Σ_2 − (72/5)Σ_4 − (224/5)Σ_6 + Σ_{8''} − "
                    "(24/5)Σ_{8'} + 24"))),
        F("u12_2", 12, 2, "cusp", "Δ phi_0_2", pins=((1, "Σ_2 + 120"),)),
        F("v14_2", 14, 2, "cusp", "1/3 E6 Δ phi_-4_2", "1/3 E4 Δ phi_-2_2",
          pins=((1, "Σ_2 − 240"),)),
        F("w16_2", 16, 2, "cusp", "1/3 E4^2 Δ phi_-4_2", "1/3 E6 Δ phi_-2_2",
          pins=((1, "Σ_2 − 240"),)),
        # --- index 3
        F("b_-2_3", -2, 3, "weak",
          "-5 theta_e8·b2", "5/28 E6 theta_e8|T₋(3)", over_delta=True,
          pins=((0, "3Σ_2 + 3Σ_4 + 5Σ_6 − 2640"),)),
        F("phi_-4_3", -4, 3, "weak",
          "theta_e8·x2", "-1/28 E4 theta_e8|T₋(3)", over_delta=True,
          pins=((0, "Σ_2 + Σ_4 − Σ_6 − 240"),)),
        F("a0_3", 0, 3, "weak", "theta_e8·phi_-4_2",
          pins=((0, "2Σ_2 − Σ_4 − 240"),)),
        F("phi_-2_3", -2, 3, "weak", "3 heat(phi_-4_3)",
          pins=((0, "Σ_2 + Σ_6 − 480"),)),
        F("phi_0_3", 0, 3, "weak",
          "3/8 a0_3", "3/8 E4 phi_-4_3", "-3/4 heat(phi_-2_3)",
          pins=((0, "Σ_2"),)),
        F("phi_-8_3", -8, 3, "weak",
          "1/432 E4^2 phi_-4_3", "1/72 E6 phi_-2_3", "-1/216 E4 a0_3",
          "-1/432 E6 b_-2_3", over_delta=True,
          normalization="q^0 coefficient of Σ_{8'} is 1",
          pins=((0, "−4Σ_2 + 6Σ_4 − 4Σ_6 + Σ_{8'} + 240"),)),
        F("phi_-6_3", -6, 3, "weak", "-3 heat(phi_-8_3)",
          pins=((0, "8Σ_2 − 6Σ_4 + Σ_{8'} − 720"),)),
        F("b3", 6, 3, "holomorphic",
          "1/7680 E4^2 E6 phi_-8_3", "1/15360 E4^3 phi_-6_3",
          "-1/5120 E6^2 phi_-6_3", "-1/640 E4 E6 phi_-4_3",
          "-1/960 E4^2 phi_-2_3", "1/240 E6 phi_0_3", normalization=z6,
          pins=((1, "−(9/20)Σ_2 − (27/20)Σ_4 − (7/20)Σ_6 + 12"),)),
        F("u10_3", 10, 3, "cusp",
          "-35/54 E6 x3", "-50/27 E4 b3", "5/2 b2·theta_e8",
          pins=((1, "−(2/3)Σ_2 + Σ_4 − 80"),)),
        F("u12_3", 12, 3, "cusp",
          "E4 x2·theta_e8", "-1 theta_e8·theta_e8·theta_e8",
          pins=((1, "−2Σ_2 + Σ_4 + 240"),)),
        F("v12_3", 12, 3, "cusp", "Δ phi_0_3", pins=((1, "Σ_2"),)),
        F("u14_3", 14, 3, "cusp", "E4 Δ phi_-2_3", "E6 Δ phi_-4_3",
          pins=((1, "2Σ_2 + Σ_4 − 720"),)),
        F("u16_3", 16, 3, "cusp", "Δ^2 phi_-8_3", pins=((1, "0"),)),
        # --- index 4
        E("phi_-16_4", -16, 4, "theta-quotient projection", "weak",
          normalization="q^0 coefficient of Σ_{16'} is 1",
          pins=((0, "−8Σ_2 + 28Σ_4 − 56Σ_6 + 14Σ_{8''} + 56Σ_{8'} − "
                    "56Σ_{10} + 28Σ_{12} − 8Σ_{14'} + Σ_{16'} + 240"),),
          builder=build_phi16_4),
        F("phi_-14_4", -14, 4, "weak", "-3 heat(phi_-16_4)",
          pins=((0, "34Σ_2 − 98Σ_4 + 154Σ_6 − 28Σ_{8''} − 112Σ_{8'} + "
                    "70Σ_{10} − 14Σ_{12} − 2Σ_{14'} + Σ_{16'} − 1200"),)),
        F("phi_-12_4", -12, 4, "weak",
          "-2/7 heat(phi_-14_4)", "-1/7 E4 phi_-16_4",
          pins=((0, "−11Σ_2 + 24Σ_4 − 25Σ_6 + 2Σ_{8''} + 8Σ_{8'} + "
                    "3Σ_{10} − 4Σ_{12} + Σ_{14'} + 480"),)),
        F("phi_-10_4", -10, 4, "weak",
          "-4/9 heat(phi_-12_4)", "-5/162 E4 phi_-14_4", "5/162 E6 phi_-16_4",
          pins=((0, "4Σ_2 − 5Σ_4 + Σ_{8''} + 4Σ_{8'} − 4Σ_{10} + Σ_{12} "
                    "− 240"),)),
        F("phi_-8_4", -8, 4, "weak",
          "-3/5 heat(phi_-10_4)", "-1/15 E4 phi_-12_4", "1/90 E6 phi_-14_4",
          "-1/90 E4^2 phi_-16_4",
          pins=((0, "−Σ_2 − Σ_4 + 4Σ_6 − (7/10)Σ_{8''} − (14/5)Σ_{8'} + "
                    "Σ_{10} + 120"),)),
        F("phi_-6_4", -6, 4, "weak",
          "-1/2 E4 phi_-10_4", "1/6 E6 phi_-12_4", "-1/36 E4^2 phi_-14_4",
          "1/36 E4 E6 phi_-16_4", "-4 heat(phi_-8_4)",
          pins=((0, "−2Σ_2 + 12Σ_4 − 14Σ_6 + Σ_{8''} + 4Σ_{8'} − 240"),)),
        F("phi_-4_4", -4, 4, "weak",
          "-10/81 E4 phi_-8_4", "5/81 E6 phi_-10_4", "5/1458 E4 E6 phi_-14_4",
          "-5/1458 E4^3 phi_-16_4", "-5/243 E4^2 phi_-12_4",
          "-2/9 heat(phi_-6_4)",
          pins=((0, "Σ_2 − 2Σ_4 + Σ_6"),)),
        F("phi_-2_4", -2, 4, "weak",
          "-5/9 E6 phi_-8_4", "5/18 E4^2 phi_-10_4", "5/324 E4^3 phi_-14_4",
          "-5/324 E4^2 E6 phi_-16_4", "-5/54 E4 E6 phi_-12_4",
          "1/6 E4 phi_-6_4", "12 heat(phi_-4_4)",
          pins=((0, "8Σ_2 − 7Σ_4 − 240"),)),
        F("phi_0_4", 0, 4, "weak", "heat(phi_-2_4)",
          pins=((0, "2Σ_2 − 120"),)),
        F("psi_-8_4", -8, 4, "weak",
          "1/72 theta_e8|T₋(4)", "-73/72 a4", over_delta=True,
          pins=((0, "−Σ_{8''} + Σ_{8'}"),)),
        F("b4", 6, 4, "holomorphic", "1/33 b2|T₋(2)", "2/55 Δ phi_-6_4",
          pins=((1, "−(4/15)Σ_2 − (28/15)Σ_6 + (1/15)Σ_{8''} − 8"),)),
        F("c8_4", 8, 4, "holomorphic",
          "1/54 E4^3 Δ phi_-16_4", "-1/54 E4 E6 Δ phi_-14_4",
          "1/9 E4^2 Δ phi_-12_4", "-1/3 E6 Δ phi_-10_4", "2/3 E4 Δ phi_-8_4"),
        F("u10_4", 10, 4, "cusp",
          "-5/324 E4^2 E6 Δ phi_-16_4", "5/324 E4^3 Δ phi_-14_4",
          "-5/54 E4 E6 Δ phi_-12_4", "5/18 E4^2 Δ phi_-10_4",
          "-5/9 E6 Δ phi_-8_4", "1/6 E4 Δ phi_-6_4",
          "-32/3 Δ^2 phi_-14_4", normalization=star),
        F("u12_4", 12, 4, "cusp",
          "-5/324 E4 E6^2 Δ phi_-16_4", "5/324 E4^2 E6 Δ phi_-14_4",
          "-5/54 E6^2 Δ phi_-12_4", "5/18 E4 E6 Δ phi_-10_4",
          "-5/9 E4^2 Δ phi_-8_4", "1/6 E6 Δ phi_-6_4",
          "-32/3 E4 Δ^2 phi_-16_4", normalization=star),
        F("cusp_8_4", 8, 4, "cusp", "Δ phi_-4_4", "32/9 Δ^2 phi_-16_4",
          normalization=star),
        F("cusp_10_4", 10, 4, "cusp", "Δ phi_-2_4", "-224/9 Δ^2 phi_-14_4",
          normalization=star),
        F("cusp_12_4", 12, 4, "cusp", "Δ phi_0_4", "112/9 E4 Δ^2 phi_-16_4",
          normalization=star),
        # --- declared, not constructible at this scope
        E("x5", 4, 5, "declared only", "holomorphic"),
        E("x6", 4, 6, "declared only", "holomorphic"),
        E("a5", 4, 5, "declared only", "holomorphic"),
        E("b6", 6, 6, "declared only", "holomorphic"),
    ]


# Other names of catalog forms; `build` resolves them before its cache, so an
# alias and its target share one cached object. The pins stay on the target.
_ALIASES = {"x1": "theta_e8", "a1": "theta_e8", "a2": "x2", "a3": "x3"}

REGISTRY: dict[str, RegistryEntry] = {e.name: e for e in _entries()}
REGISTRY.update(
    (alias, replace(REGISTRY[target], name=alias, recipe=f"alias of {target}",
                    pins=()))
    for alias, target in _ALIASES.items()
)


def default_order(index: int) -> int:
    return 2 if index >= 4 else 3


def build(name: str, order: int | None = None) -> JacobiQExpansion:
    """Build a registry form to the requested order (default 3, or 2 at index 4)."""
    name = _ALIASES.get(name, name)
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
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return _build(name, order)


@cache
def _build(name: str, order: int) -> JacobiQExpansion:
    """Run the registry builder of a known name and order, and its contract check."""
    entry = REGISTRY[name]
    form = entry.builder(order)
    if form.order > order:
        form = form.truncate(order)
    if (form.weight, form.index, form.order) != (entry.weight, entry.index, order):
        raise CertificationError(f"builder contract broken for {name}")
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
    if w != 0:
        raise CertificationError(f"heat cascade from weight {w0} ended at weight {w}")
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


@cache
def _hol_rules(t: int) -> tuple[tuple[int, int], ...]:
    """The holomorphy conditions at index t: pairs (n, 2nt), meaning no orbit
    of norm above 2nt at q^n, one for every n with 2nt < max_coset_min_norm(t).

    Quasi-periodicity keeps 2nt - (l,l) and moves l anywhere in its coset
    l + tE8. So a negative 2nt - (l,l) also shows at a shortest vector l'
    of that coset, at a q-power n' with 2n't < (l',l') <= max_coset_min_norm(t):
    these finitely many conditions are conclusive.
    """
    top = max_coset_min_norm(t)
    return tuple((n, 2 * n * t) for n in range(-(-top // (2 * t))))


def weak_generator_names(t: int) -> tuple[str, ...]:
    """The weak generators of index t, in registry order. Raises ValueError
    outside the indices 1..4 whose generators the registry holds."""
    if t not in _WEAK_GEN_NAMES:
        raise ValueError(f"index {t} outside the constructible range 1..4")
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


def holomorphic_subspace(weight: int, t: int, order: int) -> list[JacobiQExpansion]:
    """Basis of the holomorphic forms of the given weight and index.

    Spans all modular-form multiples E4^a·E6^b·g of the weak generators at
    that weight and imposes the finite holomorphy conditions as exact linear
    constraints. No candidate form is built: the candidates are the integer
    rows of verify_free_module (candidate i scaled by its generator's D_g),
    a condition of _hol_rules is one of their (q-power, orbit) columns, and
    a solution is read off the rows as integer coefficients. Scaling a
    candidate only rescales each nullspace vector, and the normalization
    fixes the scale: weight-4 and weight-6 solutions have z=0 value E4 resp.
    E6 (q^0 constant 1); other solutions get leading display coefficient 1.
    """
    names = weak_generator_names(t)
    if weight % 2:
        raise ValueError("weight must be even")
    rules = _hol_rules(t)
    need = max((n for n, _ in rules), default=0)
    if order < need:
        raise ValueError(
            f"order {order} cannot impose the q^{need} holomorphy conditions; "
            f"build with order >= {need}"
        )
    gens = [build(g, order) for g in names]
    keys, blocks = _integer_blocks(gens)
    rows, _ = _integer_candidates(weight, gens, blocks, order)
    if not rows:
        return []
    width = len(keys)
    constraints = [
        [row[n * width + j] for row in rows]
        for n, bound in rules
        for j, k in enumerate(keys)
        if _key_weight(k).norm() > bound
    ]
    solutions = []
    for vec in nullspace([c for c in constraints if any(c)], len(rows)):
        combo = [0] * len(rows[0])
        for x, row in zip(vec, rows):
            if x:
                combo = [a + x * b for a, b in zip(combo, row)]
        terms = [_element(dict(zip(keys, combo[n * width:(n + 1) * width])), 1)
                 for n in range(order + 1)]
        solutions.append(_normalize_solution(JacobiQExpansion(weight, t, terms)))
    return solutions


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


def _integer_blocks(gens):
    """The generators cleared of denominators: (orbits, [(D_g, G_g)]).

    orbits is the sorted joint support of the generators, as packed row
    keys; D_g is the lcm of g's q-power denominators, the lcm of its
    coefficient denominators, and G_g[n][j] is D_g times g's coefficient of
    orb(orbits[j]) at q^n.
    """
    orbits = sorted({k for g in gens for term in g.terms for k in term.num})
    column = {k: j for j, k in enumerate(orbits)}
    blocks = []
    for g in gens:
        scale = lcm(*(term.den for term in g.terms))
        block = [[0] * len(orbits) for _ in g.terms]
        for row, term in zip(block, g.terms):
            factor = scale // term.den
            for k, v in term.num.items():
                row[column[k]] = v * factor
        blocks.append((scale, block))
    return orbits, blocks


def _integer_candidates(weight: int, gens, blocks, order: int):
    """The candidates E4^a·E6^b·g of the given weight, each scaled by its
    generator's D_g, as integer rows over (q-power, orbit) columns,
    q-powers outermost; and the D_g of each row."""
    rows, scales = [], []
    for g, (scale, block) in zip(gens, blocks):
        for a4, a6 in _monomials(weight - g.weight):
            f = _mf(a4, a6, 0, order)
            if any(c.denominator != 1 for c in f.coeffs):
                raise CertificationError(
                    f"E4^{a4}·E6^{a6} has a coefficient that is not an integer")
            f = [c.numerator for c in f.coeffs]
            row: list[int] = []
            for n in range(order + 1):
                acc = [0] * len(block[n])
                for j in range(n + 1):
                    if f[j]:
                        acc = [a + f[j] * b for a, b in zip(acc, block[n - j])]
                row += acc
            rows.append(row)
            scales.append(scale)
    return rows, scales


def verify_free_module(
    t: int, max_weight: int, order: int | None = None
) -> ModuleReport:
    """Check free-module structure degree by degree.

    For every even weight up to max_weight, the modular multiples of the
    weak generators must be linearly independent (exact rank over the
    rationals) and as numerous as the graded free-module count predicts. A
    rank deficiency is reported with an explicit vanishing combination.

    No candidate form is built. Each generator g is cleared of denominators
    once, to D_g·g on integers, one column per (q-power, orbit) of the
    generators' joint support; E4^a·E6^b has integer coefficients, so the
    candidate E4^a·E6^b·g scaled by D_g is an integer convolution of the
    two. Scaling rows keeps the rank, and a vanishing combination x of the
    scaled rows is the combination D·x of the candidates.
    """
    names = weak_generator_names(t)
    if order is None:
        order = default_order(t)
    gens = [build(g, order) for g in names]
    report = ModuleReport(t, len(gens))
    _, blocks = _integer_blocks(gens)
    start = min(g.weight for g in gens)
    for w in range(start, max_weight + 1, 2):
        rows, scales = _integer_candidates(w, gens, blocks, order)
        expected = sum(dim_modular(w - g.weight) for g in gens)
        if len(rows) != expected:
            raise CertificationError(
                f"weight {w}: {len(rows)} candidates, free-module count {expected}"
            )
        if not rows:
            report.rows.append((w, 0, 0, True, ""))
            continue
        # a column that no candidate reaches does not change the rank
        live = [c for c in zip(*rows) if any(c)]
        rk = rank(list(zip(*live)))
        ok = rk == expected
        detail = ""
        if not ok:
            combo = nullspace(live, len(rows))
            vec = integerize([x * d for x, d in zip(combo[0], scales)]) if combo else "?"
            detail = f"vanishing combination: {vec}"
        report.rows.append((w, expected, rk, ok, detail))
    return report


# ---------------------------------------------------------------------------
# Tables


def rank_series(t_max: int) -> list[int]:
    """Coefficients 0..t_max of 1/((1-x)(1-x²)²(1-x³)²(1-x⁴)²(1-x⁵)(1-x⁶)),
    by multiplying 1 by each 1/(1-x^d) in turn; the t_max + 1 coefficients
    are bounded by the element budget."""
    if t_max < 0:
        raise ValueError("need a non-negative bound")
    limit = element_budget()
    if t_max + 1 > limit:
        raise BudgetError(
            f"rank series of {t_max + 1} terms exceeds element budget {limit}"
        )
    out = [1] + [0] * t_max
    for d in (1, 2, 2, 3, 3, 4, 4, 5, 6):
        for i in range(d, t_max + 1):
            out[i] += out[i - d]
    return out


def _dim_weak(w: int, r: int) -> int:
    if r == 0:
        return dim_modular(w)
    if 1 <= r <= 4:
        return sum(dim_modular(w - REGISTRY[g].weight) for g in _WEAK_GEN_NAMES[r])
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
# Distinguished bases for the holomorphic and cusp subspaces: (label, *terms)

_HOLOMORPHIC_BASES = {
    3: (
        ("x3", "x3"),
        ("b3", "b3"),
        ("x2*theta", "x2·theta_e8"),
        ("b2*theta", "b2·theta_e8"),
        ("theta^3", "theta_e8·theta_e8·theta_e8"),
    ),
    4: (
        ("a4", "a4"),
        ("delta*psi_-8_4", "Δ psi_-8_4"),
        ("b4", "b4"),
        ("delta*phi_-6_4", "Δ phi_-6_4"),
        ("c8_4", "c8_4"),
        ("delta*phi_-4_4", "Δ phi_-4_4"),
        ("delta^2*phi_-16_4", "Δ^2 phi_-16_4"),
        ("delta*phi_-2_4", "Δ phi_-2_4"),
        ("delta^2*phi_-14_4", "Δ^2 phi_-14_4"),
        ("delta^2*phi_-12_4", "Δ^2 phi_-12_4"),
    ),
}

_CUSP_BASES = {
    3: tuple((n, n) for n in ("u10_3", "u12_3", "v12_3", "u14_3", "u16_3")),
    4: (
        *((n, n) for n in ("cusp_8_4", "cusp_10_4", "u10_4", "cusp_12_4", "u12_4")),
        ("delta^2*phi_-12_4", "Δ^2 phi_-12_4"),
        ("delta^2*(E4*phi_-14_4 - E6*phi_-16_4)",
         "E4 Δ^2 phi_-14_4", "-1 E6 Δ^2 phi_-16_4"),
        ("delta^2*phi_-10_4", "Δ^2 phi_-10_4"),
        ("delta^2*phi_-8_4", "Δ^2 phi_-8_4"),
        ("delta^2*psi_-8_4", "Δ^2 psi_-8_4"),
    ),
}


def _basis(table, t: int, order: int | None):
    if t not in table:
        raise ValueError("distinguished bases are tabulated for t in {3, 4}")
    if order is None:
        order = default_order(t)
    return [(label, parse_recipe(*terms)(order)) for label, *terms in table[t]]


def holomorphic_basis(t: int, order: int | None = None):
    """Named generating set of the holomorphic forms over the modular ring."""
    return _basis(_HOLOMORPHIC_BASES, t, order)


def cusp_basis(t: int, order: int | None = None):
    """Named generating set of the cusp forms over the modular ring."""
    return _basis(_CUSP_BASES, t, order)
