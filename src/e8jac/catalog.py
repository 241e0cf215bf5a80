"""Named-form registry, linear-system solvers, and structure verification.

Every explicitly constructed form of index 1..4 lives here under a stable
ASCII identifier, together with its recipe, its normalization rule, and the
class (weak / holomorphic / cusp) it is expected to have. Most forms are
recipes held as data and built by one evaluator, which computes the input
orders backward through the operator chain, so a requested truncation order
is honest: all returned terms are exact.

Alongside the registry: the q^0 cascade linear systems, holomorphic-subspace
extraction by exact linear algebra, free-module rank verification, the rank
generating series, the dimension-bound table, and the pullback maxima table.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import isqrt

import numpy as np

from .e8 import (
    CertificationError,
    DominantWeight,
    _batch_reduce,
    _pack,
    _unpack,
    max_coset_min_norm,
    max_pairing,
    orbit_size,
)
from .invring import SIGMA_LABELS, InvariantElement, label_weight
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
from .linalg import nullspace, rank
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
    """A request the catalog cannot serve: a declared-only form, too low an
    order for a recipe, or a table past the range its inputs determine."""


# ---------------------------------------------------------------------------
# small q-series helper (cached per order)

@cache
def _mf(a4: int, a6: int, d: int, order: int) -> ModularQSeries:
    """E4^a4 · E6^a6 · Δ^d at the given order."""
    return eisenstein(4, order) ** a4 * eisenstein(6, order) ** a6 * delta(order) ** d


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


_CHUNK = 1 << 16  # raw rows per dominant-reduction call in build_phi16_4


def _sum_by_key(keys: np.ndarray, vals: np.ndarray):
    """Sum vals over equal keys: the sorted distinct keys with nonzero sums."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    keys, sums = keys[start], np.add.reduceat(vals, start)
    keep = sums != 0
    return keys[keep], sums[keep]


def _check_int64(va: np.ndarray, vb: np.ndarray) -> None:
    """Raise unless every sum of products va[i]·vb[j] fits int64.

    Any such sum is at most (Σ|va|)·(Σ|vb|) in absolute value.
    """
    mass = [sum(map(abs, v.tolist())) for v in (va, vb)]
    if mass[0] * mass[1] > np.iinfo(np.int64).max:
        raise CertificationError("theta product coefficients would overflow int64")


def _half_table(max_t2: int, cap: int):
    """Two pair blocks multiplied out: exponents, uint32 keys and values.

    A pair block's doubled (zeta_u, zeta_v) exponents get a 16-bit key in
    e8._pack's byte layout (each doubled coordinate offset by 128, first
    coordinate high), so the key of a concatenated row is the shifted
    concatenation of the keys of its parts. Terms with doubled q-exponent
    above cap are dropped.
    """
    block = _theta_pair_block(max_t2)
    t = np.array([k[0] for k in block], dtype=np.int64)
    coords = np.array([k[1] for k in block], dtype=np.int64).reshape(-1, 2)
    v = np.array(list(block.values()), dtype=np.int64)
    if (coords.sum(axis=1) % 2).any():
        raise CertificationError("raw exponent escaped the even-sum sublattice")
    rows = 2 * coords + 128
    key = ((rows[:, 0] << 8) | rows[:, 1]).astype(np.uint64)
    _check_int64(v, v)
    ht = (t[:, None] + t[None, :]).ravel()
    hk = ((key[:, None] << 16) | key[None, :]).ravel()
    hv = (v[:, None] * v[None, :]).ravel()
    sel = ht <= cap
    keys, vals = _sum_by_key((ht[sel].astype(np.uint64) << 32) | hk[sel], hv[sel])
    return (keys >> 32).astype(np.int64), keys & 0xFFFFFFFF, vals


def build_phi16_4(order: int) -> JacobiQExpansion:
    """The weight -16 index 4 generator, from the 16-fold theta quotient.

    Takes the exact 8-variable Fourier expansion of the product of the four
    pair blocks, divides by Delta^2 (the sixteen q^(1/8) prefactors supply
    exactly q^2), projects onto Weyl invariants by orbit-averaging the raw
    coefficients, and normalizes the q^0 display coefficient of Σ_{16'} to 1.

    The expansion is held in int64 tables with one uint64 key per raw
    8-coordinate row (e8._pack's layout). Per q-exponent the products of two
    half tables (two blocks each) are summed by raw row, then dominant-reduced
    in chunks of at most 65,536 rows and summed by dominant row, so the
    working set beyond the raw table of one q-exponent is bounded by the
    chunk.
    """
    if order < 0 or order > 3:
        raise ValueError("theta-quotient construction supports orders 0..3")
    n_num = order + 2
    budget = 2 * n_num  # doubled q-exponent across all four blocks
    # each block has doubled q-exponent >= 1, so the other half needs >= 2
    ht, hk, hv = _half_table(budget - 3, budget - 2)
    if (ht % 2).any():
        raise CertificationError("odd doubled q-exponent in the theta product")
    _check_int64(hv, hv)

    half = {int(e): (hk[ht == e], hv[ht == e]) for e in np.unique(ht)}
    terms = []
    for n in range(n_num + 1):
        pairs = [(half[a], half[2 * n - a]) for a in half if 2 * n - a in half]
        keys, vals = _sum_by_key(
            np.concatenate([hk[:0]] + [
                ((k1[:, None] << 32) | k2).ravel() for (k1, _), (k2, _) in pairs
            ]),
            np.concatenate([hv[:0]] + [
                np.outer(v1, v2).ravel() for (_, v1), (_, v2) in pairs
            ]),
        )
        for lo in range(0, len(keys), _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            keys[chunk] = _pack(_batch_reduce(_unpack(keys[chunk])))
        keys, vals = _sum_by_key(keys, vals)
        elem: dict[DominantWeight, Fraction] = {}
        for m, total in zip(DominantWeight._from_rows(_unpack(keys)), vals.tolist()):
            elem[m] = Fraction(total, orbit_size(m))
        terms.append(InvariantElement(elem))

    if not (terms[0].is_zero() and terms[1].is_zero()):
        raise CertificationError("prefactor power mismatch")
    num = JacobiQExpansion(8, 4, terms)
    quot = jf_div_modular(num, _mf(0, 0, 2, n_num))
    lam = _display_coeff(quot.term(0), "Σ_{16'}")
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
# then built one order deeper), rescale it so that one q^0 Σ-label has
# display coefficient 1, or subtract the multiple of a tail term that
# cancels the q² Σ_{16'} coefficient. One evaluator builds every recipe, and
# the registry's recipe text is rendered from the same data.

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
    lead: str = ""  # Σ-label whose q^0 display coefficient is scaled to 1
    cancel: Term | None = None  # tail term for the q² Σ_{16'} cancellation

    def __call__(self, n: int) -> JacobiQExpansion:
        """Evaluate the recipe to order n."""
        if self.cancel and n < 2:
            raise CatalogError(
                "the cancellation rule reads the q^2 term; build with order >= 2"
            )
        k = n + 1 if self.over_delta else n
        parts = [_term(t, k) for t in self.terms]
        _check_kinds(f for _, f in parts)
        form = jf_lincomb(parts)
        if self.over_delta:
            form = jf_div_modular(form, _mf(0, 0, 1, k))
        if self.lead:
            lam = _display_coeff(form.term(0), self.lead)
            if not lam:
                raise CertificationError(
                    f"normalization failed: no {self.lead} part at q^0"
                )
            form = form.scale(1 / lam)
        if self.cancel:
            _, tail = _term(self.cancel, n)
            _check_kinds((form, tail))
            denom = _display_coeff(tail.term(2), "Σ_{16'}")
            if not denom:
                raise CertificationError(
                    "cancellation target missing from the subtracted form"
                )
            lam = _display_coeff(form.term(2), "Σ_{16'}") / denom
            form = jf_lincomb([(1, form), (-lam, tail)])
        return form

    def __str__(self) -> str:
        out = "".join(
            f" {'−' if t.coeff < 0 else '+'} {t.text()}" for t in self.terms
        )
        out = out[3:] if out.startswith(" + ") else "−" + out[3:]
        if self.over_delta:
            out = f"({out}) / Δ"
        if self.lead:
            out += ", rescaled"
        if self.cancel:
            out += f" − *{self.cancel.text()}"
        return out


def parse_recipe(
    *terms: str, over_delta: bool = False, lead: str = "", cancel: str = ""
) -> Recipe:
    return Recipe(
        tuple(map(Term.parse, terms)),
        over_delta,
        lead,
        Term.parse(cancel) if cancel else None,
    )


def _term(t: Term, n: int) -> tuple[Fraction, JacobiQExpansion]:
    """A term at order n, as its coefficient and the form it multiplies."""
    form = build(t.factors[0], t.lift * n)
    for name in t.factors[1:]:
        form = jf_mul(form, build(name, t.lift * n))
    if t.lift > 1:
        form = hecke_t_minus(form, t.lift, n)
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


def _b_b3(n: int) -> JacobiQExpansion:
    basis = holomorphic_subspace(6, 3, max(n, 1))
    if len(basis) != 1:
        raise CertificationError(f"expected a unique weight-6 form, got {len(basis)}")
    return basis[0].truncate(n)


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
            "display": self.display,
            "buildable": self.buildable,
        }


def _form(name, weight, index, expected_class, *terms, normalization="",
          display="", over_delta=False, lead="", cancel="") -> RegistryEntry:
    """A registry entry whose builder and recipe text come from one recipe."""
    recipe = parse_recipe(*terms, over_delta=over_delta, lead=lead, cancel=cancel)
    if lead:
        normalization = f"q^0 coefficient of {lead} is 1"
    if cancel:
        normalization = "* cancels the q² Σ_{16'} coefficient"
    return RegistryEntry(name, weight, index, str(recipe), expected_class,
                         normalization, display, builder=recipe)


def _entries() -> list[RegistryEntry]:
    E, F = RegistryEntry, _form
    z4, z6 = "z=0 value is E4", "z=0 value is E6"
    return [
        E("theta_e8", 4, 1, "lattice theta series", "holomorphic",
          display="1 + qΣ_2 + O(q²)", builder=theta_e8),
        F("x2", 4, 2, "holomorphic", "1/9 theta_e8|T₋(2)", normalization=z4,
          display="1 + qΣ_4 + O(q²)"),
        F("x3", 4, 3, "holomorphic", "1/28 theta_e8|T₋(3)", normalization=z4,
          display="1 + qΣ_6 + O(q²)"),
        F("x4", 4, 4, "holomorphic", "1/73 theta_e8|T₋(4)", normalization=z4),
        E("a4", 4, 4, "θ(τ, 2z)", "holomorphic",
          display="1 + qΣ_{8''} + O(q²)", builder=_b_a4),
        # --- index 2
        F("phi_-4_2", -4, 2, "weak",
          "theta_e8·theta_e8", "-1/9 E4 theta_e8|T₋(2)", over_delta=True,
          display="2Σ_2 − Σ_4 − 240 + O(q)"),
        F("phi_-2_2", -2, 2, "weak", "3 heat(phi_-4_2)",
          display="Σ_2 + Σ_4 − 480 + O(q)"),
        F("phi_0_2", 0, 2, "weak", "1/2 E4 phi_-4_2", "-1 heat(phi_-2_2)",
          display="Σ_2 + 120 + O(q)"),
        F("b2", 6, 2, "holomorphic", "1/360 E6 phi_0_2",
          "-1/1080 E4 E6 phi_-4_2", "-1/1080 E4^2 phi_-2_2", normalization=z6),
        F("u12_2", 12, 2, "cusp", "Δ phi_0_2",
          display="q(Σ_2 + 120) + O(q²)"),
        F("v14_2", 14, 2, "cusp", "1/3 E6 Δ phi_-4_2", "1/3 E4 Δ phi_-2_2",
          display="q(Σ_2 − 240) + O(q²)"),
        F("w16_2", 16, 2, "cusp", "1/3 E4^2 Δ phi_-4_2", "1/3 E6 Δ phi_-2_2",
          display="q(Σ_2 − 240) + O(q²)"),
        # --- index 3
        F("b_-2_3", -2, 3, "weak",
          "-5 theta_e8·b2", "5/28 E6 theta_e8|T₋(3)", over_delta=True,
          display="3Σ_2 + 3Σ_4 + 5Σ_6 − 2640 + O(q)"),
        F("phi_-4_3", -4, 3, "weak",
          "theta_e8·x2", "-1/28 E4 theta_e8|T₋(3)", over_delta=True,
          display="Σ_2 + Σ_4 − Σ_6 − 240 + O(q)"),
        F("a0_3", 0, 3, "weak", "theta_e8·phi_-4_2",
          display="2Σ_2 − Σ_4 − 240 + O(q)"),
        F("phi_-2_3", -2, 3, "weak", "3 heat(phi_-4_3)",
          display="Σ_2 + Σ_6 − 480 + O(q)"),
        F("phi_0_3", 0, 3, "weak",
          "3/8 a0_3", "3/8 E4 phi_-4_3", "-3/4 heat(phi_-2_3)",
          display="Σ_2 + O(q)"),
        F("phi_-8_3", -8, 3, "weak",
          "E4^2 phi_-4_3", "6 E6 phi_-2_3", "-2 E4 a0_3", "-1 E6 b_-2_3",
          over_delta=True, lead="Σ_{8'}",
          display="Σ_{8'} − 4Σ_6 + 6Σ_4 − 4Σ_2 + 240 + O(q)"),
        F("phi_-6_3", -6, 3, "weak", "-3 heat(phi_-8_3)",
          display="Σ_{8'} − 6Σ_4 + 8Σ_2 − 720 + O(q)"),
        E("b3", 6, 3, "unique holomorphic weight-6 index-3 form", "holomorphic",
          normalization=z6, builder=_b_b3),
        F("u10_3", 10, 3, "cusp",
          "-35/54 E6 x3", "-50/27 E4 b3", "5/2 b2·theta_e8",
          display="q(Σ_4 − (2/3)Σ_2 − 80) + O(q²)"),
        F("u12_3", 12, 3, "cusp",
          "E4 x2·theta_e8", "-1 theta_e8·theta_e8·theta_e8",
          display="q(Σ_4 − 2Σ_2 + 240) + O(q²)"),
        F("v12_3", 12, 3, "cusp", "Δ phi_0_3", display="qΣ_2 + O(q²)"),
        F("u14_3", 14, 3, "cusp", "E4 Δ phi_-2_3", "E6 Δ phi_-4_3",
          display="q(Σ_4 + 2Σ_2 − 720) + O(q²)"),
        F("u16_3", 16, 3, "cusp", "Δ^2 phi_-8_3"),
        # --- index 4
        E("phi_-16_4", -16, 4, "theta-quotient projection", "weak",
          normalization="q^0 coefficient of Σ_{16'} is 1",
          display="Σ_{16'} − 8Σ_{14'} + 28Σ_{12} − 56Σ_{10} + 14Σ_{8''} + "
                  "56Σ_{8'} − 56Σ_6 + 28Σ_4 − 8Σ_2 + 240 + O(q)",
          builder=build_phi16_4),
        F("phi_-14_4", -14, 4, "weak", "-3 heat(phi_-16_4)"),
        F("phi_-12_4", -12, 4, "weak",
          "-2/7 heat(phi_-14_4)", "-1/7 E4 phi_-16_4"),
        F("phi_-10_4", -10, 4, "weak",
          "-4/9 heat(phi_-12_4)", "-5/162 E4 phi_-14_4", "5/162 E6 phi_-16_4"),
        F("phi_-8_4", -8, 4, "weak",
          "-3/5 heat(phi_-10_4)", "-1/15 E4 phi_-12_4", "1/90 E6 phi_-14_4",
          "-1/90 E4^2 phi_-16_4"),
        F("phi_-6_4", -6, 4, "weak",
          "-1/2 E4 phi_-10_4", "1/6 E6 phi_-12_4", "-1/36 E4^2 phi_-14_4",
          "1/36 E4 E6 phi_-16_4", "-4 heat(phi_-8_4)"),
        F("phi_-4_4", -4, 4, "weak",
          "-10/81 E4 phi_-8_4", "5/81 E6 phi_-10_4", "5/1458 E4 E6 phi_-14_4",
          "-5/1458 E4^3 phi_-16_4", "-5/243 E4^2 phi_-12_4",
          "-2/9 heat(phi_-6_4)",
          display="Σ_6 − 2Σ_4 + Σ_2 + O(q)"),
        F("phi_-2_4", -2, 4, "weak",
          "-5/9 E6 phi_-8_4", "5/18 E4^2 phi_-10_4", "5/324 E4^3 phi_-14_4",
          "-5/324 E4^2 E6 phi_-16_4", "-5/54 E4 E6 phi_-12_4",
          "1/6 E4 phi_-6_4", "12 heat(phi_-4_4)",
          display="−7Σ_4 + 8Σ_2 − 240 + O(q)"),
        F("phi_0_4", 0, 4, "weak", "heat(phi_-2_4)",
          display="2Σ_2 − 120 + O(q)"),
        F("psi_-8_4", -8, 4, "weak",
          "1/72 theta_e8|T₋(4)", "-73/72 a4", over_delta=True,
          display="Σ_{8'} − Σ_{8''} + O(q)"),
        F("b4", 6, 4, "holomorphic", "1/33 b2|T₋(2)", "2/55 Δ phi_-6_4"),
        F("c8_4", 8, 4, "holomorphic",
          "1/54 E4^3 Δ phi_-16_4", "-1/54 E4 E6 Δ phi_-14_4",
          "1/9 E4^2 Δ phi_-12_4", "-1/3 E6 Δ phi_-10_4", "2/3 E4 Δ phi_-8_4"),
        F("u10_4", 10, 4, "cusp",
          "-5/324 E4^2 E6 Δ phi_-16_4", "5/324 E4^3 Δ phi_-14_4",
          "-5/54 E4 E6 Δ phi_-12_4", "5/18 E4^2 Δ phi_-10_4",
          "-5/9 E6 Δ phi_-8_4", "1/6 E4 Δ phi_-6_4",
          cancel="Δ^2 phi_-14_4"),
        F("u12_4", 12, 4, "cusp",
          "-5/324 E4 E6^2 Δ phi_-16_4", "5/324 E4^2 E6 Δ phi_-14_4",
          "-5/54 E6^2 Δ phi_-12_4", "5/18 E4 E6 Δ phi_-10_4",
          "-5/9 E4^2 Δ phi_-8_4", "1/6 E6 Δ phi_-6_4",
          cancel="E4 Δ^2 phi_-16_4"),
        F("cusp_8_4", 8, 4, "cusp", "Δ phi_-4_4", cancel="Δ^2 phi_-16_4"),
        F("cusp_10_4", 10, 4, "cusp", "Δ phi_-2_4", cancel="Δ^2 phi_-14_4"),
        F("cusp_12_4", 12, 4, "cusp", "Δ phi_0_4", cancel="E4 Δ^2 phi_-16_4"),
        # --- declared, not constructible at this scope
        E("x5", 4, 5, "declared only", "holomorphic"),
        E("x6", 4, 6, "declared only", "holomorphic"),
        E("a5", 4, 5, "declared only", "holomorphic"),
        E("b6", 6, 6, "declared only", "holomorphic"),
    ]


# Other names of catalog forms; `build` resolves them before its cache, so an
# alias and its target share one cached object.
_ALIASES = {"x1": "theta_e8", "a1": "theta_e8", "a2": "x2", "a3": "x3"}

REGISTRY: dict[str, RegistryEntry] = {e.name: e for e in _entries()}
REGISTRY.update(
    (alias, replace(REGISTRY[target], name=alias, recipe=f"alias of {target}"))
    for alias, target in _ALIASES.items()
)

_build_cache: dict[tuple[str, int], JacobiQExpansion] = {}


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
    key = (name, order)
    cached = _build_cache.get(key)
    if cached is not None:
        return cached
    form = entry.builder(order)
    if form.order > order:
        form = form.truncate(order)
    if (form.weight, form.index, form.order) != (entry.weight, entry.index, order):
        raise CertificationError(f"builder contract broken for {name}")
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
            cands.append(jf_scale(g, _mf(a4, a6, 0, order)))
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
    rules = _hol_rules(t)
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
    return [
        _normalize_solution(jf_lincomb([(x, c) for x, c in zip(vec, cands) if x]))
        for vec in coeffs
    ]


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
        if len(cands) != expected:
            raise CertificationError(
                f"weight {w}: {len(cands)} candidates, free-module count {expected}"
            )
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
