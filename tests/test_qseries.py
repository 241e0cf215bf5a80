"""qseries: Eisenstein series, delta, exact series arithmetic."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8jac.qseries import (
    ModularQSeries,
    bernoulli,
    delta,
    dim_modular,
    eisenstein,
    format_rational,
    parse_rational,
    series_div,
    series_mul,
    sigma_pow,
)
from oracles import delta_by_eta_product

N = 24


def naive_sigma(n, k):
    # independent oracle: literal divisor scan
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_sigma_pow_matches_divisor_scan():
    for n in range(1, 200):
        for k in (1, 3, 5):
            assert sigma_pow(n, k) == naive_sigma(n, k)


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize(
    "k,lead",
    [(2, -24), (4, 240), (6, -504), (8, 480), (10, -264), (14, -24)],
)
def test_eisenstein_normalization(k, lead):
    e = eisenstein(k, N)
    assert e[0] == 1
    for n in range(1, N + 1):
        assert e[n] == lead * naive_sigma(n, k - 1)


def test_eisenstein_e12_has_691_denominator():
    e = eisenstein(12, 3)
    assert e[1] == Fraction(65520, 691)


def test_delta_two_routes_agree():
    # the Eisenstein expression versus the pentagonal-number eta^24
    for order in range(N + 1):
        assert delta(order) == delta_by_eta_product(order), order


def test_delta_rejects_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        delta(-1)


def test_delta_tau_values():
    d = delta(8)
    assert [d[n] for n in range(1, 9)] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480]


def test_delta_weight():
    assert delta(4).weight == 12


def test_dim_modular_matches_monomial_count():
    for k in range(0, 61):
        count = sum(
            1
            for a in range(k // 4 + 1)
            for b in range(k // 6 + 1)
            if 4 * a + 6 * b == k
        )
        assert dim_modular(k) == count
    assert dim_modular(-4) == 0
    assert dim_modular(7) == 0


def test_series_div_round_trip():
    e4 = eisenstein(4, 12)
    d = delta(12)
    q = series_div(series_mul(e4, d), d)
    assert q == e4.truncate(q.order)


def test_series_div_by_noninvertible():
    with pytest.raises(ZeroDivisionError):
        series_div(eisenstein(4, 6), ModularQSeries(0, [Fraction(0)] * 7))
    # e4 has a q^0 term, delta doesn't: the quotient would have a pole
    with pytest.raises(ValueError, match="not divisible"):
        series_div(eisenstein(4, 6), delta(6))


def test_pow_zero_is_unit():
    d = delta(6)
    u = d**0
    assert u[0] == 1 and all(u[n] == 0 for n in range(1, u.order + 1))


def test_valuation():
    assert delta(6).valuation() == 1
    assert eisenstein(4, 6).valuation() == 0
    assert ModularQSeries(0, [Fraction(0)] * 3).valuation() is None


small_fracs = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@given(st.lists(small_fracs, min_size=1, max_size=6),
       st.lists(small_fracs, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_mul_commutes(xs, ys):
    a = ModularQSeries(0, xs)
    b = ModularQSeries(0, ys)
    assert series_mul(a, b) == series_mul(b, a)


@given(st.lists(small_fracs, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_div_recovers_numerator(xs):
    b = ModularQSeries(0, [Fraction(1)] + xs)
    a = ModularQSeries(0, xs + [Fraction(2)])
    assert series_mul(series_div(a, b), b) == a


@given(small_fracs)
@settings(max_examples=100, deadline=None)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_rational_formats():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert parse_rational("24/5") == Fraction(24, 5)
