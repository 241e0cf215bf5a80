"""Fixtures shared by the test modules."""

import importlib
import pkgutil
from math import gcd

import pytest

import e8jac


def e8jac_modules():
    """Every module of the e8jac package, imported."""
    return [importlib.import_module(f"e8jac.{info.name}")
            for info in pkgutil.iter_modules(e8jac.__path__)]


def memos():
    """Every memo in the e8jac modules: each attribute with a cache_clear, once."""
    found = {}
    for mod in e8jac_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def _clear_memos():
    for memo in memos():
        memo.cache_clear()


@pytest.fixture
def cold_memos():
    """Run the test on cleared memos and clear what it cached afterwards.
    The yielded function clears every memo again when a test needs it."""
    _clear_memos()
    yield _clear_memos
    _clear_memos()


def assert_canonical(x):
    """An InvariantElement's coefficient format: integer numerators, none
    zero, over a positive denominator in lowest terms."""
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int and v for v in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1
