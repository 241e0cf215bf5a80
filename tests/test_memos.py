"""The one memo mechanism: every cache is a functools.cache on exactly the
values it reads."""
import pytest

from conftest import e8jac_modules, memos
from e8jac.e8 import DominantWeight, E8Vector, orbit_array, orbit_size


def test_no_module_keeps_a_hand_rolled_cache():
    for mod in e8jac_modules():
        assert not [a for a in vars(mod) if a.endswith("_cache")], mod.__name__


def test_cold_memos_clears_every_memo_it_finds(cold_memos):
    from e8jac.catalog import build

    build("x2", 1)
    found = {memo.__name__ for memo in memos()}
    assert {"orbit_array", "orbit_size", "_orbit_pair_product", "_build",
            "bernoulli", "_parabolic_order", "_shell", "_norm_over_coset_min"} <= found
    assert any(memo.cache_info().currsize for memo in memos())
    cold_memos()
    for memo in memos():
        info = memo.cache_info()
        assert info.maxsize is None and info.currsize == 0, memo.__name__


@pytest.mark.parametrize("warm", [False, True])
def test_orbit_memos_read_only_the_coordinates(warm, cold_memos):
    m = DominantWeight.from_fw((0,) * 7 + (1,))
    if warm:
        orbit_size(m), orbit_array(m)
    assert orbit_size(E8Vector(m.d)) == orbit_size(m) == 240
    assert orbit_array(E8Vector(m.d)) is orbit_array(m)
    not_dominant = E8Vector((2, -2, 0, 0, 0, 0, 0, 0))
    for _ in range(2):
        with pytest.raises(ValueError, match="not dominant"):
            orbit_size(not_dominant)
        with pytest.raises(ValueError, match="not dominant"):
            orbit_array(not_dominant)
