import math

import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from junctionlab import (EPS0, K_B, Material, Q, builtin_materials,
                         get_material, thermal_voltage)


def test_constants_are_si_defined_values():
    assert Q == 1.602176634e-19
    assert K_B == 1.380649e-23
    assert EPS0 == 8.8541878128e-12


def test_builtin_materials_content():
    mats = {m.name: m for m in builtin_materials()}
    assert mats["Si"] == Material("Si", 11.7, 1.0e16, 300.0)
    assert mats["Ge"] == Material("Ge", 16.0, 2.4e19, 300.0)
    assert mats["GaAs"] == Material("GaAs", 12.9, 2.1e12, 300.0)


def test_builtin_materials_sorted_and_stable():
    a = builtin_materials()
    b = builtin_materials()
    assert a == b
    assert [m.name for m in a] == sorted(m.name for m in a)
    assert all(m.eps_r > 1 for m in a)


def test_si_absolute_permittivity():
    assert_allclose(get_material("Si").eps, 11.7 * 8.8541878128e-12, rtol=1e-15)
    assert_allclose(get_material("Si").eps, 1.03594e-10, rtol=1e-5)


def test_material_invariants_enforced():
    with pytest.raises(ValueError):
        Material("bad", 0.9, 1e16, 300.0)
    with pytest.raises(ValueError):
        Material("bad", 11.7, -1.0, 300.0)
    with pytest.raises(ValueError):
        Material("bad", 11.7, 1e16, 0.0)


@pytest.mark.parametrize("n_i", [1e306, 1e155, 1e-294, 1e-163])
def test_material_rejects_n_i_whose_square_leaves_the_float_range(n_i):
    # V_bi divides by n_i^2, which overflows to inf or underflows to 0.0
    with pytest.raises(ValueError, match=r"^n_i\^2 must be a positive finite float, got n_i = "):
        Material("bad", 11.7, n_i, 300.0)


@pytest.mark.parametrize("n_i", [1e154, 1e-161])
def test_material_accepts_n_i_whose_square_is_a_float(n_i):
    assert Material("edge", 11.7, n_i, 300.0).n_i == n_i


def test_thermal_voltage_room_temperature():
    assert_allclose(thermal_voltage(300.0), 0.0258520, atol=1e-6)


def test_thermal_voltage_rejects_nonpositive():
    for temp in (0.0, -10.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            thermal_voltage(temp)


def test_thermal_voltage_linearity():
    assert thermal_voltage(600.0) == 2.0 * thermal_voltage(300.0)


@given(st.floats(min_value=1.0, max_value=2000.0),
       st.floats(min_value=1.001, max_value=10.0))
def test_thermal_voltage_strictly_increasing(t, factor):
    assert thermal_voltage(t * factor) > thermal_voltage(t)


def test_unknown_material_lookup():
    with pytest.raises(KeyError):
        get_material("unobtainium")


@pytest.mark.parametrize("field", ["eps_r", "n_i", "temp_ref"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_material_rejects_non_finite(field, value):
    params = dict(name="bad", eps_r=11.7, n_i=1e16, temp_ref=300.0)
    params[field] = value
    with pytest.raises(ValueError):
        Material(**params)
