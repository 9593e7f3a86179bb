"""Extended nonnegative reals: exact conventions and arithmetic."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from almostreg.extreal import INF, ZERO, ExtReal, as_ext

finite_nonneg = st.floats(min_value=0.0, max_value=1e12,
                          allow_nan=False, allow_infinity=False)


def test_zero_times_infinity_is_one():
    assert ZERO * INF == 1.0
    assert INF * ZERO == 1.0
    assert ExtReal(0.0) * math.inf == 1.0
    assert INF * 0.0 == 1.0
    assert 0.0 * INF == 1.0


def test_rejects_invalid_values():
    with pytest.raises(ValueError):
        ExtReal(-1e-9)
    with pytest.raises(ValueError):
        ExtReal(math.nan)
    with pytest.raises(ValueError):
        as_ext(-2.0)


def test_as_ext_passthrough_and_coercion():
    v = ExtReal(2.5)
    assert as_ext(v) is v
    assert as_ext(3) == ExtReal(3.0)
    assert isinstance(as_ext(3), ExtReal)


def test_order_against_floats():
    assert ExtReal(1.0) < 2.0
    assert ExtReal(2.0) <= 2.0
    assert ExtReal(3.0) > ExtReal(2.0)
    assert INF >= INF
    assert not INF < INF
    assert ExtReal(5.0) < INF


def test_addition_and_infinity_absorption():
    assert ExtReal(1.0) + 2.0 == 3.0
    assert 2.0 + ExtReal(1.0) == 3.0
    assert (INF + 1.0).is_infinite
    assert (ExtReal(1.0) + INF).is_infinite


def test_hash_consistent_with_equality():
    assert hash(ExtReal(2.0)) == hash(2.0)
    assert len({ExtReal(1.0), ExtReal(1.0), 1.0}) == 1


def test_repr_marks_infinity():
    assert repr(INF) == "ExtReal(inf)"
    assert "2.0" in repr(ExtReal(2.0))


@given(finite_nonneg, finite_nonneg)
def test_product_matches_float_product_on_finite(a, b):
    assert ExtReal(a) * ExtReal(b) == a * b


@given(finite_nonneg)
def test_zero_product_is_zero_for_finite(a):
    assert ExtReal(0.0) * ExtReal(a) == 0.0


@given(finite_nonneg, finite_nonneg)
def test_order_total_and_antisymmetric(a, b):
    x, y = ExtReal(a), ExtReal(b)
    assert (x <= y) or (y <= x)
    if x <= y and y <= x:
        assert x == y

