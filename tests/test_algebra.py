import math

import pytest
from hypothesis import given, strategies as st

from flowcont.algebra import (
    Group,
    GroupSyntaxError,
    cone_member,
    direct_product,
    divisors,
    exponent,
    next_prime_above,
    parse_group,
)


def test_parse_group_products():
    m = parse_group("Z2xZ3")
    assert m.free_rank == 0
    assert m.orders == (2, 3)
    assert parse_group("Z") == Group(free_rank=1)
    assert parse_group("ZxZ2").free_rank == 1
    assert parse_group("6") == parse_group("Z6")
    assert parse_group("z2xz2") == parse_group("Z2xZ2")
    assert parse_group("Z٣") == parse_group("Z3")  # any decimal digits


@pytest.mark.parametrize(
    "bad",
    ["", "Z0", "Zx", "xZ2", "Z2x", "Q", "Z-3", "Z2yZ3", "Z²", "²",
     pytest.param("Z" + "7" * 5000, id="past-the-int-digit-cap")],
)
def test_parse_group_rejects(bad):
    with pytest.raises(GroupSyntaxError):
        parse_group(bad)


@given(st.text(st.sampled_from("Zzx 0123²٣") | st.characters()))
def test_parse_group_returns_a_group_or_a_syntax_error(text):
    try:
        assert isinstance(parse_group(text), Group)
    except GroupSyntaxError:
        pass


def test_group_str_round_trips():
    for text in ["Z", "Z1", "Z6", "Z2xZ3", "ZxZxZ5"]:
        m = parse_group(text)
        assert parse_group(str(m)) == m


def test_order_and_finiteness():
    assert Group().is_finite
    assert parse_group("Z2xZ3").is_finite
    assert not Group(1).is_finite


def test_direct_product():
    m = direct_product(parse_group("Z"), parse_group("Z2xZ3"))
    assert m.free_rank == 1
    assert m.orders == (2, 3)


def test_exponent_values():
    assert exponent(parse_group("Z2xZ3")) == 6
    assert exponent(parse_group("Z2xZ4")) == 4
    # a free factor gives 0: k*x = 0 for every x exactly when 0 divides k
    assert exponent(parse_group("Z")) == 0
    assert exponent(Group()) == 1
    assert exponent(parse_group("Z1")) == 1
    assert exponent(parse_group("ZxZ2")) == 0


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(49) == (1, 7, 49)
    with pytest.raises(ValueError):
        divisors(0)


def test_cone_member_examples():
    assert cone_member(9, [7, 2])
    assert not cone_member(9, [7, 6])
    assert cone_member(0, [5])
    assert cone_member(0, [])
    assert not cone_member(4, [])
    assert cone_member(6, [2])
    assert not cone_member(5, [3])
    with pytest.raises(ValueError):
        cone_member(-1, [2])
    with pytest.raises(ValueError):
        cone_member(4, [0])


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=3),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_cone_closed_under_generator_sums(generators, a_terms, b_terms):
    # any explicit nonnegative combination must be recognized
    total = a_terms * generators[0] + b_terms * generators[-1]
    assert cone_member(total, generators)


def test_next_prime_above():
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(4) == 5
    assert next_prime_above(12) == 13
    assert next_prime_above(16) == 17
    assert next_prime_above(20) == 23
    assert next_prime_above(89) == 97
