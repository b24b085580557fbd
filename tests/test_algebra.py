import math

import pytest
from hypothesis import given, strategies as st

from flowcont.algebra import (
    Group,
    GroupSyntaxError,
    INTEGERS,
    TRIVIAL,
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


@pytest.mark.parametrize("bad", ["", "Z0", "Zx", "xZ2", "Z2x", "Q", "Z-3", "Z2yZ3"])
def test_parse_group_rejects(bad):
    with pytest.raises(GroupSyntaxError):
        parse_group(bad)


def test_group_str_round_trips():
    for text in ["Z", "Z1", "Z6", "Z2xZ3", "ZxZxZ5"]:
        m = parse_group(text)
        assert parse_group(str(m)) == m


def test_order_and_finiteness():
    assert parse_group("Z2xZ3").order() == 6
    assert TRIVIAL.order() == 1
    assert INTEGERS.order() is None
    assert not INTEGERS.is_finite
    assert parse_group("Z1").order() == 1


def test_element_coercion_and_arithmetic():
    m = parse_group("Z2xZ3")
    assert m.zero() == (0, 0)
    assert m.element((5, -1)) == (1, 2)
    assert m.add((1, 2), (1, 2)) == (0, 1)
    assert m.scale(-1, (1, 1)) == (1, 2)
    assert m.scale(4, (1, 1)) == (0, 1)
    assert m.is_zero((0, 0)) and not m.is_zero((1, 0))
    single = parse_group("Z5")
    assert single.element(7) == (2,)  # bare int accepted for one factor
    assert INTEGERS.element(-3) == (-3,)
    assert INTEGERS.scale(-1, (4,)) == (-4,)


def test_elements_enumeration():
    m = parse_group("Z2xZ2")
    assert list(m.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(TRIVIAL.elements()) == [()]
    with pytest.raises(ValueError):
        list(INTEGERS.elements())


def test_direct_product():
    m = direct_product(parse_group("Z"), parse_group("Z2xZ3"))
    assert m.free_rank == 1
    assert m.orders == (2, 3)


def test_exponent_values():
    assert exponent(parse_group("Z2xZ3")) == 6
    assert exponent(parse_group("Z2xZ4")) == 4
    # a free factor gives 0: k*x = 0 for every x exactly when 0 divides k
    assert exponent(parse_group("Z")) == 0
    assert exponent(TRIVIAL) == 1
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



def test_scale_matches_repeated_addition():
    m = parse_group("Z2xZ5")
    x = m.element((1, 3))
    total = m.zero()
    for k in range(7):
        assert m.scale(k, x) == total
        total = m.add(total, x)
    assert m.scale(-2, x) == m.scale(-1, m.scale(2, x))
