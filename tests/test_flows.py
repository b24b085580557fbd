import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcont.algebra import parse_group
from flowcont.flows import (
    BudgetExceededError,
    circuit_matrix,
    count_nowhere_zero_flows,
    enumerate_flows,
    filter_flows,
    incidence_matrix,
)
from flowcont.graphs import MultiDigraph, dicycle, digon, disjoint_union, k4, loop, petersen


def test_star_tension_digon():
    # the star at v is row v of the incidence matrix
    mat = incidence_matrix(digon(3))
    assert mat[0].tolist() == [1, 1, 1]
    assert mat[1].tolist() == [-1, -1, -1]


def test_star_tension_ignores_loops():
    mat = incidence_matrix(MultiDigraph(2, ((0, 0), (0, 1))))
    assert mat[0].tolist() == [0, 1]
    with pytest.raises(IndexError):
        mat[2]  # no star at a vertex outside the graph


def test_incidence_matrix_rows_are_stars():
    # row v: +1 on edges leaving v, -1 on edges entering it, 0 on loops
    assert incidence_matrix(MultiDigraph(2, ((0, 0), (0, 1)))).tolist() == [[0, 1], [0, -1]]
    assert incidence_matrix(dicycle(3)).tolist() == [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]
    assert incidence_matrix(loop()).tolist() == [[0]]


def test_incidence_orthogonal_to_circuits():
    for g in (digon(4), dicycle(5), k4(), petersen(), disjoint_union([loop(), digon(2)])):
        product = incidence_matrix(g) @ circuit_matrix(g)
        assert not product.any()


def test_star_tensions_are_tensions():
    # a tension sums to zero in the group around every circuit
    for g in (digon(3), dicycle(4), k4()):
        product = incidence_matrix(g) @ circuit_matrix(g)
        assert not (product % 6).any()


def test_dicycle_flows_are_the_constants():
    assert list(filter_flows(dicycle(3), parse_group("Z4"))) == [((a,),) * 3 for a in range(4)]


def test_digon_flows_balance():
    # both edges leave vertex 0, so their values sum to 0
    expected = [((a,), (-a % 5,)) for a in range(5)]
    assert list(filter_flows(digon(2), parse_group("Z5"))) == expected


def test_loop_carries_any_flow_value():
    assert list(filter_flows(loop(), parse_group("Z7"))) == [((value,),) for value in range(7)]


def test_enumerate_flows_count_is_group_power_cyclomatic():
    m = parse_group("Z3")
    flows = list(enumerate_flows(k4(), m))
    assert len(flows) == 3**3
    assert len(set(flows)) == len(flows)
    # Kirchhoff's law at every vertex, in residues mod 3
    sums = incidence_matrix(k4()) @ np.array(flows)[:, :, 0].T
    assert not (sums % 3).any()


def test_enumerate_equals_filter_on_small_cases():
    cases = [
        (digon(3), "Z2"),
        (dicycle(3), "Z4"),
        (loop(), "Z5"),
        (MultiDigraph(2, ((0, 1), (1, 0), (0, 1))), "Z3"),
        (disjoint_union([loop(), digon(2)]), "Z2xZ2"),
        (MultiDigraph(1, ()), "Z3"),
    ]
    for g, group_text in cases:
        m = parse_group(group_text)
        assert sorted(enumerate_flows(g, m)) == sorted(filter_flows(g, m))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumerate_equals_filter_random(data):
    vertex_count = data.draw(st.integers(1, 3))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, vertex_count - 1), st.integers(0, vertex_count - 1)),
            max_size=4,
        )
    )
    g = MultiDigraph(vertex_count, tuple(edges))
    m = parse_group(data.draw(st.sampled_from(["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])))
    assert sorted(enumerate_flows(g, m)) == sorted(filter_flows(g, m))


def test_enumeration_needs_finite_group():
    with pytest.raises(ValueError):
        list(enumerate_flows(digon(2), parse_group("Z")))
    with pytest.raises(ValueError):
        list(filter_flows(digon(2), parse_group("ZxZ2")))


def test_budget_guard():
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_flows(petersen(), parse_group("Z4"), budget=100))
    assert info.value.needed == 4**6
    with pytest.raises(BudgetExceededError):
        list(filter_flows(k4(), parse_group("Z4"), budget=100))


def test_nowhere_zero_counts():
    z4 = parse_group("Z4")
    klein = parse_group("Z2xZ2")
    # complete graph on four vertices: (k-1)(k-2)(k-3) at k = 4
    assert count_nowhere_zero_flows(k4(), z4) == 6
    assert count_nowhere_zero_flows(k4(), klein) == 6
    assert count_nowhere_zero_flows(loop(), z4) == 3
    assert count_nowhere_zero_flows(dicycle(4), z4) == 3
    assert count_nowhere_zero_flows(digon(2), klein) == 3
    # no nowhere-zero value assignment at group order four on petersen
    assert count_nowhere_zero_flows(petersen(), z4) == 0
    assert count_nowhere_zero_flows(petersen(), klein) == 0
