import pytest
from hypothesis import given, strategies as st

from flowcont.flows import circuit_matrix, incidence_matrix
from flowcont.graphs import (
    BUILTIN_NAMES,
    GraphFormatError,
    MultiDigraph,
    builtin,
    dicycle,
    digon,
    disjoint_union,
    format_digraph,
    k4,
    loop,
    parse_digraph,
    petersen,
    spanning_structure,
)


def small_graphs():
    yield MultiDigraph(0, ())
    yield MultiDigraph(3, ())
    yield digon(1)
    yield digon(4)
    yield dicycle(2)
    yield dicycle(5)
    yield loop()
    yield k4()
    yield petersen()
    yield disjoint_union([digon(2), dicycle(3), loop()])
    yield MultiDigraph(3, ((0, 1), (1, 0), (2, 2), (0, 1)))


def test_validation_rejects_bad_indices():
    with pytest.raises(GraphFormatError):
        MultiDigraph(2, ((0, 2),))
    with pytest.raises(GraphFormatError):
        MultiDigraph(-1, ())
    with pytest.raises(GraphFormatError):
        MultiDigraph(1, ((0, -1),))


def test_degree_counts_loops_twice():
    g = MultiDigraph(2, ((0, 0), (0, 1)))
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.max_degree() == 3


def test_parse_format_round_trip():
    text = "# a comment\n3 2\n0 1\n\n1 2  # trailing note\n"
    g = parse_digraph(text)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))
    again = parse_digraph(format_digraph(g))
    assert again == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "# only a comment\n",
        "2\n",
        "2 1\n0\n",
        "2 1\n0 2\n",
        "2 1\n0 1\n0 1\n",
        "2 one\n",
        "-1 0\n",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(GraphFormatError):
        parse_digraph(bad)


def test_digon_shape():
    g = digon(9)
    assert g.vertex_count == 2
    assert g.edges == ((0, 1),) * 9
    with pytest.raises(GraphFormatError):
        digon(0)


def test_dicycle_shape():
    assert dicycle(3).edges == ((0, 1), (1, 2), (2, 0))
    assert dicycle(1).edges == ((0, 0),)


def test_loop_shape():
    g = loop()
    assert (g.vertex_count, g.edges) == (1, ((0, 0),))


def test_k4_is_complete_on_four():
    g = k4()
    assert g.vertex_count == 4
    assert g.num_edges == 6
    assert all(g.degree(v) == 3 for v in range(4))
    assert len({frozenset(e) for e in g.edges}) == 6


def test_petersen_shape():
    g = petersen()
    assert g.vertex_count == 10
    assert g.num_edges == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_builtin_dispatch():
    assert builtin("digon", 9) == digon(9)
    assert builtin("k4") == k4()
    assert "digon" in BUILTIN_NAMES and "petersen" in BUILTIN_NAMES
    with pytest.raises(GraphFormatError):
        builtin("cube")
    with pytest.raises(GraphFormatError):
        builtin("digon")  # size required
    with pytest.raises(GraphFormatError):
        builtin("k4", 3)  # size not allowed


def test_disjoint_union_offsets():
    g = disjoint_union([digon(2), digon(3)])
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (0, 1), (2, 3), (2, 3), (2, 3))
    assert disjoint_union([]) == MultiDigraph(0, ())
    two_loops = disjoint_union([loop(), loop()])
    assert two_loops.edges == ((0, 0), (1, 1))


def test_spanning_structure_dicycle():
    s = spanning_structure(dicycle(3))
    assert len(s.circuits) == 1
    circuit = circuit_matrix(dicycle(3)).T.tolist()[0]
    assert circuit in ([1, 1, 1], [-1, -1, -1])


def test_spanning_structure_digon():
    s = spanning_structure(digon(4))
    assert s.forest_edges == frozenset({0})
    assert len(s.circuits) == 3
    for i, circuit in enumerate(circuit_matrix(digon(4)).T.tolist(), start=1):
        expected = [0, 0, 0, 0]
        expected[i], expected[0] = 1, -1
        assert circuit == expected


def test_spanning_structure_loop():
    s = spanning_structure(loop())
    assert s.circuits == (((0, 1),),)
    assert s.forest_edges == frozenset()


def test_spanning_structure_deterministic():
    a = spanning_structure(petersen())
    b = spanning_structure(petersen())
    assert a == b


def test_cyclomatic_number_formula():
    for g in small_graphs():
        s = spanning_structure(g)
        components = len({_root(g, v) for v in range(g.vertex_count)})
        assert s.cyclomatic_number == g.num_edges - g.vertex_count + components


def _root(g, v):
    # tiny union-find for the formula check
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for t, h in g.edges:
        parent[find(t)] = find(h)
    return find(v)


def test_circuits_orthogonal_to_stars():
    for g in small_graphs():
        assert not (incidence_matrix(g) @ circuit_matrix(g)).any()


@given(st.data())
def test_random_graph_circuit_count_and_orthogonality(data):
    vertex_count = data.draw(st.integers(1, 6))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, vertex_count - 1), st.integers(0, vertex_count - 1)),
            max_size=10,
        )
    )
    g = MultiDigraph(vertex_count, tuple(edges))
    s = spanning_structure(g)
    assert len(s.forest_edges) + len(s.circuits) == g.num_edges
    non_forest = [i for i in range(g.num_edges) if i not in s.forest_edges]
    circuits = circuit_matrix(g).T.tolist()
    assert len(circuits) == len(s.circuits)
    # one circuit per non-forest edge, in increasing edge order
    for i, circuit, steps in zip(non_forest, circuits, s.circuits):
        assert set(circuit) <= {-1, 0, 1}
        assert [circuit[j] for j in non_forest] == [int(j == i) for j in non_forest]
        assert sorted(steps) == [(j, c) for j, c in enumerate(circuit) if c]
    assert not (incidence_matrix(g) @ circuit_matrix(g)).any()
