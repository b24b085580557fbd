import random

import pytest

from flowcont.graphs import MultiDigraph, spanning_structure
from flowcont.selftest import (
    SuiteResult,
    random_edge_map,
    random_multidigraph,
    run_selftest,
)


def test_suite_result_passed():
    assert SuiteResult("x", 5, ()).passed
    assert not SuiteResult("x", 5, ("boom",)).passed


def test_random_multidigraph_respects_caps():
    rng = random.Random(3)
    for _ in range(50):
        g = random_multidigraph(rng, max_vertices=4, max_edges=6, max_cyclomatic=2)
        assert 1 <= g.vertex_count <= 4
        assert g.num_edges <= 6
        assert spanning_structure(g).cyclomatic_number <= 2
    for _ in range(50):
        g = random_multidigraph(rng, max_vertices=3, max_edges=5, allow_loops=False)
        assert all(tail != head for tail, head in g.edges)


def test_random_edge_map_bounds():
    rng = random.Random(4)
    g = random_multidigraph(rng, 3, 4)
    h = random_multidigraph(rng, 3, 3)
    if h.num_edges == 0:
        h = MultiDigraph(2, ((0, 1),))
    f = random_edge_map(rng, g, h)
    assert len(f.assignment) == g.num_edges
    assert all(0 <= j < h.num_edges for j in f.assignment)
    with pytest.raises(ValueError):
        random_edge_map(rng, MultiDigraph(2, ((0, 1),)), MultiDigraph(1, ()))


def test_run_selftest_deterministic_and_green():
    first = run_selftest(seed=99)
    second = run_selftest(seed=99)
    assert first == second
    assert len(first) == 7
    assert all(r.passed for r in first)
    assert {r.name for r in first} == {
        "flow-span",
        "oracle-agreement",
        "product-law",
        "exponent-counts",
        "below-degree-equivalence",
        "digon-cone",
        "count-invariance",
    }
