"""The batched flow route pinned to the tuple-arithmetic one it replaced.

The reference functions below add one group element at a time, as the
package once did: enumerate_flows as circuit combinations of coerced
elements, is_flow as coerced Kirchhoff sums, and the first refuting flow
as the first enumerated flow whose pullback fails is_flow.  The package's
array route must give the same sequences, order included.
"""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flowcont import flows
from flowcont.algebra import Group, parse_group
from flowcont.decide import EdgeMap, oracle_count_ff_maps, refuting_flows
from flowcont.flows import (
    BudgetExceededError,
    count_nowhere_zero_flows,
    enumerate_flows,
    filter_flows,
    is_flow,
)
from flowcont.graphs import MultiDigraph, digon, spanning_structure


def reference_enumerate_flows(g, m):
    circuits = spanning_structure(g).circuits
    elements = list(m.elements())
    for coefficients in itertools.product(elements, repeat=len(circuits)):
        flow = [m.zero()] * g.num_edges
        for coefficient, steps in zip(coefficients, circuits):
            for i, sign in steps:
                flow[i] = m.add(flow[i], m.scale(sign, coefficient))
        yield tuple(flow)


def reference_is_flow(g, phi, m):
    vec = tuple(m.element(entry) for entry in phi)
    sums = [m.zero()] * g.vertex_count
    for value, (tail, head) in zip(vec, g.edges):
        sums[tail] = m.add(sums[tail], value)
        sums[head] = m.add(sums[head], m.scale(-1, value))
    return all(m.is_zero(s) for s in sums)


def reference_pull_back(f, phi):
    return tuple(phi[j] for j in f.assignment)


def reference_refutation(f, m):
    for phi in reference_enumerate_flows(f.target, m):
        if not reference_is_flow(f.source, reference_pull_back(f, phi), m):
            return phi
    return None


GROUPS = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ3", "Z3xZ3"]


@st.composite
def multigraphs(draw, max_vertices=4, max_edges=4):
    """Loops, parallel edges, isolated vertices, edgeless graphs and forests."""
    vertex_count = draw(st.integers(0, max_vertices))
    if not vertex_count:
        return MultiDigraph(0, ())
    if draw(st.booleans()):
        # a forest: each edge joins a new vertex to an earlier one
        edges = []
        for v in range(1, vertex_count):
            if draw(st.booleans()):
                u = draw(st.integers(0, v - 1))
                edges.append((v, u) if draw(st.booleans()) else (u, v))
    else:
        end = st.integers(0, vertex_count - 1)
        edges = draw(st.lists(st.tuples(end, end), max_size=max_edges))
    return MultiDigraph(vertex_count, tuple(edges))


groups = st.one_of(st.just(Group()), st.sampled_from(GROUPS).map(parse_group))
# small batches exercise every way of cutting the space into batches
batch_sizes = st.sampled_from([1, 5, 64, flows.BATCH])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=6), batch_sizes, st.integers(1, 20000))
def test_grid_batches_are_the_product_in_order(radices, batch, budget):
    expected = itertools.product(*map(range, radices))
    with mock.patch.object(flows, "BATCH", batch):
        if math.prod(radices) > budget:
            with pytest.raises(BudgetExceededError):
                next(flows._grid_batches(radices, budget))
            return
        batches = list(flows._grid_batches(radices, budget))
    assert all(0 < len(digits) <= batch for digits in batches)
    assert [tuple(row) for digits in batches for row in digits.tolist()] == list(expected)


def test_grid_batches_past_int64_stay_exact():
    radices = [3, 2**64 + 1]
    first = next(flows._grid_batches(radices, budget=2**70))
    assert first.tolist() == [[0, k] for k in range(flows.BATCH)]
    assert all(type(x) is int for row in first for x in row)


@settings(max_examples=150, deadline=None)
@given(multigraphs(), groups, batch_sizes)
def test_flows_match_the_reference_in_order(g, m, batch):
    with mock.patch.object(flows, "BATCH", batch):
        spanned = list(enumerate_flows(g, m))
        assert spanned == list(reference_enumerate_flows(g, m))
        nowhere_zero = sum(all(any(value) for value in phi) for phi in spanned)
        assert count_nowhere_zero_flows(g, m) == nowhere_zero
        candidates = itertools.product(m.elements(), repeat=g.num_edges)
        assert list(filter_flows(g, m)) == [v for v in candidates if reference_is_flow(g, v, m)]


@settings(max_examples=150, deadline=None)
@given(st.data(), groups, batch_sizes)
def test_first_refuting_flow_matches_the_reference(data, m, batch):
    g = data.draw(multigraphs(max_edges=5))
    h = data.draw(multigraphs(max_vertices=3))
    if g.num_edges and not h.num_edges:
        h = digon(2)
    assignment = tuple(data.draw(st.integers(0, h.num_edges - 1)) for _ in range(g.num_edges))
    f = EdgeMap(g, h, assignment)
    with mock.patch.object(flows, "BATCH", batch):
        assert next(refuting_flows(f, m), None) == reference_refutation(f, m)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=3, max_edges=2), multigraphs(max_vertices=3, max_edges=3), groups)
def test_oracle_map_count_matches_the_reference(g, h, m):
    flows_on_h = list(reference_enumerate_flows(h, m))
    expected = sum(
        all(
            reference_is_flow(g, reference_pull_back(EdgeMap(g, h, a), phi), m)
            for phi in flows_on_h
        )
        for a in itertools.product(range(h.num_edges), repeat=g.num_edges)
    )
    assert oracle_count_ff_maps(g, h, m) == expected


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.data())
def test_is_flow_matches_the_reference(g, data):
    m = data.draw(st.sampled_from(["Z", "Z6", "ZxZ4", "Z2xZ3"]).map(parse_group))
    coordinates = st.tuples(*[st.integers(-20, 20)] * m.num_factors)
    # a flow: a sum of fundamental circuits with coordinates past the moduli
    phi = [(0,) * m.num_factors] * g.num_edges
    for steps in spanning_structure(g).circuits:
        scale = data.draw(coordinates)
        for i, sign in steps:
            phi[i] = tuple(x + sign * y for x, y in zip(phi[i], scale))
    assert is_flow(g, phi, m) == reference_is_flow(g, phi, m)
    # then one entry moved, which may or may not break it
    if g.num_edges:
        i = data.draw(st.integers(0, g.num_edges - 1))
        phi[i] = tuple(x + y for x, y in zip(phi[i], data.draw(coordinates)))
        assert is_flow(g, phi, m) == reference_is_flow(g, phi, m)


def test_flows_past_int64_stay_exact():
    # the reference cannot start here: itertools.product would hold all
    # the residues.  A digon's circuits are edge k >= 1 against edge 0, so
    # the flows are known in closed form.
    for order in (2**62 + 3, 2**70):
        m = Group(orders=(order,))
        first = list(itertools.islice(enumerate_flows(digon(2), m, budget=order), 2100))
        assert first == [((-a % order,), (a,)) for a in range(2100)]
        # two circuits: coefficients (0, b), past int64 once summed
        first = list(itertools.islice(enumerate_flows(digon(3), m, budget=order**2), 2100))
        assert first == [((-b % order,), (0,), (b,)) for b in range(2100)]
        assert all(type(x) is int for phi in first for value in phi for x in value)
        # the constant map folds the digon's two edges onto one, so the
        # source sees twice the flow's first value at each vertex
        f = EdgeMap(digon(2), digon(2), (0, 0))
        assert next(refuting_flows(f, m, budget=order), None) == ((order - 1,), (1,))


def test_is_flow_over_the_integers_near_ten_to_the_thirty():
    big = 10**30 + 7
    z = parse_group("Z")
    g = MultiDigraph(3, ((0, 1), (1, 2), (2, 0), (0, 1)))
    for phi, expected in (
        ((big, big + 1, big + 1, 1), True),
        ((big, big, big, 1), False),
        ((-big, -big, -big, 0), True),
        ((big, big + 1, big + 1, 2), False),
    ):
        assert is_flow(g, phi, z) is expected
        assert reference_is_flow(g, phi, z) is expected
    zz = parse_group("ZxZ6")
    assert is_flow(digon(2), ((big, 5), (-big, 1)), zz)
    assert not is_flow(digon(2), ((big, 5), (1 - big, 1)), zz)
