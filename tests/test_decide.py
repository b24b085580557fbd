import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcont.algebra import parse_group
from flowcont.decide import (
    EdgeMap,
    FailureCertificate,
    constant_map,
    discrepancy,
    ff_gcd,
    format_edge_map,
    gcd_and_certificate,
    index_bijection,
    is_ff_group,
    is_ff_n,
    oracle_is_ff_group,
    parse_edge_map,
    refuting_flows,
)
from flowcont.graphs import MultiDigraph, dicycle, digon, k4, loop, spanning_structure

from test_graphs import TOKEN_LINES


def bijection_d3_c3():
    return index_bijection(digon(3), dicycle(3))


def k4_coloring():
    # edges (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) into the three perfect matchings
    return EdgeMap(k4(), digon(3), (0, 1, 2, 2, 1, 0))


def test_edge_map_validation():
    with pytest.raises(ValueError):
        EdgeMap(digon(2), digon(2), (0,))
    with pytest.raises(ValueError):
        EdgeMap(digon(2), digon(2), (0, 2))
    f = EdgeMap(digon(2), digon(3), (2, 0))
    assert f.assignment[0] == 2


def test_index_bijection_needs_equal_sizes():
    with pytest.raises(ValueError):
        index_bijection(digon(2), digon(3))
    f = bijection_d3_c3()
    assert f.assignment == (0, 1, 2)


def test_constant_map():
    f = constant_map(digon(9), digon(7), 3)
    assert set(f.assignment) == {3}


def test_parse_format_round_trip():
    f = EdgeMap(digon(3), digon(2), (1, 0, 1))
    text = format_edge_map(f)
    assert parse_edge_map(text, digon(3), digon(2)) == f
    commented = "# mapping\n1\n0  # note\n\n1\n"
    assert parse_edge_map(commented, digon(3), digon(2)) == f


def test_parse_edge_map_errors():
    with pytest.raises(ValueError):
        parse_edge_map("0\n1\n", digon(3), digon(2))  # too short
    with pytest.raises(ValueError):
        parse_edge_map("0\nx\n1\n", digon(3), digon(2))
    with pytest.raises(ValueError):
        parse_edge_map("0\n1\n5\n", digon(3), digon(2))  # out of range


PAIRS = [(digon(3), digon(2)), (k4(), digon(3)), (loop(), loop()), (MultiDigraph(0, ()), digon(2))]


@given(st.one_of(st.text(), TOKEN_LINES), st.sampled_from(PAIRS))
def test_parse_edge_map_returns_a_map_or_a_value_error(text, pair):
    try:
        assert isinstance(parse_edge_map(text, *pair), EdgeMap)
    except ValueError:
        pass


def test_discrepancy_identity_is_zero():
    for g in (digon(3), dicycle(4), k4(), loop()):
        f = index_bijection(g, g)
        matrix = discrepancy(f)
        assert all(x == 0 for row in matrix.tolist() for x in row)


def test_discrepancy_bijection_entries():
    matrix = discrepancy(bijection_d3_c3())
    assert matrix.shape == (2, 1)
    assert sorted(x for row in matrix.tolist() for x in row) == [-3, 3]


def test_discrepancy_constant_digons():
    matrix = discrepancy(constant_map(digon(9), digon(7), 0))
    assert matrix.shape[1] == 6
    assert {abs(x) for row in matrix.tolist() for x in row} == {9}


def test_discrepancy_entry_bound():
    rng = random.Random(7)
    for _ in range(30):
        g = MultiDigraph(2, tuple((rng.randrange(2), rng.randrange(2)) for _ in range(5)))
        h = MultiDigraph(2, tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3)))
        if h.num_edges == 0:
            continue
        f = EdgeMap(g, h, tuple(rng.randrange(h.num_edges) for _ in range(g.num_edges)))
        # each non-loop edge end at v adds one {-1, 0, 1} circuit row to row v
        ends = Counter(v for tail, head in g.edges if tail != head for v in (tail, head))
        for v, row in enumerate(discrepancy(f).tolist()):
            for x in row:
                assert abs(x) <= ends[v]


def test_ff_gcd_values():
    assert ff_gcd(bijection_d3_c3()) == 3
    assert ff_gcd(k4_coloring()) == 2
    assert ff_gcd(constant_map(digon(6), loop(), 0)) == 6
    assert ff_gcd(constant_map(digon(9), digon(7), 0)) == 9
    assert ff_gcd(index_bijection(k4(), k4())) == 0


def test_is_ff_n_examples():
    ok, certificate = is_ff_n(bijection_d3_c3(), 3)
    assert ok and certificate is None
    ok, certificate = is_ff_n(bijection_d3_c3(), 2)
    assert not ok
    assert abs(certificate.value) == 3
    assert certificate.modulus == 2
    assert certificate.value % 2 != 0
    assert is_ff_n(k4_coloring(), 1)[0]
    assert is_ff_n(bijection_d3_c3(), 1)[0]
    with pytest.raises(ValueError):
        is_ff_n(k4_coloring(), -2)


def test_certificate_is_first_row_major():
    f = constant_map(digon(9), digon(7), 0)
    _, certificate = is_ff_n(f, 2)
    assert (certificate.vertex, certificate.circuit) == (0, 0)


def test_is_ff_z():
    assert ff_gcd(index_bijection(digon(5), digon(5))) == 0
    assert ff_gcd(bijection_d3_c3()) != 0
    assert ff_gcd(constant_map(digon(9), digon(7), 0)) != 0


def test_is_ff_group_dispatch():
    f = k4_coloring()
    assert is_ff_group(f, parse_group("Z2xZ2"))  # exponent 2
    assert not is_ff_group(f, parse_group("Z2xZ3"))  # exponent 6
    assert not is_ff_group(bijection_d3_c3(), parse_group("Z"))
    assert is_ff_group(bijection_d3_c3(), parse_group("Z1"))
    assert is_ff_group(bijection_d3_c3(), parse_group("Z3"))


def test_empty_source_is_ff_everything():
    f = EdgeMap(MultiDigraph(0, ()), digon(2), ())
    assert ff_gcd(f) == 0
    assert oracle_is_ff_group(f, parse_group("Z4"))


def test_oracle_refutation_bijection():
    assert next(refuting_flows(bijection_d3_c3(), parse_group("Z3")), None) is None
    refutation = next(refuting_flows(bijection_d3_c3(), parse_group("Z2")), None)
    assert refutation is not None


def test_oracle_matches_gcd_on_named_maps():
    for f in (bijection_d3_c3(), k4_coloring(), constant_map(digon(6), loop(), 0)):
        for n in range(1, 8):
            m = parse_group(f"Z{n}")
            assert oracle_is_ff_group(f, m) == is_ff_group(f, m)


def test_all_ones_flow_refutes_coloring_over_z3():
    z3 = parse_group("Z3")
    refuting = list(refuting_flows(k4_coloring(), z3))
    assert ((1,), (1,), (1,)) in refuting


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divisor_ideal_laws(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = MultiDigraph(3, tuple((rng.randrange(3), rng.randrange(3)) for _ in range(4)))
    h = MultiDigraph(3, tuple((rng.randrange(3), rng.randrange(3)) for _ in range(3)))
    if h.num_edges == 0:
        h = digon(2)
    f = EdgeMap(g, h, tuple(rng.randrange(h.num_edges) for _ in range(g.num_edges)))
    a = data.draw(st.integers(1, 12))
    b = data.draw(st.integers(1, 12))
    value = ff_gcd(f)
    # membership is exactly divisibility of the gcd
    assert is_ff_n(f, a)[0] == (value % a == 0)
    if is_ff_n(f, a)[0] and b != 0 and a % b == 0:
        assert is_ff_n(f, b)[0]
    if is_ff_n(f, a)[0] and is_ff_n(f, b)[0]:
        assert is_ff_n(f, math.lcm(a, b))[0]


def test_monotone_law_integer_implies_all():
    f = index_bijection(k4(), k4())
    assert ff_gcd(f) == 0
    for text in ("Z2", "Z3", "Z6", "Z2xZ4", "Z", "ZxZ3"):
        assert is_ff_group(f, parse_group(text))


def test_product_law_micro_oracle():
    f = k4_coloring()
    z2, z3 = parse_group("Z2"), parse_group("Z3")
    joint = parse_group("Z2xZ3")
    assert oracle_is_ff_group(f, joint) == (
        oracle_is_ff_group(f, z2) and oracle_is_ff_group(f, z3)
    )
    assert not oracle_is_ff_group(f, joint)


def reversed_edge(g, i):
    """g with edge i pointing the other way."""
    tail, head = g.edges[i]
    return MultiDigraph(g.vertex_count, g.edges[:i] + ((head, tail),) + g.edges[i + 1 :])


def test_reversal_preserves_parity_class():
    """Reorienting one edge can change the gcd, but never mod-2 status."""
    cases = [
        bijection_d3_c3(),
        k4_coloring(),
        constant_map(digon(4), digon(3), 1),
        index_bijection(digon(2), digon(2)),
    ]
    for f in cases:
        before = is_ff_n(f, 2)[0]
        for i in range(f.source.num_edges):
            flipped = EdgeMap(reversed_edge(f.source, i), f.target, f.assignment)
            assert is_ff_n(flipped, 2)[0] == before
        for j in range(f.target.num_edges):
            flipped = EdgeMap(f.source, reversed_edge(f.target, j), f.assignment)
            assert is_ff_n(flipped, 2)[0] == before


def test_reversal_can_change_gcd():
    # the identity on a 2-digon is exact over the integers, but flipping
    # one source edge turns the source into a directed 2-cycle and the
    # map into one that is only even-continuous
    f = index_bijection(digon(2), digon(2))
    assert ff_gcd(f) == 0
    flipped = EdgeMap(reversed_edge(f.source, 1), f.target, f.assignment)
    assert ff_gcd(flipped) == 2


@st.composite
def small_edge_maps(draw):
    """Maps between tiny multigraphs; few vertices make loops and parallel
    edges common."""

    def graph(min_edges, max_edges):
        v = draw(st.integers(1, 4))
        ends = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
        return MultiDigraph(v, tuple(draw(st.lists(ends, min_size=min_edges, max_size=max_edges))))

    g, h = graph(0, 8), graph(1, 6)
    index = st.integers(0, h.num_edges - 1)
    assignment = draw(st.lists(index, min_size=g.num_edges, max_size=g.num_edges))
    return EdgeMap(g, h, tuple(assignment))


def dense_discrepancy(f):
    """S P C multiplied out: incidence, 0/1 pushforward, circuit columns."""
    g, h = f.source, f.target
    stars = np.zeros((g.vertex_count, g.num_edges), dtype=np.int64)
    for i, (tail, head) in enumerate(g.edges):
        stars[tail, i] += 1
        stars[head, i] -= 1
    push = np.zeros((g.num_edges, h.num_edges), dtype=np.int64)
    for i, j in enumerate(f.assignment):
        push[i, j] = 1
    circuits = spanning_structure(h)
    circ = np.zeros((h.num_edges, len(circuits)), dtype=np.int64)
    for c, steps in enumerate(circuits):
        for edge, sign in steps:
            circ[edge, c] = sign
    return (stars @ push @ circ).tolist()


@settings(max_examples=200, deadline=None)
@given(small_edge_maps())
def test_gather_route_matches_dense_product(f):
    dense = dense_discrepancy(f)
    assert discrepancy(f).tolist() == dense
    assert ff_gcd(f) == math.gcd(*(x for row in dense for x in row))
    for n in (0, 2, 3, 4, 6):
        failures = [
            FailureCertificate(v, c, x, n)
            for v, row in enumerate(dense)
            for c, x in enumerate(row)
            if (x % n if n else x)
        ]
        ok, certificate = is_ff_n(f, n)
        assert ok == (not failures)
        assert certificate == (failures[0] if failures else None)


def subdivided_copy(target, edge_count, rng):
    """Each target edge becomes a path of about edge_count / |E(H)| edges,
    mapped back onto it, with the source edges shuffled.  FF_Z: a target
    flow pulls back to one constant value along each path."""
    per_edge, extra = divmod(edge_count, target.num_edges)
    vertex_count, pieces = target.vertex_count, []
    for j, (tail, head) in enumerate(target.edges):
        path = [tail] + list(range(vertex_count, vertex_count + per_edge + (j < extra) - 1)) + [head]
        vertex_count += len(path) - 2
        pieces.extend((a, b, j) for a, b in zip(path, path[1:]))
    rng.shuffle(pieces)
    source = MultiDigraph(vertex_count, tuple((a, b) for a, b, _ in pieces))
    return EdgeMap(source, target, tuple(j for _, _, j in pieces))


def test_large_ff_z_maps_have_gcd_zero():
    # sizes at which multiplying out the dense S P C took minutes and gigabytes
    cycle = dicycle(2000)
    assert ff_gcd(index_bijection(cycle, cycle)) == 0
    rng = random.Random(11)
    tree = [(v, rng.randrange(v)) for v in range(1, 20)]
    extra = [(rng.randrange(20), rng.randrange(20)) for _ in range(41)]
    f = subdivided_copy(MultiDigraph(20, tuple(tree + extra)), 10_000, rng)
    assert f.source.num_edges == 10_000
    assert ff_gcd(f) == 0
    assert is_ff_n(f, 0) == (True, None)


HUGE = 10**20


def test_modulus_past_int64_gets_a_certificate():
    # the entries are at most 3, so 10^20 divides none but 0; it fails
    # where n = 0 fails, and the int64 matrix never meets it
    f = k4_coloring()
    expected = FailureCertificate(vertex=1, circuit=0, value=2, modulus=HUGE)
    assert gcd_and_certificate(f, HUGE) == (2, expected)
    assert is_ff_n(f, HUGE) == (False, expected)
    assert not is_ff_group(f, parse_group(f"Z{HUGE}"))
    assert not is_ff_group(f, parse_group(f"Z2xZ{HUGE}"))


@settings(max_examples=150, deadline=None)
@given(small_edge_maps(), st.one_of(st.integers(1, 40), st.integers(2**63 - 2, 2**200)))
def test_a_modulus_past_the_max_degree_answers_as_zero(f, above):
    # |D[v,c]| <= deg(v), so an n past the maximum degree divides only 0
    n = f.source.max_degree() + above
    g, certificate = gcd_and_certificate(f, n)
    g0, certificate0 = gcd_and_certificate(f, 0)
    assert g == g0
    if certificate0 is None:
        assert certificate is None
    else:
        assert certificate == FailureCertificate(
            certificate0.vertex, certificate0.circuit, certificate0.value, n
        )
