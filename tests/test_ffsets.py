import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flowcont import constructions, ffsets
from flowcont.algebra import parse_group
from flowcont.constructions import as_digon_union
from flowcont.decide import EdgeMap, constant_map, ff_gcd, index_bijection, oracle_count_ff_maps
from flowcont.ffsets import (
    FFSet,
    SearchOutcome,
    count_ff_maps,
    exists_ff_map,
    ff_set_of_graphs,
    ff_set_of_map,
    gcd_histogram,
    subcubic_equivalence_check,
)
from flowcont.flows import BudgetExceededError
from flowcont.graphs import MultiDigraph, dicycle, digon, disjoint_union, k4, loop


def brute_gcd_histogram(g, h):
    """Reference: gcd -> map count, per-map gcds via the decision module."""
    return Counter(
        ff_gcd(EdgeMap(g, h, assignment))
        for assignment in itertools.product(range(h.num_edges), repeat=g.num_edges)
    )


def brute_ff_set(g, h):
    return FFSet.from_gcds(brute_gcd_histogram(g, h))


def test_ffset_validation():
    with pytest.raises(ValueError):
        FFSet(all_of_n=True, maximal_elements=frozenset({2}))
    with pytest.raises(ValueError):
        FFSet(all_of_n=False, maximal_elements=frozenset({0}))
    with pytest.raises(ValueError):
        FFSet(all_of_n=False, maximal_elements=frozenset({2, 4}))  # not an antichain


def test_ffset_from_gcds():
    assert FFSet.from_gcds([0, 3]).all_of_n
    s = FFSet.from_gcds([2, 4, 9])
    assert s.maximal_elements == frozenset({4, 9})
    assert FFSet.from_gcds([]).maximal_elements == frozenset()


def test_ffset_from_members():
    # a down-set given by full membership is the set of its own gcds
    s = FFSet.from_gcds({1, 2, 3, 9})
    assert s.maximal_elements == frozenset({2, 9})
    assert s.members() == (1, 2, 3, 9)


def test_ffset_contains():
    s = FFSet.from_gcds([6])
    assert [n for n in range(1, 8) if s.contains(n)] == [1, 2, 3, 6]
    assert not s.contains(0)
    everything = FFSet.everything()
    assert everything.contains(1) and everything.contains(10**9)
    with pytest.raises(ValueError):
        everything.members()


def test_ffset_json_and_str():
    assert FFSet.from_gcds([4]).to_json() == {"kind": "finite", "maximal_elements": [4]}
    assert FFSet.everything().to_json() == {"kind": "all_of_N", "maximal_elements": []}
    assert str(FFSet.everything()) == "all n >= 1"
    assert str(FFSet.from_gcds([])) == "empty"
    assert str(FFSet.from_gcds({1, 3})) == "{1 3}"


def test_ff_set_of_map_examples():
    assert ff_set_of_map(constant_map(digon(6), loop(), 0)).members() == (1, 2, 3, 6)
    assert ff_set_of_map(index_bijection(digon(3), dicycle(3))).members() == (1, 3)
    assert ff_set_of_map(index_bijection(k4(), k4())).all_of_n


def test_ff_set_of_graphs_examples():
    s = ff_set_of_graphs(digon(4), digon(3))
    assert s.maximal_elements == frozenset({4})
    assert s.members() == (1, 2, 4)
    big = ff_set_of_graphs(digon(9), digon(7))
    assert big.maximal_elements == frozenset({2, 9})
    assert big.members() == (1, 2, 3, 9)


def test_ff_set_of_graphs_edgeless_cases():
    empty = MultiDigraph(0, ())
    assert ff_set_of_graphs(digon(2), empty).maximal_elements == frozenset()
    assert ff_set_of_graphs(empty, digon(2)).all_of_n
    assert ff_set_of_graphs(empty, empty).all_of_n


def test_ff_set_matches_brute_force():
    cases = [
        (digon(4), digon(3)),
        (dicycle(3), digon(2)),
        (k4(), digon(3)),
        (disjoint_union([digon(2), dicycle(2)]), disjoint_union([digon(2), loop()])),
        (MultiDigraph(3, ((0, 1), (1, 2), (0, 2))), MultiDigraph(2, ((0, 1), (1, 0)))),
    ]
    for g, h in cases:
        assert ff_set_of_graphs(g, h) == brute_ff_set(g, h)


def test_gcd_histogram_budget_counts_frontier_entries():
    # 81 maps, and the frontier builds 300 entries for them
    with pytest.raises(BudgetExceededError, match="frontier entries"):
        gcd_histogram(digon(4), digon(3), budget=299)
    assert gcd_histogram(digon(4), digon(3), budget=300) == {1: 60, 2: 18, 4: 3}


def test_ff_set_digons_route_reads_no_budget():
    # the frontier's second level would pass 161 entries; the cone table
    # needs memory linear in the source digon, so no budget applies
    assert ff_set_of_graphs(digon(9), digon(7), budget=1) == FFSet.from_gcds([1, 2, 3, 9])


def test_ff_set_scan_keeps_states_not_maps():
    assert ff_set_of_graphs(dicycle(10), k4()) == ff_set_of_graphs(dicycle(6), k4())
    # 6**12 = 2.2e9 maps, answered within 10**5 frontier entries
    assert ff_set_of_graphs(dicycle(12), k4(), budget=10**5).all_of_n


def test_count_past_int64_is_exact():
    assert count_ff_maps(dicycle(30), k4(), parse_group("Z1"), budget=6**30) == 6**30


@st.composite
def multigraphs(draw, max_vertices=4, max_edges=5):
    """Up to 4 vertices and 5 edges by default: loops, parallel edges,
    isolated vertices and several components all occur."""
    n = draw(st.integers(1, max_vertices))
    ends = st.integers(0, n - 1)
    return MultiDigraph(n, tuple(draw(st.lists(st.tuples(ends, ends), max_size=max_edges))))


@settings(max_examples=60, deadline=None)
@given(multigraphs(), multigraphs())
def test_scans_match_per_map_gcd_histogram(g, h):
    histogram = brute_gcd_histogram(g, h)
    # the entry bound |D[v,c]| <= deg(v) caps every nonzero gcd, which is
    # why no map can violate the below-degree equivalence
    assert all(value <= g.max_degree() for value in histogram if value)
    assert ff_set_of_graphs(g, h) == FFSet.from_gcds(histogram)
    assert count_ff_maps(g, h, parse_group("Z")) == histogram[0]
    for n in range(1, 7):
        expected = sum(count for value, count in histogram.items() if value % n == 0)
        assert count_ff_maps(g, h, parse_group(f"Z{n}")) == expected
    moduli = range(g.max_degree() + 1, 7)
    if moduli:
        report = subcubic_equivalence_check(g, h, moduli)
        assert report.maps_checked == h.num_edges**g.num_edges
        assert report.violation_count == sum(
            count for n in moduli for value, count in histogram.items() if value and value % n == 0
        )


def divides(n, value):
    return value % n == 0 if n else value == 0


@settings(max_examples=100, deadline=None)
@given(multigraphs(), multigraphs())
def test_search_matches_per_map_definition(g, h):
    maps = list(itertools.product(range(h.num_edges), repeat=g.num_edges))
    gcds = [ff_gcd(EdgeMap(g, h, assignment)) for assignment in maps]
    digons = as_digon_union(g) is not None and as_digon_union(h) is not None
    for n in (0, 1, 2, 3, 4, 6):
        qualifying = [a for a, value in zip(maps, gcds) if divides(n, value)]
        out = exists_ff_map(g, h, n)
        assert out.status == ("found" if qualifying else "none")
        if not qualifying:
            continue
        if digons:
            assert divides(n, ff_gcd(out.witness))
        else:
            # the lexicographically first qualifying map, as product order gives
            assert out.witness.assignment == qualifying[0]


def test_one_in_set_iff_any_map_exists():
    assert ff_set_of_graphs(digon(3), digon(5)).contains(1)
    no_maps = ff_set_of_graphs(digon(3), MultiDigraph(4, ()))
    assert not no_maps.contains(1)


def test_count_ff_maps_examples():
    z2 = parse_group("Z2")
    z3 = parse_group("Z3")
    assert count_ff_maps(digon(2), digon(2), z2) == 4
    assert count_ff_maps(digon(2), digon(2), z3) == 2
    assert count_ff_maps(digon(2), digon(2), parse_group("Z1")) == 4
    assert oracle_count_ff_maps(digon(2), digon(2), z2) == 4
    assert oracle_count_ff_maps(digon(2), digon(2), z3) == 2


def test_count_ff_maps_integers():
    # only the two bijections are exact over the integers
    assert count_ff_maps(digon(2), digon(2), parse_group("Z")) == 2
    assert count_ff_maps(k4(), digon(3), parse_group("Z")) == 0


def test_count_methods_agree_random():
    rng = random.Random(11)
    for _ in range(15):
        g = MultiDigraph(3, tuple((rng.randrange(3), rng.randrange(3)) for _ in range(3)))
        h = MultiDigraph(2, tuple((rng.randrange(2), rng.randrange(2)) for _ in range(2)))
        if h.num_edges == 0:
            h = digon(1)
        for text in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2"):
            m = parse_group(text)
            assert count_ff_maps(g, h, m) == oracle_count_ff_maps(g, h, m)


def test_count_same_exponent_same_count():
    for left, right in (("Z6", "Z2xZ3"), ("Z4", "Z2xZ4"), ("Z2", "Z2xZ2")):
        assert count_ff_maps(digon(2), digon(3), parse_group(left)) == count_ff_maps(
            digon(2), digon(3), parse_group(right)
        )


def test_count_budget():
    with pytest.raises(BudgetExceededError):
        count_ff_maps(digon(4), digon(3), parse_group("Z2"), budget=10)


def test_search_outcome_validation():
    with pytest.raises(ValueError):
        SearchOutcome("maybe", None, 0)
    with pytest.raises(ValueError):
        SearchOutcome("found", None, 0)


def test_exists_digon_fast_path():
    two = exists_ff_map(digon(9), digon(7), 2)
    assert two.status == "found"
    assert ff_gcd(two.witness) % 2 == 0
    three = exists_ff_map(digon(9), digon(7), 3)
    assert three.status == "found"
    assert ff_gcd(three.witness) % 3 == 0
    six = exists_ff_map(digon(9), digon(7), 6)
    assert six.status == "none"
    assert six.witness is None


@pytest.mark.parametrize("g, h", [(disjoint_union([digon(9), digon(4)]), digon(7)), (k4(), digon(3))])
@pytest.mark.parametrize("answer", [lambda g, h: exists_ff_map(g, h, 2), ff_set_of_graphs])
def test_each_graph_is_classified_once(g, h, answer):
    counted = mock.Mock(wraps=as_digon_union)
    with mock.patch.object(ffsets, "as_digon_union", counted), mock.patch.object(
        constructions, "as_digon_union", counted
    ):
        answer(g, h)
    assert [call.args for call in counted.call_args_list] == [(g,), (h,)]


def test_exists_edgeless_cases():
    empty = MultiDigraph(0, ())
    for g, h, n in ((empty, digon(3), 5), (empty, empty, 0), (MultiDigraph(3, ()), empty, 2)):
        out = exists_ff_map(g, h, n)
        assert out.status == "found"
        assert out.witness.assignment == () and out.nodes == 0
    for g in (digon(2), MultiDigraph(2, ((0, 0), (1, 1)))):
        out = exists_ff_map(g, empty, 2)
        assert out.status == "none" and out.nodes == 0


def test_exists_general_search():
    # directed triangle and k4 are not digon unions, so this runs the
    # frontier search
    out = exists_ff_map(dicycle(3), digon(2), 2)
    assert out.status == "found"
    assert ff_gcd(out.witness) % 2 == 0
    assert exists_ff_map(dicycle(3), digon(2), 0).status == "found"
    assert exists_ff_map(k4(), digon(3), 2).status == "found"
    assert exists_ff_map(k4(), digon(3), 3).status == "none"
    assert exists_ff_map(k4(), digon(3), 0).status == "none"


def test_exists_budget_returns_unknown():
    out = exists_ff_map(k4(), digon(3), 3, budget=5)
    assert out.status == "unknown"
    assert out.witness is None
    assert out.nodes == 0  # the first level's 15 entries already pass the budget


def test_exists_rejects_negative_modulus():
    with pytest.raises(ValueError):
        exists_ff_map(digon(2), digon(2), -1)


def test_exists_matches_set_membership():
    rng = random.Random(23)
    for _ in range(10):
        g = MultiDigraph(3, tuple((rng.randrange(3), rng.randrange(3)) for _ in range(4)))
        h = MultiDigraph(3, tuple((rng.randrange(3), rng.randrange(3)) for _ in range(3)))
        if h.num_edges == 0:
            h = digon(2)
        members = ff_set_of_graphs(g, h)
        for n in range(1, 7):
            out = exists_ff_map(g, h, n)
            assert out.status == ("found" if members.contains(n) else "none")
            if out.status == "found":
                assert ff_gcd(out.witness) % n == 0


def test_subcubic_equivalence_on_k4():
    report = subcubic_equivalence_check(k4(), k4(), range(4, 6))
    assert report.passed
    assert report.maps_checked == 6**6
    assert report.moduli == (4, 5)
    assert report.sample_violations == ()


def test_subcubic_bijection_instance():
    # max degree 3 < 4; the lone-map statuses agree (both false at 4)
    report = subcubic_equivalence_check(digon(3), dicycle(3), [4])
    assert report.passed
    assert report.maps_checked == 27


def test_subcubic_precondition():
    with pytest.raises(ValueError):
        subcubic_equivalence_check(digon(5), digon(5), [4])  # degree 5
    with pytest.raises(ValueError):
        subcubic_equivalence_check(digon(3), digon(3), [])
    with pytest.raises(ValueError):
        subcubic_equivalence_check(digon(3), digon(3), [0, 4])


def test_subcubic_edgeless_target():
    report = subcubic_equivalence_check(digon(2), MultiDigraph(1, ()), [5])
    assert report.passed and report.maps_checked == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ff_set_is_downward_closed(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = MultiDigraph(3, tuple((rng.randrange(3), rng.randrange(3)) for _ in range(4)))
    h = MultiDigraph(2, tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3)))
    s = ff_set_of_graphs(g, h)
    for n in range(1, 10):
        if s.contains(n):
            for d in range(1, n + 1):
                if n % d == 0:
                    assert s.contains(d)
