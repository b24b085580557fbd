import json

import pytest
from hypothesis import given, settings, strategies as st

from flowcont.algebra import decompose_in_cone, divisors
from flowcont.constructions import (
    DigonFamily,
    as_digon_union,
    build_witness,
    digon_union_witness,
    ff_set_digons,
    verify_witness,
)
from flowcont.decide import ff_gcd
from flowcont.ffsets import FFSet, gcd_histogram
from flowcont.graphs import MultiDigraph, dicycle, digon, disjoint_union, k4, loop


def fam(*sizes):
    return DigonFamily(frozenset(sizes))


def test_digon_family_validation():
    g = fam(2, 5).graph()
    assert g.vertex_count == 4 and g.num_edges == 7
    with pytest.raises(ValueError):
        DigonFamily(frozenset())
    with pytest.raises(ValueError):
        DigonFamily(frozenset({0, 3}))


def test_as_digon_union_accepts():
    assert as_digon_union(digon(3)) == ((0, 1, 2),)
    both = as_digon_union(disjoint_union([digon(2), digon(4)]))
    assert both == ((0, 1), (2, 3, 4, 5))
    # interleaved edge indices: components ordered by first edge index
    g = MultiDigraph(4, ((2, 3), (0, 1), (2, 3), (0, 1)))
    assert as_digon_union(g) == ((0, 2), (1, 3))


def test_as_digon_union_rejects():
    assert as_digon_union(loop()) is None
    assert as_digon_union(dicycle(3)) is None
    assert as_digon_union(k4()) is None
    # opposite directions between the same pair
    assert as_digon_union(MultiDigraph(2, ((0, 1), (1, 0)))) is None
    # two parallel classes sharing a vertex
    assert as_digon_union(MultiDigraph(3, ((0, 1), (0, 1), (1, 2)))) is None


def test_as_digon_union_ignores_isolated_vertices():
    g = MultiDigraph(5, ((3, 4), (3, 4)))
    assert as_digon_union(g) == ((0, 1),)


def test_decompose_examples():
    assert decompose_in_cone(9, [7, 2]) == (2, 7)
    assert decompose_in_cone(9, [3]) == (3, 3, 3)
    assert decompose_in_cone(0, [3]) == ()
    assert decompose_in_cone(5, [7]) is None
    assert decompose_in_cone(4, []) is None


def test_decompose_prefers_fewest_parts_then_lex():
    assert decompose_in_cone(6, [1, 2, 3]) == (3, 3)
    assert decompose_in_cone(5, [1, 2, 3, 4]) == (1, 4)


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose_in_cone(-1, [2])
    with pytest.raises(ValueError):
        decompose_in_cone(4, [0, 2])


def test_ff_set_digons_frozen():
    assert ff_set_digons(fam(9), fam(7)).members() == (1, 2, 3, 9)
    assert ff_set_digons(fam(4), fam(3)).members() == (1, 2, 4)
    assert ff_set_digons(fam(2, 4), fam(2)).all_of_n
    assert ff_set_digons(fam(3), fam(5)).members() == (1, 3)


def test_ff_set_digons_matches_graph_scan():
    families = [
        (fam(2), fam(3)),
        (fam(1, 3), fam(2)),
        (fam(4), fam(2, 3)),
        (fam(2, 3), fam(4)),
    ]
    for a, b in families:
        assert ff_set_digons(a, b) == FFSet.from_gcds(gcd_histogram(a.graph(), b.graph()))


def test_digon_ff_map_structure():
    f = digon_union_witness(digon(9), digon(7), 2)
    assert ff_gcd(f) % 2 == 0
    f3 = digon_union_witness(digon(9), digon(7), 3)
    assert ff_gcd(f3) % 3 == 0


def test_digon_ff_map_exact_case():
    # 3 fits bijectively into the 3-digon, so the map is exact
    f = digon_union_witness(digon(3), fam(3, 5).graph(), 0)
    assert ff_gcd(f) == 0


def test_digon_ff_map_rejects_impossible():
    # 9 is no sum of 7s and 4s
    assert digon_union_witness(digon(9), digon(7), 4) is None
    with pytest.raises(ValueError):
        digon_union_witness(dicycle(3), fam(7).graph(), 2)


def test_digon_union_witness_none_when_cone_fails():
    assert digon_union_witness(digon(9), digon(7), 6) is None


def test_digon_union_witness_rejects_negative_modulus():
    # as exists_ff_map does; no modulus below 0 divides anything
    with pytest.raises(ValueError, match="nonnegative"):
        digon_union_witness(digon(6), digon(3), -1)


def test_build_witness_plans():
    g, h, plan = build_witness({1})
    assert plan.prime == 5 and plan.companion == 7
    assert plan.source_digons == (5, 7)
    assert plan.target_digons == (4, 6)
    assert verify_witness(plan).passed
    # small enough for a full scan over the actual pair of digraphs
    full = FFSet.from_gcds(gcd_histogram(g, h))
    assert full == FFSet.from_gcds([1])

    g, h, plan = build_witness({2, 3})
    assert plan.prime == 13 and plan.companion == 17
    assert plan.target_digons == (10, 11, 14, 15)
    assert verify_witness(plan).passed


def test_build_witness_normalizes_divisors():
    _, _, direct = build_witness({4})
    _, _, redundant = build_witness({2, 4})
    assert direct.targets == redundant.targets == (4,)
    assert direct.prime == 17 and direct.companion == 22
    report = verify_witness(direct)
    assert report.passed
    assert report.computed == FFSet.from_gcds(divisors(4))


def test_build_witness_empty_set():
    g, h, plan = build_witness(set())
    assert g.num_edges == 1 and h.num_edges == 0
    assert plan.targets == ()
    report = verify_witness(plan)
    assert report.passed
    assert report.computed.maximal_elements == frozenset()


def test_build_witness_validation():
    with pytest.raises(ValueError):
        build_witness({0})
    with pytest.raises(ValueError):
        build_witness({-2, 3})


def test_witness_plan_json_round_trips():
    _, _, plan = build_witness({2, 5})
    record = json.loads(json.dumps(plan.to_json()))
    assert record["targets"] == [2, 5]
    assert record["prime"] == 23 and record["companion"] == 29
    assert record["source_digons"] == [23, 29]
    assert record["target_digons"] == [18, 21, 24, 27]


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=2))
def test_build_witness_realizes_divisor_closure(targets):
    g, h, plan = build_witness(targets)
    expected = set()
    for t in targets:
        expected.update(divisors(t))
    report = verify_witness(plan)
    assert report.passed
    assert report.expected == FFSet.from_gcds(expected)
    # member side double-checked by building an actual map and taking
    # its gcd on the full witness pair
    for n in sorted(expected):
        witness = digon_union_witness(g, h, n)
        assert witness.source == g and witness.target == h
        assert ff_gcd(witness) % n == 0
    for n in range(1, max(expected) + 2):
        if n not in expected:
            assert digon_union_witness(g, h, n) is None
