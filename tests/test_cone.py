"""The cone table pinned to the dynamic programs it replaced.

The references below are the package's former routes: cone membership as
a reachability DP over 0..target, the decomposition as a DP that keeps the
best sorted term tuple for every x up to the target, the FF set of two
digon unions as one membership DP per candidate n, checked to be a
down-set under divisibility before FFSet.from_gcds reads it, and the
antichain as the quadratic definition.  The table's answers must be
identical.
"""

import time

from hypothesis import given, settings, strategies as st

from flowcont.algebra import (
    FFSet,
    _antichain,
    cone_counts,
    cone_member,
    decompose_in_cone,
    divisors,
)
from flowcont.constructions import DigonFamily, ff_set_digons


def reference_cone_member(target, generators):
    reachable = [False] * (target + 1)
    reachable[0] = True
    for s in sorted(set(generators)):
        for v in range(s, target + 1):
            if reachable[v - s]:
                reachable[v] = True
    return reachable[target]


def reference_decompositions(limit, generators):
    """Per x in 0..limit: fewest terms, then the smallest sorted tuple."""
    gens = sorted(set(generators))
    best = [None] * (limit + 1)
    best[0] = ()
    for x in range(1, limit + 1):
        for b in gens:
            if b > x or best[x - b] is None:
                continue
            candidate = tuple(sorted(best[x - b] + (b,)))
            if best[x] is None or (len(candidate), candidate) < (len(best[x]), best[x]):
                best[x] = candidate
    return best


def reference_ff_set_digons(a_values, b_values):
    if all(reference_cone_member(a, b_values) for a in a_values):
        return FFSet.everything()
    members = [
        n
        for n in range(1, max(a_values) + 1)
        if all(reference_cone_member(a, set(b_values) | {n}) for a in a_values)
    ]
    assert all(d in members for n in members for d in divisors(n))
    return FFSet.from_gcds(members)


def reference_antichain(values):
    kept = set(values)
    return frozenset(x for x in kept if not any(y != x and y % x == 0 for y in kept))


# duplicates and generators above the target included
generators = st.lists(st.integers(1, 30), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200), generators)
def test_membership_and_decomposition_match_the_dps(target, gens):
    assert cone_member(target, gens) == reference_cone_member(target, gens)
    assert decompose_in_cone(target, gens) == reference_decompositions(target, gens)[target]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), generators)
def test_cone_counts_are_the_fewest_terms(limit, gens):
    best = reference_decompositions(limit, gens)
    expected = [-1 if terms is None else len(terms) for terms in best]
    assert cone_counts(limit, gens).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(1, 60), min_size=1, max_size=3),
    st.sets(st.integers(1, 60), min_size=1, max_size=3),
)
def test_ff_set_digons_matches_the_membership_dp(a, b):
    expected = reference_ff_set_digons(sorted(a), sorted(b))
    assert ff_set_digons(DigonFamily(frozenset(a)), DigonFamily(frozenset(b))) == expected


@given(st.sets(st.one_of(st.integers(1, 60), st.integers(1, 10**15)), max_size=12))
def test_antichain_matches_the_quadratic_definition(values):
    assert _antichain(values) == reference_antichain(values)


def test_antichain_of_far_apart_values_answers_at_once():
    # testing 1 against its multiples up to 10**15 would never finish
    start = time.perf_counter()
    assert _antichain({1, 10**15}) == {10**15}
    assert _antichain({2, 3, 10**15}) == {3, 10**15}
    assert time.perf_counter() - start < 1
