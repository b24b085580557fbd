"""The blocked int16 frontier pass against the one-shot int64 pass it
replaced, kept here verbatim as the reference."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from flowcont import ffsets
from flowcont.ffsets import exists_ff_map, ff_set_of_graphs
from flowcont.flows import circuit_matrix
from flowcont.graphs import k4, petersen

from test_ffsets import multigraphs


def reference_frontier(g, h, n, budget):
    """The frontier pass as it was before blocks and int16 states: every
    candidate of a level built at once as int64, one merge per level."""
    eh = h.num_edges
    if g.num_edges and not eh:
        return {}, None, 0, 0
    # bridges of H, and edges in series on a cycle, share a circuit row;
    # the first target edge carrying a row stands for all of them
    rows, first, multiplicity = np.unique(
        circuit_matrix(h), axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    rows, first, multiplicity = rows[order], first[order], multiplicity[order]
    width = rows.shape[1]
    edges = [(tail, head) for tail, head in g.edges if tail != head]
    loops = g.num_edges - len(edges)
    last = {v: k for k, edge in enumerate(edges) for v in edge}
    # a count never exceeds |E(H)| ** (edges so far); past int64, use Python ints
    dtype = np.int64 if eh ** len(edges) < 2**63 else object
    opened: list[int] = []
    # column 0 holds g, then one block of width columns per open vertex
    states = np.full((1, 1), n or 0, dtype=np.int64)
    counts = np.ones(1, dtype=dtype)
    arrivals = []
    expanded = entries = 0
    for k, (tail, head) in enumerate(edges):
        for v in (tail, head):
            if v not in opened:
                opened.append(v)
                states = np.hstack([states, np.zeros((len(states), width), dtype=np.int64)])
        entries += len(states) * len(rows) * states.shape[1]
        if entries > budget:
            return None, None, expanded, entries
        expanded += len(states)
        step = np.tile(rows, (len(states), 1))
        states = np.repeat(states, len(rows), axis=0)
        counts = np.repeat(counts, len(rows)) * np.tile(multiplicity, len(counts))
        at_tail = 1 + opened.index(tail) * width
        at_head = 1 + opened.index(head) * width
        states[:, at_tail : at_tail + width] += step
        states[:, at_head : at_head + width] -= step

        blocks = [range(1 + s * width, 1 + (s + 1) * width) for s in range(len(opened))]
        closing = [x for s, v in enumerate(opened) if last[v] == k for x in blocks[s]]
        kept = [x for s, v in enumerate(opened) if last[v] != k for x in blocks[s]]
        opened = [v for v in opened if last[v] != k]
        folded = np.gcd.reduce(states[:, [0] + closing], axis=1)
        # g only loses divisors, so a state whose g is not n never ends FF_n
        alive = np.flatnonzero(folded == n) if n is not None else np.arange(len(states))
        if not len(alive):
            return {}, None, expanded, entries
        folded = folded[alive]
        rest = states[np.ix_(alive, kept)]
        np.remainder(rest, folded[:, None], out=rest, where=folded[:, None] != 0)
        states, seen, inverse = np.unique(
            np.column_stack([folded, rest]), axis=0, return_index=True, return_inverse=True
        )
        merged = np.zeros(len(states), dtype=dtype)
        np.add.at(merged, inverse.ravel(), counts[alive])
        order = np.argsort(seen)
        states, counts = states[order], merged[order]
        arrivals.append(alive[seen[order]])
    # every vertex has closed, so each state is its gcd alone
    histogram = {
        int(value): int(count) * eh**loops
        for value, count in zip(states[:, 0].tolist(), counts.tolist())
    }
    chosen, state = [], 0
    for arrival in reversed(arrivals):
        state, candidate = divmod(int(arrival[state]), len(rows))
        chosen.append(int(first[candidate]))
    witness = tuple(0 if tail == head else chosen.pop() for tail, head in g.edges)
    return histogram, witness, expanded, entries


def status(histogram, witness):
    return "unknown" if histogram is None else "none" if witness is None else "found"


@settings(max_examples=50, deadline=None)
@given(
    multigraphs(5, 7),
    multigraphs(4, 5),
    st.one_of(st.just(10**8), st.integers(0, 3000)),
    st.sampled_from([1, 2, 5, 12, ffsets.BLOCK]),
)
def test_blocked_pass_matches_the_reference(g, h, budget, block):
    # a few candidates a block makes most levels span several blocks
    delta = g.max_degree()
    digons = ffsets._digon_parts(g, h) is not None
    with mock.patch.object(ffsets, "BLOCK", block):
        for n in (None, 0, 1, 2, 3, 4, 6, 2 * delta, 2 * delta + 1, 10**20):
            big = n is not None and n > 2 * delta
            expected = reference_frontier(g, h, min(n, 2 * delta + 1) if big else n, budget)
            got = ffsets._frontier(g, h, 0 if big else n, budget)
            if big:
                # a pass seeded past 2 * Δ(G) is the n = 0 pass but for its histogram key
                assert status(*got[:2]) == status(*expected[:2])
                assert got[1:] == expected[1:]
            else:
                assert got == expected
            if n is None or digons:
                continue
            outcome = exists_ff_map(g, h, n, budget)
            assert outcome.status == status(*expected[:2])
            assert outcome.nodes == expected[2]
            assert (outcome.witness and outcome.witness.assignment) == expected[1]


def test_petersen_to_k4_scan_stays_small():
    tracemalloc.start()
    try:
        answer = ff_set_of_graphs(petersen(), k4())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer.maximal_elements == frozenset({1})
    # numpy reports its buffers to tracemalloc; the one-shot pass peaked at 33.5 MB
    assert peak < 8 * 2**20
