"""Divisor sets of flow-continuity: which n admit an FF_n map.

For one map f the set {n : f is FF_n} is the divisors of a single gcd,
FFSet.from_gcds([ff_gcd(f)]).
For a pair of digraphs, FF(G,H) is the union of those divisor sets over
every edge map from G to H, which makes it a down-set under divisibility:
either all of N (some map is FF_Z) or finite, and in the finite case it
is represented by its divisibility-maximal elements.

So one histogram, gcd -> number of maps attaining it, answers every
whole-space question here: the set, the count over a group, and the
below-degree equivalence check; none is answered map by map.  It comes
from one frontier pass over the source edges that folds each finished
discrepancy row into a running gcd and merges equal states, so it is
exact while keeping far fewer states than there are maps.  The witness
search is the same pass with its gcd seeded at n, dropping states that
can no longer end FF_n.

Every budget here counts frontier entries (states times state columns,
summed over the levels), the real work and memory of the pass, never the
|E(H)| ** |E(G)| maps of the space.  The pass holds its states as int16
and builds each level in fixed blocks, so its memory follows the states
it keeps rather than the candidates it builds.  Pairs of digon unions
skip the pass and read no budget: one cone table answers the set and the
search in memory linear in the largest source digon.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import FFSet, Group, exponent
from .constructions import DigonFamily, _digon_witness, as_digon_union, ff_set_digons
from .decide import EdgeMap
from .flows import DEFAULT_MAP_BUDGET, BudgetExceededError, circuit_matrix
from .graphs import MultiDigraph


# candidates built at a time: a level with more is expanded in blocks of
# whole parent states, each merged on its own before one merge of them all
BLOCK = 2**13


def _frontier(g: MultiDigraph, h: MultiDigraph, n: int | None, budget: int):
    """(gcd -> map count, first finishing map or None, states expanded,
    frontier entries built).

    One pass over the non-loop source edges in index order.  A state is
    (g, open rows): the discrepancy rows of the source vertices that still
    have an edge to come, and the gcd g of the rows already closed, seeded
    with n (0 for no n or one past 2Δ(G)).  Sending edge i to target edge
    j adds row j of the circuit matrix at i's tail and subtracts it at i's
    head.  After a vertex's last edge its row is folded into g and
    dropped, and the open entries are reduced mod g, which keeps the final
    gcd.  Equal states have equal futures, so they are merged and their
    map counts added.  A loop multiplies every count by |E(H)| and goes to
    target edge 0.

    Candidates come in target edge order and merged states keep the order
    they were first reached in, so each state's first arrival is its
    lexicographically first prefix; the first final state, traced back,
    is the first finishing map.  Given n, only FF_n maps finish.  The
    histogram is None once the frontier entries built pass the budget,
    and the entries are then those counted up to the level that passed it.
    An edgeless source finishes the empty map, and a source with edges
    into an edgeless target finishes none, both with no state expanded.

    Memory follows the states kept, not the candidates built.  A level of
    more than BLOCK candidates is expanded, filtered and merged BLOCK at a
    time, and the blocks' survivors are merged once more; that keeps each
    state's smallest candidate index, so first arrivals are unchanged.
    States are int16: |D[v,c]| <= deg(v), so an entry reduced mod g, which
    is below max(n, Δ(G)), grows by at most Δ(G) before it is reduced
    again, and only when that sum reaches 2^15 are they int64.  A level
    whose candidates hardly merge peaks at about 10 bytes per entry.
    """
    eh = h.num_edges
    if g.num_edges and not eh:
        return {}, None, 0, 0
    # bridges of H, and edges in series on a cycle, share a circuit row;
    # the first target edge carrying a row stands for all of them
    rows, first, multiplicity = np.unique(
        circuit_matrix(h), axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    first, multiplicity = first[order], multiplicity[order]
    delta = g.max_degree()
    # past 2 * Δ(G) residues mod n are injective on the entries' range
    # [-Δ, Δ], so the pass seeded at n makes the same states as at n = 0
    if n is not None and n > 2 * delta:
        n = 0
    entry = np.int16 if max(n or 0, delta) + delta < 2**15 else np.int64
    rows = rows[order].astype(entry)
    width = rows.shape[1]
    edges = [(tail, head) for tail, head in g.edges if tail != head]
    loops = g.num_edges - len(edges)
    last = {v: k for k, edge in enumerate(edges) for v in edge}
    # a count never exceeds |E(H)| ** (edges so far); past int64, use Python ints
    dtype = np.int64 if eh ** len(edges) < 2**63 else object
    opened: list[int] = []
    # column 0 holds g, then width columns per open vertex
    states = np.full((1, 1), n or 0, dtype=entry)
    counts = np.ones(1, dtype=dtype)
    arrivals = []
    expanded = entries = 0
    for k, (tail, head) in enumerate(edges):
        fresh = [v for v in (tail, head) if v not in opened]
        opened += fresh
        if fresh:
            grown = np.zeros((len(states), len(fresh) * width), dtype=entry)
            states = np.hstack([states, grown])
        entries += len(states) * len(rows) * states.shape[1]
        if entries > budget:
            return None, None, expanded, entries
        expanded += len(states)
        at_tail = 1 + opened.index(tail) * width
        at_head = 1 + opened.index(head) * width
        columns = [range(1 + s * width, 1 + (s + 1) * width) for s in range(len(opened))]
        closing = [0] + [x for s, v in enumerate(opened) if last[v] == k for x in columns[s]]
        kept = [0] + [x for s, v in enumerate(opened) if last[v] != k for x in columns[s]]
        opened = [v for v in opened if last[v] != k]

        merged = []
        per_block = max(1, BLOCK // len(rows))
        for start in range(0, len(states), per_block):
            parents = states[start : start + per_block]
            step = np.tile(rows, (len(parents), 1))
            candidates = np.repeat(parents, len(rows), axis=0)
            candidates[:, at_tail : at_tail + width] += step
            candidates[:, at_head : at_head + width] -= step
            folded = np.gcd.reduce(candidates[:, closing], axis=1)
            # g only loses divisors, so a state whose g is not n never ends FF_n
            alive = np.flatnonzero(folded == n) if n is not None else np.arange(len(folded))
            if not len(alive):
                continue
            folded = folded[alive]
            keys = candidates[np.ix_(alive, kept)]
            keys[:, 0] = folded
            rest = keys[:, 1:]
            np.remainder(rest, folded[:, None], out=rest, where=folded[:, None] != 0)
            weights = np.repeat(counts[start : start + per_block], len(rows))
            weights = (weights * np.tile(multiplicity, len(parents)))[alive]
            merged.append(_merge(keys, weights, alive + start * len(rows)))
        if not merged:
            return {}, None, expanded, entries
        if len(merged) > 1:
            # blocks run in candidate order, so a state's first row is its first arrival
            parts = [np.concatenate(part) for part in zip(*merged)]
            merged.clear()  # free the blocks before the merge sorts their survivors
            merged.append(_merge(*parts))
            del parts
        states, counts, arrival = merged[0]
        arrivals.append(arrival)
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


def _merge(keys, weights, arrivals):
    """Equal rows of keys as one state each, in the order first reached:
    (states, summed weights, arrival of each state's first row)."""
    _, seen, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    counts = np.zeros(len(seen), dtype=weights.dtype)
    np.add.at(counts, inverse.ravel(), weights)
    order = np.argsort(seen)
    first = seen[order]
    return keys[first], counts[order], arrivals[first]


def gcd_histogram(
    g: MultiDigraph,
    h: MultiDigraph,
    budget: int = DEFAULT_MAP_BUDGET,
) -> dict[int, int]:
    """gcd -> number of edge maps G -> H whose discrepancy gcd it is.

    One frontier pass builds it exactly.  The budget caps the frontier
    entries built; BudgetExceededError is raised once they would pass it.
    """
    histogram, _, _, entries = _frontier(g, h, None, budget)
    if histogram is None:
        raise BudgetExceededError(entries, budget, what="frontier entries or more")
    return histogram


def _digon_parts(g: MultiDigraph, h: MultiDigraph):
    """as_digon_union of G and of H when both are digon unions with
    edges, whose map questions cone arithmetic answers; else None."""
    parts = as_digon_union(g), as_digon_union(h)
    return parts if all(parts) else None


def ff_set_of_graphs(
    g: MultiDigraph,
    h: MultiDigraph,
    budget: int = DEFAULT_MAP_BUDGET,
) -> FFSet:
    """FF(G,H): the union over every edge map of its divisor set.

    All of N iff some map has gcd 0; empty iff H is edgeless while G is
    not.  Digon unions are answered by ff_set_digons whatever the budget,
    in memory linear in the largest source digon; any other pair by the
    gcd histogram under its frontier-entry budget.
    """
    parts = _digon_parts(g, h)
    if parts is not None:
        return ff_set_digons(*(DigonFamily(frozenset(map(len, x))) for x in parts))
    return FFSet.from_gcds(gcd_histogram(g, h, budget))


def count_ff_maps(
    g: MultiDigraph,
    h: MultiDigraph,
    m: Group,
    budget: int = DEFAULT_MAP_BUDGET,
) -> int:
    """Number of edge maps G -> H that are flow-continuous over m.

    Adds up the gcd histogram over the gcds the exponent of m divides
    (only gcd zero for an exponent of 0).  oracle_count_ff_maps replays
    the definition instead.
    """
    n = exponent(m)
    by_gcd = gcd_histogram(g, h, budget)
    return sum(count for value, count in by_gcd.items() if math.gcd(n, value) == n)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a witness search: found / none / unknown (budget ran out),
    and nodes, the number of frontier states the search expanded."""

    status: str
    witness: EdgeMap | None
    nodes: int

    def __post_init__(self):
        if self.status not in ("found", "none", "unknown"):
            raise ValueError(f"bad status {self.status!r}")
        if (self.witness is not None) != (self.status == "found"):
            raise ValueError("witness present iff status is found")


def exists_ff_map(
    g: MultiDigraph,
    h: MultiDigraph,
    n: int,
    budget: int = DEFAULT_MAP_BUDGET,
) -> SearchOutcome:
    """Search for a map G -> H that is FF_n (n = 0 for the integers).

    Digon unions are decided through the integer-cone criterion, in
    memory linear in the largest source digon.  Otherwise the frontier
    pass of the scans runs with its gcd seeded at n, dropping every state
    that can no longer end FF_n, and the witness is the lexicographically
    first FF_n map.  The budget caps the entries of all frontiers built;
    "unknown" is returned once it would be passed and is never conflated
    with "none".
    """
    if n < 0:
        raise ValueError(f"modulus must be nonnegative, got {n}")
    parts = _digon_parts(g, h)
    if parts is not None:
        witness = _digon_witness(g, h, *parts, n)
        return SearchOutcome("none" if witness is None else "found", witness, 0)

    histogram, witness, nodes, _ = _frontier(g, h, n, budget)
    if histogram is None:
        return SearchOutcome("unknown", None, nodes)
    if witness is None:
        return SearchOutcome("none", None, nodes)
    return SearchOutcome("found", EdgeMap(g, h, witness), nodes)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of checking FF_n <=> FF_Z for every map and modulus.
    sample_violations is always (): the entry bound leaves no violation
    to list (see subcubic_equivalence_check)."""

    maps_checked: int
    moduli: tuple[int, ...]
    violation_count: int
    sample_violations: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def subcubic_equivalence_check(
    g: MultiDigraph,
    h: MultiDigraph,
    n_range,
) -> EquivalenceReport:
    """Verify FF_n <=> FF_Z over all maps G -> H for each n in n_range.

    The equivalence holds whenever every source degree is below n, which
    is enforced as a precondition: |D[v,c]| <= deg(v), so a nonzero gcd
    never reaches n.  A map would violate it at n with a nonzero gcd that
    n divides; the count of such maps is re-derived from the gcd histogram,
    under DEFAULT_MAP_BUDGET, all the same, which tests the frontier pass
    against the bound (expected: zero).
    """
    moduli = tuple(sorted(set(int(n) for n in n_range)))
    if not moduli:
        raise ValueError("need at least one modulus")
    if moduli[0] < 1:
        raise ValueError(f"moduli must be positive, got {moduli[0]}")
    if g.max_degree() >= moduli[0]:
        raise ValueError(
            f"max degree {g.max_degree()} not below smallest modulus {moduli[0]}"
        )
    by_gcd = gcd_histogram(g, h)
    violation_count = sum(
        count
        for n in moduli
        for value, count in by_gcd.items()
        if (value % n == 0) != (value == 0)
    )
    return EquivalenceReport(h.num_edges**g.num_edges, moduli, violation_count, ())
