"""Digon unions and witness pairs with a prescribed flow-continuity set.

A digon with multiplicity a is two vertices joined by a parallel edges.
For disjoint unions of digons, existence of an FF_n map has a purely
arithmetic answer: each source multiplicity must lie in the integer cone
of the target multiplicities together with n.  One cone table
(algebra.cone_counts) answers that in memory linear in the largest
multiplicity, so no budget applies.  It powers the set computation, an
explicit map construction, and the headline construction here: given any
finite set of positive integers, build a pair of digraphs whose FF set is
exactly the divisor down-closure of it.
"""

import math
from dataclasses import dataclass

from .algebra import FFSet, _antichain, cone_counts, decompose_in_cone, next_prime_above
from .decide import EdgeMap, ff_gcd
from .graphs import MultiDigraph, digon, disjoint_union


@dataclass(frozen=True)
class DigonFamily:
    """A disjoint union of digons, recorded by their edge multiplicities."""

    multiplicities: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", frozenset(self.multiplicities))
        if not self.multiplicities:
            raise ValueError("family needs at least one digon")
        for a in self.multiplicities:
            if a < 1:
                raise ValueError(f"multiplicity {a} must be positive")

    def graph(self) -> MultiDigraph:
        """The union, digons in ascending multiplicity order."""
        return disjoint_union([digon(a) for a in sorted(self.multiplicities)])


def as_digon_union(g: MultiDigraph) -> tuple[tuple[int, ...], ...] | None:
    """Edge indices per digon component, or None if g is not such a union.

    Accepts isolated vertices (flow-theoretically inert); rejects loops,
    opposite-direction edge pairs and anything with three vertices in one
    component.  Components are ordered by first edge index.
    """
    edges_of: dict[tuple[int, int], list[int]] = {}
    for i, (tail, head) in enumerate(g.edges):
        if tail == head:
            return None
        edges_of.setdefault((tail, head), []).append(i)
    used: dict[int, tuple[int, int]] = {}
    for (tail, head), indices in edges_of.items():
        for v in (tail, head):
            if v in used and used[v] != (tail, head):
                return None
            used[v] = (tail, head)
    ordered = sorted(edges_of.values(), key=lambda indices: indices[0])
    return tuple(tuple(indices) for indices in ordered)


def ff_set_digons(source: DigonFamily, target: DigonFamily) -> FFSet:
    """FF set of a pair of digon unions, by cone arithmetic alone.

    All of N when every source multiplicity is already a sum of target
    ones; otherwise n is a member iff adding n as a generator repairs
    every source multiplicity a, i.e. some a - k*n is a sum of target
    ones, which can only happen for n up to the largest a.  One cone
    table up to the largest a answers every n.
    """
    a_values = sorted(source.multiplicities)
    top = a_values[-1]
    reach = cone_counts(top, target.multiplicities) >= 0
    if reach[a_values].all():
        return FFSet.everything()
    return FFSet.from_gcds(
        n for n in range(1, top + 1) if all(reach[a % n : a + 1 : n].any() for a in a_values)
    )


def digon_union_witness(g: MultiDigraph, h: MultiDigraph, n: int) -> EdgeMap | None:
    """An FF_n map between two digon unions, or None when none exists.

    n = 0 asks for FF_Z.  Follows the cone decomposition of each source
    multiplicity: for every target-sized term, that many source edges go
    bijectively onto the first target digon of that size; each n-sized
    remainder term sends n source edges onto target edge 0.  Choices are
    lowest-index throughout, so the witness is deterministic.
    """
    if n < 0:
        raise ValueError(f"modulus must be nonnegative, got {n}")
    parts = as_digon_union(g), as_digon_union(h)
    if None in parts:
        raise ValueError("both graphs must be digon unions")
    return _digon_witness(g, h, *parts, n)


def _digon_witness(g, h, source_parts, target_parts, n) -> EdgeMap | None:
    """digon_union_witness given as_digon_union of g and of h."""
    if not source_parts:
        return EdgeMap(g, h, ())
    if not target_parts:
        return None

    first_of_size = {len(part): part for part in reversed(target_parts)}
    generators = set(first_of_size) | ({n} if n >= 1 else set())

    # a remainder term (b == n) leaves its edges on target edge 0
    assignment = [0] * g.num_edges
    for part in source_parts:
        terms = decompose_in_cone(len(part), generators)
        if terms is None:
            return None
        cursor = 0
        for b in terms:
            for k, target_edge in enumerate(first_of_size.get(b, ())):
                assignment[part[cursor + k]] = target_edge
            cursor += b

    witness = EdgeMap(g, h, tuple(assignment))
    achieved = ff_gcd(witness)
    if math.gcd(n, achieved) != n:
        raise AssertionError(f"constructed map has gcd {achieved}, wanted multiple of {n}")
    return witness


@dataclass(frozen=True)
class WitnessPlan:
    """Recipe for a digraph pair whose FF set is a prescribed down-set.

    targets holds the divisibility-maximal elements of the requested set.
    For nonempty targets the source is two digons of coprime-by-design
    sizes (a prime beyond four times the largest target, and the smallest
    integer past 1.25 times that prime); the target family subtracts each
    target value from both sizes.  Empty targets get an edgeless target
    graph instead, realizing the empty set.
    """

    targets: tuple[int, ...]
    prime: int | None
    companion: int | None
    source_digons: tuple[int, ...]
    target_digons: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "targets": list(self.targets),
            "prime": self.prime,
            "companion": self.companion,
            "source_digons": list(self.source_digons),
            "target_digons": list(self.target_digons),
        }


def build_witness(targets) -> tuple[MultiDigraph, MultiDigraph, WitnessPlan]:
    """Digraphs (G, H) with FF(G,H) = {s : s divides some member of targets}.

    The empty set yields a single-edge G against an edgeless H.  The
    plan's interval condition (companion strictly between 1.25 and 1.5
    times the prime) is verified, not assumed.
    """
    values = set(int(t) for t in targets)
    for t in values:
        if t < 1:
            raise ValueError(f"target {t} must be positive")
    if not values:
        plan = WitnessPlan((), None, None, (1,), ())
        return digon(1), MultiDigraph(0, ()), plan

    reduced = tuple(sorted(_antichain(values)))
    prime = next_prime_above(4 * max(reduced))
    companion = 5 * prime // 4 + 1
    if not (4 * companion > 5 * prime and 2 * companion < 3 * prime):
        raise AssertionError(f"no integer strictly between 1.25 and 1.5 times {prime}")
    source = (prime, companion)
    target_digons = tuple(
        sorted({prime - t for t in reduced} | {companion - t for t in reduced})
    )
    for b in target_digons:
        if 4 * b <= 3 * prime:
            raise AssertionError(f"target digon {b} not above three quarters of {prime}")
    plan = WitnessPlan(reduced, prime, companion, source, target_digons)
    g = DigonFamily(frozenset(source)).graph()
    h = DigonFamily(frozenset(target_digons)).graph()
    return g, h, plan


@dataclass(frozen=True)
class WitnessReport:
    """verify_witness outcome: computed FF set against the promised one."""

    passed: bool
    computed: FFSet
    expected: FFSet


def verify_witness(plan: WitnessPlan) -> WitnessReport:
    """Recompute the plan's FF set and compare with its promise."""
    expected = FFSet.from_gcds(plan.targets)
    computed = FFSet.from_gcds([])
    if plan.target_digons:
        computed = ff_set_digons(DigonFamily(plan.source_digons), DigonFamily(plan.target_digons))
    return WitnessReport(computed == expected, computed, expected)
