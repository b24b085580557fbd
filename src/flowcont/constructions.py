"""Digon unions and witness pairs with a prescribed flow-continuity set.

A digon with multiplicity a is two vertices joined by a parallel edges.
For disjoint unions of digons, existence of an FF_n map has a purely
arithmetic answer: each source multiplicity must lie in the integer cone
of the target multiplicities together with n.  That criterion powers a
fast set computation, an explicit map construction, and the headline
construction here: given any finite set of positive integers, build a
pair of digraphs whose FF set is exactly the divisor down-closure of it.
"""

from dataclasses import dataclass

from .algebra import FFSet, _antichain, cone_member, divisors, next_prime_above
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


def decompose_in_cone(target: int, generators) -> tuple[int, ...] | None:
    """Write target as a sum of generators (repeats allowed), or None.

    Among all decompositions, the fewest terms win; ties go to the
    lexicographically smallest sorted term tuple.  Deterministic.
    """
    if target < 0:
        raise ValueError(f"target must be nonnegative, got {target}")
    gens = sorted(set(int(b) for b in generators))
    if gens and gens[0] < 1:
        raise ValueError(f"generators must be positive, got {gens[0]}")
    best: list[tuple[int, ...] | None] = [None] * (target + 1)
    best[0] = ()
    for x in range(1, target + 1):
        for b in gens:
            if b > x or best[x - b] is None:
                continue
            candidate = tuple(sorted(best[x - b] + (b,)))
            if best[x] is None or (len(candidate), candidate) < (len(best[x]), best[x]):
                best[x] = candidate
    return best[target]


def ff_set_digons(source: DigonFamily, target: DigonFamily) -> FFSet:
    """FF set of a pair of digon unions, by cone membership alone.

    All of N when every source multiplicity is already a sum of target
    ones; otherwise n is a member iff adding n as a generator repairs
    every source multiplicity, which can only happen for n up to the
    largest source multiplicity.
    """
    a_values = sorted(source.multiplicities)
    b_values = sorted(target.multiplicities)
    if all(cone_member(a, b_values) for a in a_values):
        return FFSet.everything()
    members = [
        n
        for n in range(1, max(a_values) + 1)
        if all(cone_member(a, sorted(set(b_values) | {n})) for a in a_values)
    ]
    return FFSet.from_members(members)


def digon_union_witness(g: MultiDigraph, h: MultiDigraph, n: int) -> EdgeMap | None:
    """An FF_n map between two digon unions, or None when none exists.

    n = 0 asks for FF_Z.  Follows the cone decomposition of each source
    multiplicity: for every target-sized term, that many source edges go
    bijectively onto the first target digon of that size; each n-sized
    remainder term sends n source edges onto target edge 0.  Choices are
    lowest-index throughout, so the witness is deterministic.
    """
    source_parts = as_digon_union(g)
    target_parts = as_digon_union(h)
    if source_parts is None or target_parts is None:
        raise ValueError("both graphs must be digon unions")
    if not source_parts:
        return EdgeMap(g, h, ())
    if not target_parts:
        return None

    first_of_size: dict[int, tuple[int, ...]] = {}
    for part in target_parts:
        first_of_size.setdefault(len(part), part)
    generators = set(first_of_size)
    if n >= 1:
        generators.add(n)

    assignment = [0] * g.num_edges
    for part in source_parts:
        terms = decompose_in_cone(len(part), sorted(generators))
        if terms is None:
            return None
        cursor = 0
        for b in terms:
            if b in first_of_size:
                for k, target_edge in enumerate(first_of_size[b]):
                    assignment[part[cursor + k]] = target_edge
            else:
                # remainder block: b == n, all onto one fixed edge
                for k in range(b):
                    assignment[part[cursor + k]] = 0
            cursor += b

    witness = EdgeMap(g, h, tuple(assignment))
    achieved = ff_gcd(witness)
    if achieved != 0 and (n == 0 or achieved % n != 0):
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
    expected_members: set[int] = set()
    for t in plan.targets:
        expected_members.update(divisors(t))
    expected = FFSet.from_members(expected_members)
    if not plan.target_digons:
        computed = FFSet.from_gcds([])
    else:
        computed = ff_set_digons(
            DigonFamily(frozenset(plan.source_digons)),
            DigonFamily(frozenset(plan.target_digons)),
        )
    return WitnessReport(computed == expected, computed, expected)
