"""Seeded randomized cross-checks of every derived algorithm.

Each suite re-derives a result two independent ways on small random
instances and records any disagreement: circuit-generated flows against
the raw Kirchhoff filter, the gcd decision against the definitional
oracle, product and exponent laws, the below-degree equivalence of FF_n
with FF_Z, cone analysis against exhaustive map enumeration, and
flow-count invariance for equal-order groups.  All instances derive from
one seed, so failures reproduce exactly; only the suite times vary.
"""

import random
import time
from dataclasses import dataclass, field, replace

from .algebra import FFSet, Group, direct_product, exponent, parse_group
from .constructions import DigonFamily, ff_set_digons
from .decide import EdgeMap, is_ff_group, oracle_count_ff_maps, oracle_is_ff_group
from .ffsets import gcd_histogram, subcubic_equivalence_check
from .flows import count_nowhere_zero_flows, enumerate_flows, filter_flows
from .graphs import MultiDigraph, digon, dicycle, k4, loop, petersen, spanning_structure

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: tuple[str, ...]
    # wall time of the suite, set by run_selftest; no part of the outcome
    seconds: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def checks_per_s(self) -> float:
        return self.checks / self.seconds if self.seconds else 0.0


def random_multidigraph(
    rng: random.Random,
    max_vertices: int,
    max_edges: int,
    max_cyclomatic: int | None = None,
    allow_loops: bool = True,
) -> MultiDigraph:
    """A small random digraph; optionally trimmed to a cyclomatic cap."""
    vertex_count = rng.randint(1, max_vertices)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        tail = rng.randrange(vertex_count)
        head = rng.randrange(vertex_count)
        if tail == head and not allow_loops:
            continue
        edges.append((tail, head))
    g = MultiDigraph(vertex_count, tuple(edges))
    if max_cyclomatic is not None:
        while len(spanning_structure(g)) > max_cyclomatic:
            edges.pop(rng.randrange(len(edges)))
            g = MultiDigraph(vertex_count, tuple(edges))
    return g


def random_edge_map(rng: random.Random, g: MultiDigraph, h: MultiDigraph) -> EdgeMap:
    """Uniform random assignment; target must have an edge unless g is edgeless."""
    if g.num_edges and not h.num_edges:
        raise ValueError("no maps into an edgeless graph")
    return EdgeMap(g, h, tuple(rng.randrange(h.num_edges) for _ in range(g.num_edges)))


def _groups_upto(order: int) -> list[Group]:
    groups = [parse_group(f"Z{n}") for n in range(1, order + 1)]
    groups.append(parse_group("Z2xZ2"))
    return groups


def suite_flow_span(rng: random.Random, trials: int) -> SuiteResult:
    """Circuit combinations produce exactly the Kirchhoff-filtered flows,
    in increasing order of their circuit coefficients."""
    failures = []
    checks = 0
    for t in range(trials):
        g = random_multidigraph(rng, max_vertices=4, max_edges=4)
        m = rng.choice(_groups_upto(4))
        checks += 1
        spanned = list(enumerate_flows(g, m))
        # a flow's coefficient on a circuit is its value on the circuit's own edge
        own_edges = [steps[0][0] for steps in spanning_structure(g)]
        coefficients = [tuple(phi[i] for i in own_edges) for phi in spanned]
        in_order = all(a < b for a, b in zip(coefficients, coefficients[1:]))
        if not in_order or sorted(spanned) != sorted(filter_flows(g, m)):
            failures.append(f"trial {t}: {g.vertex_count}v/{g.edges} over {m}")
    return SuiteResult("flow-span", checks, tuple(failures))


def suite_oracle_agreement(rng: random.Random, trials: int) -> SuiteResult:
    """gcd-based decisions match the exhaustive-flow oracle."""
    failures = []
    checks = 0
    for t in range(trials):
        g = random_multidigraph(rng, max_vertices=4, max_edges=6)
        h = random_multidigraph(rng, max_vertices=4, max_edges=4, max_cyclomatic=2)
        if h.num_edges == 0 and g.num_edges > 0:
            h = digon(2)
        f = random_edge_map(rng, g, h)
        for n in range(1, 7):
            m = parse_group(f"Z{n}")
            checks += 1
            if is_ff_group(f, m) != oracle_is_ff_group(f, m):
                failures.append(f"trial {t}: n={n} map {f.assignment}")
    return SuiteResult("oracle-agreement", checks, tuple(failures))


def suite_product_law(rng: random.Random, trials: int) -> SuiteResult:
    """FF over a product group is FF over both factors, by oracle."""
    factor_pairs = [("Z2", "Z3"), ("Z2", "Z2"), ("Z2", "Z4"), ("Z3", "Z3")]
    failures = []
    checks = 0
    for t in range(trials):
        g = random_multidigraph(rng, max_vertices=3, max_edges=4)
        h = random_multidigraph(rng, max_vertices=3, max_edges=3, max_cyclomatic=2)
        if h.num_edges == 0 and g.num_edges > 0:
            h = digon(2)
        f = random_edge_map(rng, g, h)
        for left_text, right_text in factor_pairs:
            left, right = parse_group(left_text), parse_group(right_text)
            checks += 1
            joint = oracle_is_ff_group(f, direct_product(left, right))
            split = oracle_is_ff_group(f, left) and oracle_is_ff_group(f, right)
            if joint != split:
                failures.append(f"trial {t}: {left_text}x{right_text} map {f.assignment}")
    return SuiteResult("product-law", checks, tuple(failures))


def suite_exponent_counts(rng: random.Random, trials: int) -> SuiteResult:
    """Equal-exponent groups admit equally many flow-continuous maps."""
    group_pairs = [("Z6", "Z2xZ3"), ("Z4", "Z2xZ4"), ("Z2", "Z2xZ2")]
    failures = []
    checks = 0
    for t in range(trials):
        g = random_multidigraph(rng, max_vertices=3, max_edges=3)
        h = random_multidigraph(rng, max_vertices=3, max_edges=3, max_cyclomatic=2)
        if h.num_edges == 0 and g.num_edges > 0:
            h = digon(1)
        for left_text, right_text in group_pairs:
            left, right = parse_group(left_text), parse_group(right_text)
            assert exponent(left) == exponent(right)
            checks += 1
            left_count = oracle_count_ff_maps(g, h, left)
            right_count = oracle_count_ff_maps(g, h, right)
            if left_count != right_count:
                failures.append(
                    f"trial {t}: {left_text}:{left_count} vs {right_text}:{right_count}"
                )
    return SuiteResult("exponent-counts", checks, tuple(failures))


def suite_subcubic(rng: random.Random, trials: int) -> SuiteResult:
    """For source degrees below n, FF_n and FF_Z coincide on every map."""
    failures = []
    checks = 0
    for t in range(trials):
        g = random_multidigraph(rng, max_vertices=4, max_edges=5, allow_loops=False)
        while g.max_degree() > 3:
            edges = list(g.edges)
            busiest = max(range(g.vertex_count), key=g.degree)
            drop = next(
                i for i, e in enumerate(edges) if busiest in e
            )
            edges.pop(drop)
            g = MultiDigraph(g.vertex_count, tuple(edges))
        h = random_multidigraph(rng, max_vertices=3, max_edges=4)
        if h.num_edges == 0:
            h = digon(2)
        checks += 1
        report = subcubic_equivalence_check(g, h, range(4, 6))
        if not report.passed:
            failures.append(f"trial {t}: {report.violation_count} violations")
    return SuiteResult("below-degree-equivalence", checks, tuple(failures))


def suite_digon_cone(rng: random.Random, trials: int) -> SuiteResult:
    """Cone arithmetic agrees with exhaustive map enumeration on digons."""
    failures = []
    checks = 0
    for t in range(trials):
        source = DigonFamily(frozenset(rng.sample(range(1, 5), rng.randint(1, 2))))
        target = DigonFamily(frozenset(rng.sample(range(1, 5), rng.randint(1, 2))))
        checks += 1
        by_cone = ff_set_digons(source, target)
        by_scan = FFSet.from_gcds(gcd_histogram(source.graph(), target.graph()))
        if by_cone != by_scan:
            failures.append(
                f"trial {t}: {sorted(source.multiplicities)} -> "
                f"{sorted(target.multiplicities)}: {by_cone} vs {by_scan}"
            )
    return SuiteResult("digon-cone", checks, tuple(failures))


def suite_count_invariance(rng: random.Random, trials: int) -> SuiteResult:
    """Nowhere-zero flow counts agree for same-order groups (Z4 vs Z2xZ2)."""
    z4 = parse_group("Z4")
    klein = parse_group("Z2xZ2")
    graphs = [digon(2), digon(3), dicycle(3), loop(), k4(), petersen()]
    for _ in range(trials):
        graphs.append(random_multidigraph(rng, max_vertices=4, max_edges=6, max_cyclomatic=4))
    failures = []
    checks = 0
    for g in graphs:
        checks += 1
        a = count_nowhere_zero_flows(g, z4)
        b = count_nowhere_zero_flows(g, klein)
        if a != b:
            failures.append(f"{g.vertex_count}v/{g.edges}: {a} vs {b}")
    return SuiteResult("count-invariance", checks, tuple(failures))


def run_selftest(seed: int = DEFAULT_SEED, deep: bool = False) -> tuple[SuiteResult, ...]:
    """Run every suite from one seed; deep runs more and larger trials."""
    scale = 10 if deep else 1
    rng = random.Random(seed)
    suites = (
        (suite_flow_span, 30),
        (suite_oracle_agreement, 40),
        (suite_product_law, 20),
        (suite_exponent_counts, 10),
        (suite_subcubic, 15),
        (suite_digon_cone, 15),
        (suite_count_invariance, 4),
    )
    results = []
    for suite, trials in suites:
        start = time.perf_counter()
        result = suite(rng, trials * scale)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return tuple(results)
