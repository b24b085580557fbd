"""End-to-end acceptance checks, one test per criterion.

Each test times itself, records a single pass/fail line (shown in the
terminal summary), and asserts both the result and the time bound.
Frozen values here were produced by the definitional oracle once and
are never recomputed from the code under test.
"""

import itertools
import json
import random
import time

from conftest import record_acceptance

from flowcont import cli
from flowcont.algebra import direct_product, divisors, exponent, parse_group
from flowcont.constructions import DigonFamily, ff_set_digons
from flowcont.decide import (
    EdgeMap,
    ff_gcd,
    index_bijection,
    is_ff_n,
    is_ff_z,
    oracle_count_ff_maps,
    oracle_is_ff_group,
    refuting_flows,
)
from flowcont.ffsets import FFSet, exists_ff_map, ff_set_of_graphs, gcd_histogram, subcubic_equivalence_check
from flowcont.flows import count_nowhere_zero_flows
from flowcont.graphs import digon, dicycle, k4, loop, petersen
from flowcont.selftest import random_edge_map, random_multidigraph

K4_COLORING = (0, 1, 2, 2, 1, 0)


def finish(number: int, ok: bool, bound: float, elapsed: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    record_acceptance(f"criterion {number:02d} {verdict}: {detail} ({elapsed:.2f} s)")
    assert ok, detail
    assert elapsed < bound, f"took {elapsed:.2f} s, bound {bound} s"


def test_criterion_01_triangle_bijection():
    start = time.monotonic()
    f = index_bijection(digon(3), dicycle(3))
    ff3 = is_ff_n(f, 3)[0]
    ff2 = is_ff_n(f, 2)[0]
    ffz = is_ff_z(f)
    ok = ff3 and not ff2 and not ffz and ff_gcd(f) == 3
    finish(1, ok, 1.0, time.monotonic() - start,
           "digon(3)->dicycle(3) bijection: mod 3 yes, mod 2 no, exact no")


def test_criterion_02_coloring_map():
    start = time.monotonic()
    f = EdgeMap(k4(), digon(3), K4_COLORING)
    ff2 = is_ff_n(f, 2)[0]
    ff3 = is_ff_n(f, 3)[0]
    z3 = parse_group("Z3")
    all_ones = ((1,), (1,), (1,))
    witnessed = all_ones in refuting_flows(f, z3)
    oracle_rejects = not oracle_is_ff_group(f, z3)
    ok = ff2 and not ff3 and witnessed and oracle_rejects
    finish(2, ok, 1.0, time.monotonic() - start,
           "k4 coloring map: mod 2 yes, mod 3 refuted by the all-ones flow")


def test_criterion_03_digon_nine_seven():
    start = time.monotonic()
    two = exists_ff_map(digon(9), digon(7), 2)
    three = exists_ff_map(digon(9), digon(7), 3)
    six = exists_ff_map(digon(9), digon(7), 6)
    members = ff_set_digons(DigonFamily(frozenset({9})), DigonFamily(frozenset({7}))).members()
    ok = (
        two.status == "found" and ff_gcd(two.witness) % 2 == 0
        and three.status == "found" and ff_gcd(three.witness) % 3 == 0
        and six.status == "none"
        and members == (1, 2, 3, 9)
    )
    finish(3, ok, 10.0, time.monotonic() - start,
           "digon(9)->digon(7): witnesses for 2 and 3, none for 6, set {1,2,3,9}")


def test_criterion_04_divisibility_structure():
    start = time.monotonic()
    rng = random.Random(20260823)
    ok = True
    checks = 0
    for _ in range(200):
        g = random_multidigraph(rng, max_vertices=4, max_edges=6)
        h = random_multidigraph(rng, max_vertices=4, max_edges=5,
                                max_cyclomatic=rng.randint(1, 3))
        if h.num_edges == 0 and g.num_edges > 0:
            h = digon(2)
        f = random_edge_map(rng, g, h)
        gcd_value = ff_gcd(f)
        for n in range(1, 13):
            claimed = is_ff_n(f, n)[0]
            agree = claimed == (gcd_value % n == 0)
            agree = agree and claimed == oracle_is_ff_group(f, parse_group(f"Z{n}"))
            checks += 1
            if not agree:
                ok = False
    finish(4, ok, 60.0, time.monotonic() - start,
           f"divisibility law and oracle agreement on {checks} decisions")


def test_criterion_05_exponent_reduction():
    start = time.monotonic()
    factor_pairs = [("Z2", "Z2"), ("Z2", "Z4"), ("Z2", "Z3"), ("Z3", "Z3")]
    rng = random.Random(5050)
    ok = True
    checks = 0
    for _ in range(50):
        g = random_multidigraph(rng, max_vertices=3, max_edges=4)
        h = random_multidigraph(rng, max_vertices=3, max_edges=3, max_cyclomatic=2)
        if h.num_edges == 0 and g.num_edges > 0:
            h = digon(2)
        f = random_edge_map(rng, g, h)
        for left_text, right_text in factor_pairs:
            left, right = parse_group(left_text), parse_group(right_text)
            m = direct_product(left, right)
            by_oracle = oracle_is_ff_group(f, m)
            by_exponent = is_ff_n(f, exponent(m))[0]
            split = oracle_is_ff_group(f, left) and oracle_is_ff_group(f, right)
            checks += 1
            if by_oracle != by_exponent or by_oracle != split:
                ok = False
    finish(5, ok, 60.0, time.monotonic() - start,
           f"exponent reduction and product law on {checks} product-group decisions")


def test_criterion_06_counts_depend_on_exponent_only():
    start = time.monotonic()
    # the second instance keeps the count nonzero, so the equality is
    # not just 0 == 0
    instances = [(digon(2), digon(3)), (digon(6), digon(2))]
    ok = True
    checked = 0
    for left_text, right_text in [("Z6", "Z2xZ3"), ("Z4", "Z2xZ4"), ("Z2", "Z2xZ2")]:
        left_group = parse_group(left_text)
        right_group = parse_group(right_text)
        for g, h in instances:
            left = oracle_count_ff_maps(g, h, left_group)
            right = oracle_count_ff_maps(g, h, right_group)
            checked += 1
            if left != right:
                ok = False
    nonzero = oracle_count_ff_maps(digon(6), digon(2), parse_group("Z6"))
    ok = ok and nonzero == 22
    finish(6, ok, 30.0, time.monotonic() - start,
           f"oracle map counts match across equal-exponent groups ({checked} pairings)")


def test_criterion_07_below_degree_equivalence():
    start = time.monotonic()
    report = subcubic_equivalence_check(k4(), k4(), range(4, 9))
    ok = report.passed and report.maps_checked == 46656 and report.violation_count == 0
    finish(7, ok, 60.0, time.monotonic() - start,
           f"k4->k4: mod-n vs exact agree for n in 4..8 over {report.maps_checked} maps")


def test_criterion_08_cone_equals_enumeration():
    start = time.monotonic()
    families = [
        frozenset(combo)
        for size in (1, 2)
        for combo in itertools.combinations(range(1, 6), size)
    ]
    ok = True
    pairs = 0
    for a in families:
        for b in families:
            pairs += 1
            by_cone = ff_set_digons(DigonFamily(a), DigonFamily(b))
            by_scan = FFSet.from_gcds(
                gcd_histogram(DigonFamily(a).graph(), DigonFamily(b).graph())
            )
            if by_cone != by_scan:
                ok = False
    finish(8, ok, 120.0, time.monotonic() - start,
           f"cone analysis equals exhaustive enumeration on {pairs} digon-family pairs")


def test_criterion_09_constructed_witnesses(tmp_path):
    target_sets = [[1], [2, 3], [4], [2, 5]]
    ok = True
    details = []
    worst = 0.0
    for targets in target_sets:
        start = time.monotonic()
        out_dir = tmp_path / "-".join(str(t) for t in targets)
        code = cli.main([
            "construct", "--t", ",".join(str(t) for t in targets), "--out", str(out_dir),
        ])
        record = json.loads((out_dir / "plan.json").read_text())
        expected = sorted({d for t in targets for d in divisors(t)})
        computed = record["ff_set"]
        realized = (
            computed["kind"] == "finite"
            and sorted(
                {d for m in computed["maximal_elements"] for d in divisors(m)}
            ) == expected
        )
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        if code != 0 or not record["verified"] or not realized or elapsed >= 10.0:
            ok = False
        details.append(f"{{{','.join(str(t) for t in targets)}}}")
    finish(9, ok, 10.0, worst,
           f"construct realizes the divisor closure for T in {', '.join(details)}")


def test_criterion_10_count_invariance_on_builtins():
    start = time.monotonic()
    z4 = parse_group("Z4")
    klein = parse_group("Z2xZ2")
    graphs = {
        "loop": loop(),
        "k4": k4(),
        "petersen": petersen(),
        "digon(2)": digon(2),
        "digon(3)": digon(3),
        "digon(4)": digon(4),
        "dicycle(2)": dicycle(2),
        "dicycle(3)": dicycle(3),
        "dicycle(5)": dicycle(5),
    }
    ok = True
    for name, g in graphs.items():
        a = count_nowhere_zero_flows(g, z4)
        b = count_nowhere_zero_flows(g, klein)
        if a != b:
            ok = False
    frozen = (
        count_nowhere_zero_flows(k4(), z4) == 6
        and count_nowhere_zero_flows(petersen(), z4) == 0
    )
    ok = ok and frozen
    finish(10, ok, 30.0, time.monotonic() - start,
           f"nowhere-zero counts agree for both order-4 groups on {len(graphs)} builtins")
