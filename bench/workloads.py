"""The four workloads: seeded request rounds, the timed calls, the checks.

A workload is a list of rounds.  Round r of seed s is made by
``make_round(s, r, workdir)`` from the seed alone, mostly through
``random.Random(f"<workload>:<s>:<r>")``, so the same seed gives the same
inputs, and every round has the same mix of request kinds, so runs that
end after a different number of rounds still measure the same mix.  Each
request carries

- ``inputs``: a JSON description of what it asks (graphs as [V, edges]);
- ``call``: the timed call into flowcont, looked up through the module at
  call time so that a traced run sees its wrappers;
- ``summarize``: turns the raw result into a JSON answer, outside the
  timed region.

``check(kind, inputs, answer)`` compares an answer with the reference
routes in ``reference.py`` and returns None or the reason it is wrong.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import flowcont
import flowcont.cli
import reference

GROUPS = ("Z", "Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ3", "Z2xZ4", "ZxZ2")


@dataclass
class Request:
    kind: str
    inputs: dict
    call: Callable[[], object]
    summarize: Callable[[object], dict]


# ---------------------------------------------------------------- graphs


def random_connected(rng, vertex_count, edge_count, loops=True):
    """A random tree plus random extra edges (parallels allowed, loops
    optional), with vertices relabelled and edges shuffled."""
    edges = []
    for x in range(1, vertex_count):
        y = rng.randrange(x)
        edges.append((x, y) if rng.random() < 0.5 else (y, x))
    while len(edges) < edge_count:
        t, h = rng.randrange(vertex_count), rng.randrange(vertex_count)
        if loops or t != h:
            edges.append((t, h))
    return _relabel(rng, vertex_count, edges)


def _relabel(rng, vertex_count, edges):
    names = list(range(vertex_count))
    rng.shuffle(names)
    edges = [(names[t], names[h]) for t, h in edges]
    rng.shuffle(edges)
    return vertex_count, tuple(edges)


def subdivided_copy(rng, target, edge_count):
    """A source that subdivides target edges until it has edge_count edges,
    with vertices and edges permuted, and the map sending each source edge
    to the target edge it came from.  That map is FF_Z: a flow on the
    target pulls back to the same value all along each subdivided path."""
    vertex_count, target_edges = target
    pieces = [(t, h, j) for j, (t, h) in enumerate(target_edges)]
    while len(pieces) < edge_count:
        k = rng.randrange(len(pieces))
        t, h, j = pieces[k]
        pieces[k : k + 1] = [(t, vertex_count, j), (vertex_count, h, j)]
        vertex_count += 1
    names = list(range(vertex_count))
    rng.shuffle(names)
    rng.shuffle(pieces)
    edges = tuple((names[t], names[h]) for t, h, _ in pieces)
    return (vertex_count, edges), tuple(j for _, _, j in pieces)


def graft_digon_on_dicycle(rng, source, target, assignment, k):
    """Attach digon(k) to the last source vertex and dicycle(k) to a target
    vertex, mapping the digon's edges onto the cycle in order.  The two
    attached blocks share only a cut vertex with the rest, so the gcd
    becomes gcd(old gcd, k).  Only the digon's rows can fail, so the first
    failing row is the last but one and the certificate search always
    reads the whole matrix, whatever the seed."""
    (sv, s_edges), (tv, t_edges) = source, target
    a, b = sv - 1, rng.randrange(tv)
    digon = [(a, sv)] * k
    cycle_vertices = [b] + list(range(tv, tv + k - 1))
    cycle = [(cycle_vertices[i], cycle_vertices[(i + 1) % k]) for i in range(k)]
    new_assignment = assignment + tuple(len(t_edges) + i for i in range(k))
    return (sv + 1, s_edges + tuple(digon)), (tv + k - 1, t_edges + tuple(cycle)), new_assignment


def graph_text(graph):
    vertex_count, edges = graph
    return f"{vertex_count} {len(edges)}\n" + "".join(f"{t} {h}\n" for t, h in edges)


def as_graph(graph):
    return flowcont.MultiDigraph(graph[0], graph[1])


def as_pair(g):
    return g.vertex_count, g.edges


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------- check

# a midpoint grid, log-uniform from 50 to 1000 source edges.  With an odd
# number of sizes the round's median request is the middle size, and the
# 90th percentile falls among the second largest; both always take an
# FF_Z map, so that their cost does not change with the family.
CHECK_SIZES = tuple(round(50 * 20 ** ((k + 0.5) / 13)) for k in range(13))
CHECK_FAMILIES = ("random", "ffz", "gcdk")
CHECK_FFZ_ONLY = (len(CHECK_SIZES) // 2, len(CHECK_SIZES) - 2)


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = flowcont.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buffer.getvalue()


def _cli_answer(raw):
    code, text = raw
    return {"exit": code, "output": json.loads(text)}


def check_round(seed, r, workdir):
    rng = random.Random(f"check:{seed}:{r}")
    requests = []
    for k, edge_count in enumerate(CHECK_SIZES):
        family = "ffz" if k in CHECK_FFZ_ONLY else CHECK_FAMILIES[(k + r) % len(CHECK_FAMILIES)]
        if family == "random":
            group = rng.choice(GROUPS)
            source = random_connected(rng, max(2, edge_count // 6), edge_count)
            target_edges = round(0.6 * edge_count)
            target = random_connected(rng, max(2, target_edges // 6), target_edges)
            assignment = tuple(rng.randrange(target_edges) for _ in range(edge_count))
        else:
            k_graft = rng.choice((2, 3, 4, 6)) if family == "gcdk" else 0
            # a yes costs one discrepancy evaluation less than a no, so
            # grafted maps alternate between the two in a fixed pattern
            want_yes = family == "ffz" or (k // 3 + r) % 2 == 0
            group = rng.choice([m for m in GROUPS if _divides(reference.group_exponent(m), k_graft) == want_yes])
            target_edges = round(0.6 * (edge_count - k_graft))
            target = random_connected(rng, max(2, target_edges // 6), target_edges)
            source, assignment = subdivided_copy(rng, target, edge_count - k_graft)
            if k_graft:
                source, target, assignment = graft_digon_on_dicycle(rng, source, target, assignment, k_graft)
        paths = [os.path.join(workdir, f"{k}.{ext}") for ext in ("g", "h", "map")]
        _write(paths[0], graph_text(source))
        _write(paths[1], graph_text(target))
        _write(paths[2], "".join(f"{j}\n" for j in assignment))
        argv = ["--json", "check", "--g", paths[0], "--h", paths[1], "--map", paths[2], "--group", group]
        inputs = {"family": family, "group": group, "source": source, "target": target, "map": assignment}
        requests.append(Request("check", inputs, lambda argv=argv: _run_cli(argv), _cli_answer))
    return requests


def check_cli_check(inputs, answer):
    n = reference.group_exponent(inputs["group"])
    g, first = reference.discrepancy_summary(inputs["source"][1], inputs["target"], inputs["map"], n)
    ff = first is None
    expected = {"status": "yes" if ff else "no", "group": inputs["group"], "gcd": g, "ff": ff}
    if not ff:
        v, c, value = first
        expected["certificate"] = {"vertex": v, "circuit": c, "value": value, "modulus": n}
    wanted_exit = 0 if ff else 1
    if answer["exit"] != wanted_exit:
        return f"exit {answer['exit']}, expected {wanted_exit}"
    if answer["output"] != expected:
        return f"output {answer['output']}, expected {expected}"
    return None


# ---------------------------------------------------------------- scan

# (operation, source vertices, source edges, target).  "pool<i>" is the
# run's i-th recurring small random target.  Sources are loopless: a loop
# adds nothing to any discrepancy row, so a random number of loops made
# the cost of a class swing from seed to seed.  The k4, digon3 and digon5
# ff_set_of_graphs classes fall on the direct side of its switch, the
# digon7 one on the merged side; count_ff_maps always takes the merged
# route and subcubic_equivalence_check the direct one.  Six classes are
# faster and six slower than the three ffset k4 requests with six edges,
# whose cost is fixed by the size of their map space, so the round's
# median request is one of those; the two direct k4 scans with five source
# vertices are the slowest and hold the 90th percentile.
SCAN_CLASSES = (
    ("ffset", 3, 8, "digon3"),
    ("ffset", 2, 6, "digon5"),
    ("ffset", 3, 6, "pool0"),
    ("count", 2, 6, "digon4"),
    ("count", 3, 5, "pool1"),
    ("subcubic", 4, 5, "pool2"),
    ("ffset", 3, 6, "k4"),
    ("ffset", 3, 6, "k4"),
    ("ffset", 3, 6, "k4"),
    ("subcubic", 5, 6, "k4"),
    ("count", 3, 6, "k4"),
    ("ffset", 2, 8, "digon7"),
    ("count", 2, 8, "digon7"),
    ("ffset", 5, 7, "k4"),
    ("ffset", 5, 7, "k4"),
)
SCAN_GROUPS = ("Z", "Z2", "Z3", "Z4", "Z6", "Z2xZ2")
SUBCUBIC_MODULI = (4, 5)
# (vertices, edges) of the pool graphs: cyclomatic number 3 or 4
POOL_SHAPES = ((3, 5), (3, 6), (4, 7))


def scan_pool(seed):
    rng = random.Random(f"scan-pool:{seed}")
    return [random_connected(rng, v, e, loops=False) for v, e in POOL_SHAPES]


def _scan_target(name, pool):
    if name == "k4":
        return as_pair(flowcont.k4())
    if name.startswith("digon"):
        return as_pair(flowcont.digon(int(name[5:])))
    return pool[int(name[4:])]


def _subcubic_source(rng, vertex_count, edge_count):
    """Connected, loopless, every degree at most 3."""
    while True:
        edges = list(random_connected(rng, vertex_count, vertex_count - 1)[1])
        degree = [0] * vertex_count
        for t, h in edges:
            degree[t] += 1
            degree[h] += 1
        if max(degree) > 3:
            continue
        for _ in range(50 * edge_count):
            if len(edges) == edge_count:
                return _relabel(rng, vertex_count, edges)
            t, h = rng.randrange(vertex_count), rng.randrange(vertex_count)
            if t != h and degree[t] < 3 and degree[h] < 3:
                edges.append((t, h))
                degree[t] += 1
                degree[h] += 1


def scan_round(seed, r, workdir):
    rng = random.Random(f"scan:{seed}:{r}")
    pool = scan_pool(seed)
    requests = []
    for operation, vertex_count, edge_count, target_name in SCAN_CLASSES:
        target = _scan_target(target_name, pool)
        if operation == "subcubic":
            source = _subcubic_source(rng, vertex_count, edge_count)
        else:
            source = random_connected(rng, vertex_count, edge_count, loops=False)
        inputs = {"source": source, "target": target}
        g, h = as_graph(source), as_graph(target)
        if operation == "ffset":
            call = lambda g=g, h=h: flowcont.ffsets.ff_set_of_graphs(g, h)
            summarize = _ffset_answer
        elif operation == "count":
            inputs["group"] = rng.choice(SCAN_GROUPS)
            m = flowcont.parse_group(inputs["group"])
            call = lambda g=g, h=h, m=m: flowcont.ffsets.count_ff_maps(g, h, m)
            summarize = lambda count: {"count": count}
        else:
            inputs["moduli"] = list(SUBCUBIC_MODULI)
            call = lambda g=g, h=h: flowcont.ffsets.subcubic_equivalence_check(g, h, SUBCUBIC_MODULI)
            summarize = _subcubic_answer
        requests.append(Request(operation, inputs, call, summarize))
    _write(os.path.join(workdir, "round.json"), json.dumps([q.inputs for q in requests]))
    return requests


def _ffset_answer(ff_set):
    return {"all_of_n": ff_set.all_of_n, "maximal": sorted(ff_set.maximal_elements)}


def _subcubic_answer(report):
    return {
        "maps_checked": report.maps_checked,
        "moduli": list(report.moduli),
        "violations": report.violation_count,
        "samples": len(report.sample_violations),
    }


def check_ffset(inputs, answer):
    all_of_n, maximal = reference.ff_set_from_gcds(reference.gcd_histogram(inputs["source"], inputs["target"]))
    expected = {"all_of_n": all_of_n, "maximal": maximal}
    return None if answer == expected else f"{answer}, expected {expected}"


def _divides(n, g):
    return g == 0 if n == 0 else g % n == 0


def check_count(inputs, answer):
    n = reference.group_exponent(inputs["group"])
    histogram = reference.gcd_histogram(inputs["source"], inputs["target"])
    expected = {"count": sum(c for g, c in histogram.items() if _divides(n, g))}
    return None if answer == expected else f"{answer}, expected {expected}"


def check_subcubic(inputs, answer):
    histogram = reference.gcd_histogram(inputs["source"], inputs["target"])
    moduli = inputs["moduli"]
    violations = sum(c for n in moduli for g, c in histogram.items() if (g % n == 0) != (g == 0))
    expected = {
        "maps_checked": len(inputs["target"][1]) ** len(inputs["source"][1]),
        "moduli": moduli,
        "violations": violations,
        "samples": min(32, violations),
    }
    return None if answer == expected else f"{answer}, expected {expected}"


# ---------------------------------------------------------------- witness

# The small general pairs are one fixed list, run in an order each seed
# sets.  Their searches take from a few nodes to tens of thousands, so
# pairs drawn afresh per seed moved the median request time by a third
# from seed to seed.
WITNESS_RANDOM_PAIRS = 30


def _search_answer(outcome):
    witness = outcome.witness
    return {
        "status": outcome.status,
        "witness": list(witness.assignment) if witness is not None else None,
        "nodes": outcome.nodes,
    }


def _search(source, target, n, kind="search"):
    g, h = as_graph(source), as_graph(target)
    inputs = {"source": source, "target": target, "n": n}
    return Request(kind, inputs, lambda: flowcont.ffsets.exists_ff_map(g, h, n), _search_answer)


def small_search_pairs():
    """(source, target, n) for the fixed small general pairs: early finds,
    late finds and nones, in map spaces of at most 6**7 maps.  Half of
    them take a millisecond or more, so the round's median request is
    not one of the sub-millisecond searches, whose times jitter by a
    quarter from run to run."""
    rng = random.Random("witness-pairs")
    k4 = as_pair(flowcont.k4())
    pairs = []
    for _ in range(WITNESS_RANDOM_PAIRS):
        source = random_connected(rng, rng.randint(4, 5), rng.randint(6, 7))
        if rng.random() < 0.4:
            target = k4
        else:
            target = random_connected(rng, rng.randint(3, 4), rng.randint(4, 5))
        pairs.append((source, target, rng.choice((0, 2, 3))))
    return pairs


def witness_round(seed, r, workdir):
    rng = random.Random(f"witness:{seed}:{r}")
    k4, petersen = as_pair(flowcont.k4()), as_pair(flowcont.petersen())
    requests = [
        _search(k4, petersen, 2),  # found after a few hundred nodes
        _search(k4, petersen, 3),  # none, after thousands
        _search(petersen, k4, 2),  # none, after about half a million
    ]
    pairs = small_search_pairs()
    rng.shuffle(pairs)
    requests += [_search(*pair) for pair in pairs]

    # digon unions from build_witness: the cone route, then an ff_gcd recheck
    # over thousands of edges whenever a map is found
    large = rng.randint(290, 300)
    middle, small = rng.randint(140, 150), rng.randint(40, 60)
    for targets, n in (
        ([large], large),
        ([middle, small], small),
        ([middle, small], middle + 1),
        ([small], 0),
        ([small], reference.divisors(small)[-2]),
    ):
        g, h, _ = flowcont.build_witness(targets)
        requests.append(_search(as_pair(g), as_pair(h), n, kind="digon_search"))

    # three constructions of about the same size, each slower than every
    # small search, hold the 90th percentile of the round, which would
    # otherwise fall in a gap between classes
    for targets in (
        [rng.randint(430, 450)],
        [rng.randint(430, 450)],
        [rng.randint(430, 450)],
        [middle, small],
        rng.sample(range(20, 40), 3),
        [small],
    ):
        requests.append(
            Request(
                "construct",
                {"targets": targets},
                lambda targets=targets: _build_and_verify(targets),
                _construct_answer,
            )
        )
    _write(os.path.join(workdir, "round.json"), json.dumps([q.inputs for q in requests]))
    return requests


def _build_and_verify(targets):
    g, h, plan = flowcont.constructions.build_witness(targets)
    return g, h, plan, flowcont.constructions.verify_witness(plan)


def _ff_set_pair(ff_set):
    return [ff_set.all_of_n, sorted(ff_set.maximal_elements)]


def _construct_answer(raw):
    g, h, plan, report = raw
    return {
        "source": reference.digon_multiplicities(g.vertex_count, g.edges),
        "target": reference.digon_multiplicities(h.vertex_count, h.edges),
        "plan": plan.to_json(),
        "passed": report.passed,
        "computed": _ff_set_pair(report.computed),
        "expected": _ff_set_pair(report.expected),
    }


def _check_found(inputs, answer):
    witness, n = answer["witness"], inputs["n"]
    if witness is None or len(witness) != len(inputs["source"][1]):
        return "found without a complete witness"
    if not all(0 <= j < len(inputs["target"][1]) for j in witness):
        return "witness maps outside the target"
    g, _ = reference.discrepancy_summary(inputs["source"][1], inputs["target"], witness, n)
    return None if _divides(n, g) else f"witness has gcd {g}, not FF_{n}"


def check_search(inputs, answer):
    if answer["status"] == "found":
        return _check_found(inputs, answer)
    if answer["status"] == "none":
        exists = reference.exists_ff(inputs["source"], inputs["target"], inputs["n"])
        return "none, but an FF map exists" if exists else None
    return f"status {answer['status']}"


def check_digon_search(inputs, answer):
    if answer["status"] == "found":
        return _check_found(inputs, answer)
    if answer["status"] == "none":
        n = inputs["n"]
        generators = reference.digon_multiplicities(*inputs["target"]) + ([n] if n else [])
        exists = all(reference.in_cone(a, generators) for a in reference.digon_multiplicities(*inputs["source"]))
        return "none, but an FF map exists" if exists else None
    return f"status {answer['status']}"


def check_construct(inputs, answer):
    plan = answer["plan"]
    maximal = reference.maximal_under_divisibility(inputs["targets"])
    if plan["targets"] != maximal:
        return f"plan targets {plan['targets']}, expected {maximal}"
    if answer["source"] != sorted(plan["source_digons"]) or answer["target"] != sorted(plan["target_digons"]):
        return "graphs do not match the plan's digons"
    computed = list(reference.digon_ff_set(answer["source"], answer["target"]))
    if answer["computed"] != computed:
        return f"computed {answer['computed']}, reference {computed}"
    if answer["expected"] != [False, maximal] or computed != [False, maximal] or not answer["passed"]:
        return f"set {computed} is not the divisor closure of {maximal}"
    return None


# ---------------------------------------------------------------- selftest

# trial counts run_selftest uses without --deep, and the checks each makes
SUITE_TRIALS = {
    "suite_flow_span": (30, lambda t: t),
    "suite_oracle_agreement": (40, lambda t: 6 * t),
    "suite_product_law": (20, lambda t: 4 * t),
    "suite_exponent_counts": (10, lambda t: 3 * t),
    "suite_subcubic": (15, lambda t: t),
    "suite_digon_cone": (15, lambda t: t),
    "suite_count_invariance": (4, lambda t: 6 + t),
}
# A round runs count-invariance once and every other suite three times:
# count-invariance counts the Petersen graph's flows on every call and
# costs about as much as the other eighteen calls together.  Suite seeds
# come from one fixed list per suite, dealt over SELFTEST_ROUNDS rounds in
# an order the run's seed sets: a suite's cost swings tenfold with its
# seed (digon-cone from 0.05 s to 2 s), so seeds drawn afresh per run
# moved every metric by a third.
SELFTEST_REPEATS = 3
SELFTEST_ROUNDS = 6


def selftest_round(seed, r, workdir):
    deal = random.Random(f"selftest:{seed}")
    k = r % SELFTEST_ROUNDS
    plan = []
    for name, (trials, _) in SUITE_TRIALS.items():
        per_round = 1 if name == "suite_count_invariance" else SELFTEST_REPEATS
        seeds = [flowcont.selftest.DEFAULT_SEED + i for i in range(per_round * SELFTEST_ROUNDS)]
        deal.shuffle(seeds)
        plan += [(name, suite_seed, trials) for suite_seed in seeds[k * per_round : (k + 1) * per_round]]
    random.Random(f"selftest:{seed}:{r}").shuffle(plan)
    requests = []
    for name, suite_seed, trials in plan:
        call = lambda name=name, suite_seed=suite_seed, trials=trials: getattr(flowcont.selftest, name)(
            random.Random(suite_seed), trials
        )
        inputs = {"suite": name, "seed": suite_seed, "trials": trials}
        requests.append(Request("suite", inputs, call, _suite_answer))
    _write(os.path.join(workdir, "round.json"), json.dumps([q.inputs for q in requests]))
    return requests


def _suite_answer(result):
    return {"checks": result.checks, "failures": list(result.failures)}


def check_suite(inputs, answer):
    expected = {"checks": SUITE_TRIALS[inputs["suite"]][1](inputs["trials"]), "failures": []}
    return None if answer == expected else f"{answer}, expected {expected}"


# ----------------------------------------------------------------

WORKLOADS = {
    "check": check_round,
    "scan": scan_round,
    "witness": witness_round,
    "selftest": selftest_round,
}

CHECKERS = {
    "check": check_cli_check,
    "ffset": check_ffset,
    "count": check_count,
    "subcubic": check_subcubic,
    "search": check_search,
    "digon_search": check_digon_search,
    "construct": check_construct,
    "suite": check_suite,
}


def check(kind, inputs, answer):
    return CHECKERS[kind](inputs, answer)

