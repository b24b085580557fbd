"""Tests of the benchmark itself: inputs, checkers, references, spans.

    python3 -m pytest bench/tests
"""

import collections
import copy
import itertools
import json
import os
import random
import time

import pytest

import flowcont
import reference
import spans
import workloads
from flowcont.constructions import DigonFamily, ff_set_digons
from flowcont.decide import EdgeMap, ff_gcd, is_ff_n

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "BENCHMARK.json")


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    make_round = workloads.WORKLOADS[name]
    dirs = [tmp_path / label for label in ("a", "b", "other")]
    for d in dirs:
        d.mkdir()
    first = make_round(7, 1, str(dirs[0]))
    again = make_round(7, 1, str(dirs[1]))
    other = make_round(8, 1, str(dirs[2]))
    assert _files(dirs[0]) and _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])
    assert [q.inputs for q in first] == [q.inputs for q in again]
    assert [q.inputs for q in first] != [q.inputs for q in other]


def _answered(request):
    answer = request.summarize(request.call())
    assert workloads.check(request.kind, request.inputs, answer) is None
    return answer


def _flagged(request, answer):
    return workloads.check(request.kind, request.inputs, answer) is not None


def test_checker_flags_wrong_check_answers(tmp_path):
    # the three smallest pairs of round 0 are one of each map family
    for request in workloads.check_round(5, 0, str(tmp_path))[:3]:
        answer = _answered(request)
        wrong_gcd = copy.deepcopy(answer)
        wrong_gcd["output"]["gcd"] += 1
        wrong_exit = copy.deepcopy(answer)
        wrong_exit["exit"] = 1 - answer["exit"]
        wrong_status = copy.deepcopy(answer)
        wrong_status["output"]["status"] = "no" if answer["output"]["status"] == "yes" else "yes"
        for wrong in (wrong_gcd, wrong_exit, wrong_status):
            assert _flagged(request, wrong)
        if "certificate" in answer["output"]:
            moved = copy.deepcopy(answer)
            moved["output"]["certificate"]["circuit"] += 1
            assert _flagged(request, moved)


def test_checker_flags_wrong_scan_answers(tmp_path):
    requests = workloads.scan_round(5, 0, str(tmp_path))
    # the first request of each kind is one of the cheap classes
    ffset, count, subcubic = (next(q for q in requests if q.kind == kind) for kind in ("ffset", "count", "subcubic"))
    answer = _answered(ffset)
    assert _flagged(ffset, dict(answer, all_of_n=not answer["all_of_n"]))
    assert _flagged(ffset, dict(answer, maximal=answer["maximal"] + [97]))
    answer = _answered(count)
    assert _flagged(count, {"count": answer["count"] + 1})
    answer = _answered(subcubic)
    assert _flagged(subcubic, dict(answer, violations=answer["violations"] + 1))
    assert _flagged(subcubic, dict(answer, maps_checked=answer["maps_checked"] - 1))


def test_checker_flags_wrong_witness_answers(tmp_path):
    requests = workloads.witness_round(5, 0, str(tmp_path))
    searches = [q for q in requests if q.kind == "search"][3:]
    statuses = set()
    for request in searches:
        answer = _answered(request)
        statuses.add(answer["status"])
        edges = len(request.inputs["source"][1])
        if answer["status"] == "found":
            assert _flagged(request, dict(answer, status="none", witness=None))
        else:
            assert _flagged(request, dict(answer, status="found", witness=[0] * edges))
        assert _flagged(request, dict(answer, status="unknown", witness=None))
    assert statuses == {"found", "none"}

    cheap_digons = [q for q in requests if q.kind == "digon_search" and q.inputs["n"] == 0]
    for request in cheap_digons:
        answer = _answered(request)
        assert answer["status"] == "none"
        edges = len(request.inputs["source"][1])
        assert _flagged(request, dict(answer, status="found", witness=[0] * edges))

    construct = [q for q in requests if q.kind == "construct"][-1]
    answer = _answered(construct)
    assert _flagged(construct, dict(answer, computed=[True, []]))
    assert _flagged(construct, dict(answer, passed=False))
    assert _flagged(construct, dict(answer, source=answer["source"][:1]))


def test_checker_flags_wrong_selftest_answers(tmp_path):
    request = next(q for q in workloads.selftest_round(5, 0, str(tmp_path)) if q.inputs["suite"] == "suite_subcubic")
    answer = _answered(request)
    assert _flagged(request, dict(answer, checks=answer["checks"] + 1))
    assert _flagged(request, dict(answer, failures=["trial 0: 1 violations"]))


def _small_graph(rng):
    vertex_count = rng.randint(1, 3)
    return workloads.random_connected(rng, vertex_count, vertex_count - 1 + rng.randint(0, 2))


def _all_map_gcds(g, h):
    source, target = workloads.as_graph(g), workloads.as_graph(h)
    return collections.Counter(
        ff_gcd(EdgeMap(source, target, a)) for a in itertools.product(range(len(h[1])), repeat=len(g[1]))
    )


def test_gcd_histogram_matches_per_map_ff_gcd():
    rng = random.Random(11)
    for _ in range(60):
        g, h = _small_graph(rng), _small_graph(rng)
        assert reference.gcd_histogram(g, h) == dict(_all_map_gcds(g, h))
    assert reference.gcd_histogram((2, ((0, 1),)), (1, ())) == {}
    assert reference.gcd_histogram((1, ()), (1, ((0, 0),))) == {0: 1}


def test_exists_ff_matches_per_map_ff_gcd():
    rng = random.Random(12)
    for _ in range(60):
        g, h = _small_graph(rng), _small_graph(rng)
        gcds = _all_map_gcds(g, h)
        for n in (0, 2, 3):
            expected = any((x == 0) if n == 0 else (x % n == 0) for x in gcds)
            assert reference.exists_ff(g, h, n) == expected


def test_discrepancy_summary_matches_library_certificates():
    rng = random.Random(13)
    for _ in range(40):
        g = workloads.random_connected(rng, rng.randint(2, 12), rng.randint(12, 40))
        h = workloads.random_connected(rng, rng.randint(2, 8), rng.randint(8, 25))
        assignment = tuple(rng.randrange(len(h[1])) for _ in g[1])
        f = EdgeMap(workloads.as_graph(g), workloads.as_graph(h), assignment)
        for n in (0, 2, 3, 6):
            gcd_value, first = reference.discrepancy_summary(g[1], h, assignment, n)
            assert gcd_value == ff_gcd(f)
            ok, certificate = is_ff_n(f, n)
            assert ok == (first is None)
            if certificate is not None:
                assert first == (certificate.vertex, certificate.circuit, certificate.value)


def test_check_families_have_the_gcd_they_are_built_for():
    rng = random.Random(14)
    for _ in range(10):
        target = workloads.random_connected(rng, 6, 20)
        source, assignment = workloads.subdivided_copy(rng, target, 33)
        assert len(source[1]) == 33
        assert reference.discrepancy_summary(source[1], target, assignment, 0)[0] == 0
        k = rng.choice((2, 3, 4, 6))
        grafted = workloads.graft_digon_on_dicycle(rng, source, target, assignment, k)
        f = EdgeMap(workloads.as_graph(grafted[0]), workloads.as_graph(grafted[1]), grafted[2])
        assert ff_gcd(f) == k


def test_digon_ff_set_matches_library():
    rng = random.Random(15)
    for _ in range(30):
        a = rng.sample(range(1, 30), rng.randint(1, 3))
        b = rng.sample(range(1, 30), rng.randint(1, 3))
        library = ff_set_digons(DigonFamily(frozenset(a)), DigonFamily(frozenset(b)))
        assert reference.digon_ff_set(a, b) == (library.all_of_n, sorted(library.maximal_elements))
    for value in range(60):
        assert reference.in_cone(value, [7, 11]) == flowcont.cone_member(value, [7, 11])


def _traced_requests(tmp_path):
    check = workloads.check_round(5, 0, str(tmp_path))[:3]
    scan = workloads.scan_round(5, 0, str(tmp_path))
    witness = workloads.witness_round(5, 0, str(tmp_path))
    suites = workloads.selftest_round(5, 0, str(tmp_path))
    return (
        check
        + [next(q for q in scan if q.kind == kind) for kind in ("ffset", "count", "subcubic")]
        + [q for q in witness if q.kind == "search"][3:8]
        + [witness[-1]]
        + [next(q for q in suites if q.inputs["suite"] == name) for name in ("suite_subcubic", "suite_flow_span")]
    )


def test_traced_self_times_fit_inside_each_request(tmp_path):
    requests = _traced_requests(tmp_path)
    originals = (flowcont.decide.circuit_matrix, flowcont.flows.circuit_matrix, flowcont.cli.main)
    tracer = spans.Tracer()
    tracer.install(flowcont)
    walls = []
    try:
        for i, request in enumerate(requests):
            tracer.request = i
            start = time.perf_counter_ns()
            request.call()
            walls.append(time.perf_counter_ns() - start)
    finally:
        tracer.uninstall()
    assert (flowcont.decide.circuit_matrix, flowcont.flows.circuit_matrix, flowcont.cli.main) == originals

    by_id = {s[spans.ID]: s for s in tracer.spans}
    for i, wall in enumerate(walls):
        own = [s for s in tracer.spans if s[spans.REQUEST] == i]
        assert own
        assert all(spans.self_ns(s) >= 0 for s in own)
        assert sum(spans.self_ns(s) for s in own) <= wall
    # a call made through decide's own import of circuit_matrix nests under discrepancy
    nested = [
        s for s in tracer.spans
        if s[spans.NAME] == "flows.circuit_matrix" and by_id[s[spans.PARENT]][spans.NAME] == "decide.discrepancy"
    ]
    assert nested
    assert any(s[spans.NAME] == "flows.enumerate_flows" and s[spans.ATTRS]["yielded"] > 0 for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    per_layer = spans.per_layer_metrics([], [1.0], 0.0)
    assert sorted(per_layer) == sorted(m["name"] for m in declared["per_layer"])
    for m in declared["per_layer"]:
        assert per_layer[m["name"]][1] == m["unit"]
    assert set(declared["paths"]) == {"bench"}
    assert [w["name"] for w in declared["workloads"]] == ["check", "scan", "witness", "selftest"]
