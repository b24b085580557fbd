"""Spans around the calls into each flowcont layer, recorded from outside.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper, in
the namespace of every flowcont module that holds it, so a call made
through ``from .flows import circuit_matrix`` inside ``decide`` is traced
as well and nested calls nest.  A span is (id, name, start, end, busy,
child, parent, request, attrs), times in integer nanoseconds so that
self time ``busy - child`` is exact.  For a plain call busy is end -
start; a generator's span adds up only the time spent inside its resumes.
Spans stay in memory until ``write`` is called.
"""

import functools
import importlib
import inspect
import math
import time

LAYERS = ("cli", "graphs", "flows", "decide", "ffsets", "constructions", "algebra", "selftest")

SUITES = (
    "suite_flow_span",
    "suite_oracle_agreement",
    "suite_product_law",
    "suite_exponent_counts",
    "suite_subcubic",
    "suite_digon_cone",
    "suite_count_invariance",
)

TRACED = {
    "cli": ("main",),
    "graphs": ("parse_digraph", "spanning_structure"),
    "flows": ("circuit_matrix", "incidence_matrix", "enumerate_flows"),
    "decide": ("discrepancy", "ff_gcd", "is_ff_n", "oracle_is_ff_group"),
    "ffsets": ("ff_set_of_graphs", "count_ff_maps", "subcubic_equivalence_check", "exists_ff_map"),
    "constructions": ("build_witness", "verify_witness", "ff_set_digons", "digon_union_witness"),
    "algebra": ("cone_member",),
    "selftest": SUITES,
}

SCANS = ("ffsets.ff_set_of_graphs", "ffsets.count_ff_maps", "ffsets.subcubic_equivalence_check")
GRAPH_BUILDERS = ("graphs.spanning_structure", "flows.incidence_matrix")

# span fields
ID, NAME, START, END, BUSY, CHILD, PARENT, REQUEST, ATTRS = range(9)


def _attrs_before(name, args):
    """Input facts recorded with a span: sizes and graph identities."""
    if name == "decide.discrepancy":
        return {"edges": args[0].source.num_edges}
    if name in SCANS:
        g, h = args[0], args[1]
        return {"maps": h.num_edges**g.num_edges}
    if name in GRAPH_BUILDERS:
        return {"graph": hash((args[0].vertex_count, args[0].edges))}
    return None


def _attrs_after(name, attrs, result):
    if name == "ffsets.exists_ff_map":
        return {"nodes": result.nodes}
    if name.startswith("selftest.suite_"):
        return {"checks": result.checks}
    return attrs


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        span = [self._next_id, name, 0, 0, 0, 0, parent[ID] if parent else -1, self.request, attrs]
        self._next_id += 1
        self.spans.append(span)
        return span

    def _enter(self, span):
        self._stack.append(span)
        return time.perf_counter_ns()

    def _leave(self, span, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        if not span[START]:
            span[START] = start
        span[END] = end
        span[BUSY] += end - start
        if self._stack:
            self._stack[-1][CHILD] += end - start

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                span = self._open(name, {"yielded": 0})
                start = self._enter(span)
                try:
                    inner = fn(*args, **kwargs)
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(span, start)
                while True:
                    span[ATTRS]["yielded"] += 1
                    yield value
                    start = self._enter(span)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(span, start)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, _attrs_before(name, args))
            start = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, start)
            span[ATTRS] = _attrs_after(name, span[ATTRS], result)
            return result

        return traced

    def install(self, package):
        """Wrap every function in TRACED wherever a flowcont module holds it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        for layer, names in TRACED.items():
            home = modules[1 + LAYERS.index(layer)]
            for short in names:
                original = getattr(home, short)
                wrapper = self.wrap(f"{layer}.{short}", original)
                for module in modules:
                    if getattr(module, short, None) is original:
                        setattr(module, short, wrapper)
                        self._patched.append((module, short, original))

    def uninstall(self):
        for module, short, original in reversed(self._patched):
            setattr(module, short, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tbusy_ns\tchild_ns\tparent\trequest\tattrs\n")
            for span in self.spans:
                handle.write("\t".join(str(x) for x in span) + "\n")


def self_ns(span):
    return span[BUSY] - span[CHILD]


def per_layer_metrics(spans, scales, overhead_share):
    """The per-layer metrics named in BENCHMARK.json, from one traced run.

    scales[i] is request i's calibration scale (see worker.py); times are
    calibrated with it.  Times and counts are per request unless the name
    says otherwise.  Spans of calls made while setting up a round, outside
    any request, are left out.
    """
    requests = max(1, len(scales))
    spans = [s for s in spans if s[REQUEST] is not None]
    self_total, calls, busy = {}, {}, {}
    for span in spans:
        name, scale = span[NAME], scales[span[REQUEST]]
        self_total[name] = self_total.get(name, 0) + self_ns(span) * scale
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + span[BUSY] * scale

    def per_request_s(name):
        return self_total.get(name, 0) / 1e9 / requests

    metrics = {}
    for layer, names in TRACED.items():
        for short in names:
            if layer != "selftest":
                metrics[f"{layer}.{short}.self_s"] = (per_request_s(f"{layer}.{short}"), "s")
    # every request's outermost call is traced, so self times add up to
    # the time spent inside flowcont
    all_self = sum(self_total.values())
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_total.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = (layer_self / all_self if all_self else 0.0, "share")

    metrics["graphs.spanning_structure.calls"] = (calls.get("graphs.spanning_structure", 0) / requests, "count")
    structures = [s for s in spans if s[NAME] == "graphs.spanning_structure"]
    distinct = len({s[ATTRS]["graph"] for s in structures})
    metrics["graphs.builds_per_distinct_graph"] = (len(structures) / distinct if distinct else 0.0, "count")
    metrics["graphs.repeat_share"] = (repeat_share(spans), "share")

    metrics["decide.discrepancy.calls_per_request"] = (calls.get("decide.discrepancy", 0) / requests, "count")
    metrics["decide.size_exponent"] = (size_exponent(spans, scales), "1")

    maps = sum(s[ATTRS]["maps"] for s in spans if s[NAME] in SCANS)
    scan_ns = sum(busy.get(name, 0) for name in SCANS)
    metrics["ffsets.maps_in_space"] = (maps / requests, "count")
    metrics["ffsets.maps_per_s"] = (maps / (scan_ns / 1e9) if scan_ns else 0.0, "1/s")
    searches = [s for s in spans if s[NAME] == "ffsets.exists_ff_map"]
    nodes = sum(s[ATTRS]["nodes"] for s in searches)
    metrics["ffsets.exists_ff_map.nodes"] = (nodes / len(searches) if searches else 0.0, "count")

    metrics["algebra.cone_member.calls"] = (calls.get("algebra.cone_member", 0) / requests, "count")
    yielded = sum(s[ATTRS]["yielded"] for s in spans if s[NAME] == "flows.enumerate_flows")
    metrics["flows.enumerate_flows.flows_yielded"] = (yielded / requests, "count")

    suite_checks = suite_ns = 0
    for suite in SUITES:
        name = f"selftest.{suite}"
        runs = calls.get(name, 0)
        metrics[f"{name}.s"] = (busy.get(name, 0) / 1e9 / runs if runs else 0.0, "s")
        suite_ns += busy.get(name, 0)
        suite_checks += sum(s[ATTRS]["checks"] for s in spans if s[NAME] == name)
    metrics["selftest.checks_per_s"] = (suite_checks / (suite_ns / 1e9) if suite_ns else 0.0, "1/s")
    metrics["trace.overhead_share"] = (overhead_share, "share")
    return metrics


def repeat_share(spans):
    """Share of graph arguments to the structure builders, compared by
    value, that an earlier request already passed."""
    first_request = {}
    total = repeats = 0
    # spans are listed in the order their calls began
    for span in (s for s in spans if s[NAME] in GRAPH_BUILDERS):
        key = span[ATTRS]["graph"]
        seen = first_request.setdefault(key, span[REQUEST])
        total += 1
        repeats += seen != span[REQUEST]
    return repeats / total if total else 0.0


def size_exponent(spans, scales):
    """Least-squares slope of log calibrated discrepancy time against log
    source edges."""
    points = [
        (math.log(s[ATTRS]["edges"]), math.log(s[BUSY] * scales[s[REQUEST]]))
        for s in spans
        if s[NAME] == "decide.discrepancy" and s[ATTRS]["edges"] > 0 and s[BUSY] > 0
    ]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx
