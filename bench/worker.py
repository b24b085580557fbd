"""One workload in one fresh process: set-up, closed loop, answer checks.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1 --out PATH

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
process caps its own address space and CPU time first, so a blow-up
stays inside it, and a request that raises (MemoryError and
RecursionError included) or outlives REQUEST_TIMEOUT_S is recorded as a
failed request.  One client sends the next request only when the last
one returned.  The loop runs whole rounds until T seconds of requests
and MIN_REQUESTS requests have passed; answers are checked after the
loop, outside the timed region.  The record goes to --out as JSON.

Request times are reported in calibrated milliseconds.  The speed of the
shared 2-core machine this was tuned on drifts by up to a factor of two
within seconds, which moved every timing by 15 to 25 percent between
runs of the same inputs.  A fixed calibration kernel therefore runs
before the first request of a round and after every request, and each
request's time is divided by the mean kernel time on either side of it
and multiplied by CALIBRATION_REF_NS.  The raw figures go to the record
as well.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

ADDRESS_SPACE_CAP = 2 << 30
CPU_CAP_S = 170
REQUEST_TIMEOUT_S = 30
# enough samples that at least ten lie beyond the 90th percentile
MIN_REQUESTS = 101
CALIBRATION_REF_NS = 4_000_000


class RequestTimeout(BaseException):
    """Raised by the alarm inside a request that ran too long.  A
    BaseException, so that no handler in the library swallows it."""


def _alarm(signum, frame):
    raise RequestTimeout()


def calibration_ns():
    """Best of three runs of a fixed kernel that mixes what flowcont does:
    Python loops over ints and a dict, a small int64 matmul without BLAS,
    and arithmetic over a 4 MB array, which does not fit in cache."""
    import numpy

    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        values = [(i * 7919) % 1009 for i in range(6000)]
        totals = {}
        for i, x in enumerate(values):
            totals[x] = totals.get(x, 0) + i
        sorted(values)
        a = numpy.arange(4096, dtype=numpy.int64).reshape(64, 64) % 7
        a @ a
        (numpy.arange(1 << 19, dtype=numpy.int64) * 3 + 1).sum()
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


def run_rounds(make_round, seed, seconds, workdir, tracer=None, rounds=None):
    """Whole rounds until `seconds` of timed requests and MIN_REQUESTS
    requests have passed, or exactly `rounds` rounds.

    Returns (records, calibrated generation seconds per round, raw timed
    ns, rounds run); a record is [kind, answer or None, error or None, raw latency
    ns, calibration scale].  Only answers are kept, never inputs:
    check_records makes the rounds again.
    """
    records, generation_s = [], []
    loop_ns = 0
    r = 0
    deadline = time.perf_counter() + 4 * seconds + 30
    while (
        (loop_ns < seconds * 1e9 or len(records) < MIN_REQUESTS) and time.perf_counter() < deadline
        if rounds is None
        else r < rounds
    ):
        if tracer is not None:
            tracer.request = None  # set-up calls belong to no request
        start = time.perf_counter_ns()
        requests = make_round(seed, r, workdir)
        generation_ns = time.perf_counter_ns() - start
        # collect now, and keep what the benchmark holds out of later
        # collections, so that no request pays for the benchmark's garbage
        gc.collect()
        gc.freeze()
        results = []
        calibrations = [calibration_ns()]
        generation_s.append(generation_ns / 1e9 * CALIBRATION_REF_NS / calibrations[0])
        for request in requests:
            if tracer is not None:
                tracer.request = len(records) + len(results)
            raw = error = None
            begin = time.perf_counter_ns()
            try:
                signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
                try:
                    raw = request.call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except RequestTimeout:
                error = f"timeout after {REQUEST_TIMEOUT_S} s"
            except Exception as exc:  # a failed request, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter_ns() - begin
            loop_ns += latency
            results.append((raw, error, latency))
            calibrations.append(calibration_ns())
        for k, (request, (raw, error, latency)) in enumerate(zip(requests, results)):
            answer = None
            if error is None:
                try:
                    answer = request.summarize(raw)
                except Exception as exc:
                    error = f"unreadable answer: {type(exc).__name__}: {exc}"
            scale = 2 * CALIBRATION_REF_NS / (calibrations[k] + calibrations[k + 1])
            records.append([request.kind, answer, error, latency, scale])
        r += 1
    return records, generation_s, loop_ns, r


def check_records(workloads, make_round, seed, workdir, records, rounds):
    """Reason each request failed, or None, in record order.  The inputs
    come from making the same rounds again from the seed."""
    reasons = []
    for r in range(rounds):
        for request in make_round(seed, r, workdir):
            _, answer, error, _, _ = records[len(reasons)]
            if error is None:
                try:
                    error = workloads.check(request.kind, request.inputs, answer)
                except Exception as exc:
                    error = f"checker failed: {type(exc).__name__}: {exc}"
            reasons.append(error)
    return reasons


def machine_facts():
    import numpy

    memory_kb = 0
    with open("/proc/meminfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                memory_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(memory_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def calibrated_ms(records):
    return [record[3] * record[4] / 1e6 for record in records]


def import_probe():
    """Print the calibrated in-process import time of numpy and flowcont."""
    start = time.perf_counter_ns()
    import numpy  # noqa: F401
    import flowcont  # noqa: F401

    took = time.perf_counter_ns() - start
    print(took / 1e9 * CALIBRATION_REF_NS / calibration_ns())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S + 5))
    signal.signal(signal.SIGALRM, _alarm)

    import flowcont
    import spans
    import workloads

    make_round = workloads.WORKLOADS[args.workload]
    out_dir = os.path.dirname(os.path.abspath(args.out))
    workdir = os.path.join(out_dir, f"work-{args.workload}")
    os.makedirs(workdir, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(flowcont)
    records, generation_s, loop_ns, rounds = run_rounds(make_round, args.seed, args.seconds, workdir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    reasons = check_records(workloads, make_round, args.seed, workdir, records, rounds)
    failures = [(i, reason) for i, reason in enumerate(reasons) if reason is not None]
    attempted = len(records)
    correct = attempted - len(failures)
    latency_ms = calibrated_ms(records)
    latency_p90 = p90(latency_ms)
    raw_ms = [record[3] / 1e6 for record in records]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "rounds": rounds,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"request {i} ({records[i][0]}): {reason}" for i, reason in failures[:20]],
        "loop_s": loop_ns / 1e9,
        "beyond_p90": sum(1 for x in latency_ms if x > latency_p90),
        "generation_s": generation_s,
        "latency_ms": latency_ms,
        "raw": {
            "throughput_rps": correct / (loop_ns / 1e9),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": p90(raw_ms),
            "calibration_ms": CALIBRATION_REF_NS / 1e6 / statistics.median(record[4] for record in records),
        },
    }

    if tracer is None:
        result["metrics"] = {
            "throughput_rps": (correct / (sum(latency_ms) / 1e3), "1/s"),
            "latency_p50_ms": (statistics.median(latency_ms), "ms"),
            "latency_p90_ms": (latency_p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "correct_share": (correct / attempted, "share"),
        }
    else:
        # the first round again without wrappers gives the tracing overhead,
        # as the median over its requests of traced over untraced time
        untraced = calibrated_ms(run_rounds(make_round, args.seed, args.seconds, workdir, rounds=1)[0])
        overhead = statistics.median(t / u for t, u in zip(latency_ms, untraced)) - 1
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(spans_path)
        result["spans"] = spans_path
        result["metrics"] = spans.per_layer_metrics(tracer.spans, [record[4] for record in records], overhead)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--import-probe"]:
        import_probe()
    else:
        sys.exit(main())
