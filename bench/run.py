"""flowcont benchmark: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload check|scan|witness|selftest \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; flowcont is imported from its src/.
The workload runs in a fresh child process (worker.py) so that its peak
memory is its own.  Set-up time is the median of three fresh-interpreter
imports of numpy and flowcont, plus the median time to generate and write
one round of inputs, both calibrated as request times are (worker.py).
With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer ones.  The exit code is 1 when any answer is wrong, and 2
when the run itself could not be made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "bench")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("check", "scan", "witness", "selftest")
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 165


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one client, no threads: keep numpy's native libraries single-threaded
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def import_seconds(env):
    """Median calibrated in-process import time over fresh interpreters;
    the median also drops the first import of a fresh checkout, which
    compiles the bytecode."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--import-probe"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cannot import flowcont from {SRC}: {done.stderr.strip()}")
        times.append(float(done.stdout))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flowcont", "__init__.py")):
        print(f"error: no flowcont source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    try:
        import_s = import_seconds(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
    ]
    started = time.perf_counter()
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 2
    if child.returncode != 0 or not os.path.exists(out):
        print(f"error: workload process exited with code {child.returncode}", file=sys.stderr)
        return 2
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)

    metrics = dict(record["metrics"])
    if not args.trace:
        metrics["setup_s"] = (import_s + statistics.median(record["generation_s"]), "s")
    record["metrics"] = metrics
    record["import_s"] = import_s
    record["wall_s"] = time.perf_counter() - started
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(
        f"workload {args.workload}, seed {args.seed}: {record['rounds']} rounds, "
        f"{record['attempted']} requests ({record['beyond_p90']} beyond p90) "
        f"in {record['loop_s']:.2f} s of timed loop"
    )
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"record: {out}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
