"""The bolalg benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see jobs.py and BENCHMARK.json for why each exists):
cohomology-ladder, verify-scan, extend-deform.

The benchmark generates seeded input files under .perfbench/, then runs
the workload's job list in one fresh worker process (worker.py) through
``bolalg.cli.main([..., "--json"])``: one caller, one thread, closed loop.
The number of passes is fixed by --seconds (one per PASS_S, rounded), so
every run, on any commit, does the same work.  Each pass has inputs of
its own.  Every report is checked; for the default seed the
sha256 of every report must also match perfbench/digests.json.

--trace 0 prints the end-to-end metrics:
  run_s        median seconds of one pass
  job_s.p50    median seconds per job, pooled over passes
  job_s.tail   the highest percentile with at least 10 samples beyond it
               (its percentile and sample count are printed above the result)
  peak_rss_mb  peak resident memory of the worker process
  setup_s      median time for a fresh interpreter to import bolalg.cli and
               build the argument parser
The fraction of failed jobs is printed above the result and carried by the
result's "attempted" and "failed" fields.

--trace 1 runs one untraced pass and traces the others (spans.py), and
prints the per-layer metrics, each per pass.  trace.overhead_s compares
the mean traced pass with the untraced one: a single pair of passes with
inputs of their own, so it is an estimate.

Timings are wall clock, scaled to the machine's fast state by a speed
probe that samples from inside the timed process (speed.py): the shared
box this was written on runs everything up to 1.8 times slower for
seconds at a time.  No hardware counters are read.  Results, per-job
scaled and raw wall timings and input shapes go to
.perfbench/<run>/result.json, spans (on the scaled clock) to
.perfbench/<run>/spans.jsonl.  The last line of stdout is the result.
Use --record-digests with the default seed to rewrite the recorded digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

DEFAULT_SEED = 0
# A pass of each workload takes 10 to 13 s on the scaled clock, and up to
# twice that of wall time, on a shared 2-core box.  --seconds becomes a
# fixed number of passes, so the parent and the child of a change do the
# same work.
PASS_S = 15.0
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
TIME_LIMIT_S = 170
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_SNIPPET = """
import json, sys, time
sys.path.insert(0, {here!r})
import speed
sys.path.insert(0, {src!r})
probe = speed.Probe(speed.int_loop, speed.INT_LOOP_S, {period!r})
probe.start()
start = time.perf_counter()
import bolalg.cli
bolalg.cli.build_parser()
end = time.perf_counter()
probe.stop()
if not bolalg.cli.__file__.startswith({src!r}):
    sys.exit("bolalg was not imported from the checkout")
print(json.dumps([start, end, probe.starts, probe.durations]))
"""
SETUP_PROBE_PERIOD_S = 0.001


class BenchError(Exception):
    pass


def passes_for(seconds: int) -> int:
    return max(1, round(seconds / PASS_S))


def setup_seconds(src: str) -> float:
    """Median import + build_parser time over fresh interpreters, on the
    speed-scaled clock (speed.py)."""
    code = SETUP_SNIPPET.format(here=HERE, src=src + os.sep, period=SETUP_PROBE_PERIOD_S)
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one also writes bytecode
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing bolalg.cli failed:\n{proc.stderr}")
        if i:
            probe = speed.Probe(speed.int_loop, speed.INT_LOOP_S)
            start, end, probe.starts, probe.durations = json.loads(proc.stdout)
            clock = probe.clock()
            samples.append(clock(end) - clock(start))
    return statistics.median(samples)


def tail(values):
    """(value, percentile, samples) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return statistics.median(xs), 50.0, n
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def run(args, root: str) -> tuple[dict, list[str]]:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bolalg", "cli.py")):
        raise BenchError(f"no bolalg sources under {src}")
    started = time.monotonic()
    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    npasses = passes_for(args.seconds)
    if args.trace:
        npasses = max(npasses, 2)
    plan = {
        "passes": [jobs.build_pass(args.workload, args.seed, p, workdir)
                   for p in range(npasses)],
        "untraced": 1 if args.trace else npasses,
        "digests": (load_digests(args.workload)
                    if args.seed == DEFAULT_SEED and not args.record_digests else None),
    }
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)

    budget = TIME_LIMIT_S - (time.monotonic() - started)
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), plan_path, src,
         os.path.join(workdir, "spans.jsonl")],
        cwd=workdir, capture_output=True, text=True, timeout=max(budget, 1))
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    setup_s = None if args.trace else setup_seconds(src)

    rows = [row for p in result["passes"] for row in p["jobs"]]
    failures = [f"FAIL {row['job']}: {'; '.join(row['problems'])}"
                for row in rows if row["problems"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    times = [row["s"] for p in untraced for row in p["jobs"]]
    tail_s, tail_pct, tail_n = tail(times)
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(result["passes"]),
        "attempted": len(rows), "failed": len(failures),
        "fail_frac": len(failures) / len(rows),
        "job_s.tail.percentile": tail_pct, "job_s.tail.samples": tail_n,
    }
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        values = {
            "run_s": (statistics.median(p["run_s"] for p in untraced), "s"),
            "job_s.p50": (statistics.median(times), "s"),
            "job_s.tail": (tail_s, "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "metrics": metrics, "passes": result["passes"]},
                  handle, indent=1)
    if args.record_digests:
        record_digests(args.workload, rows)
    return {"correct": not failures, "attempted": len(rows), "failed": len(failures),
            "metrics": metrics}, failures + ["summary " + json.dumps(summary)]


def load_digests(workload: str) -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def record_digests(workload: str, rows) -> None:
    with open(DIGESTS, encoding="utf-8") as handle:
        table = json.load(handle)
    table[workload] = {row["job"]: row["digest"] for row in rows}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's report digests as the expected ones")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("digests are recorded for the default seed only")
    try:
        result, notes = run(args, os.getcwd())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
