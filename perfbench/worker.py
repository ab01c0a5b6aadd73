"""Runs a pass plan through ``bolalg.cli.main`` in a fresh process.

Usage: python3 -I perfbench/worker.py PLAN.json SRC_DIR SPANS.jsonl

Run it with the run directory as the current directory: the jobs name
their files relative to it.

One caller, one thread, closed loop: each job starts after the previous one
returns.  Jobs run back to back; their reports are checked after the last
pass.  The passes after the first ``untraced`` ones run with the
tracer installed.  Prints one JSON object with the timings, the check
results, the peak resident memory of this process and, if any pass was
traced, the per-layer metrics; the spans go to SPANS.jsonl.  Every time
is taken on the speed-scaled clock of speed.py; raw wall times are kept
next to the scaled ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import speed  # noqa: E402


def check(job: dict, code, text: str, digest: str | None) -> list[str]:
    """What is wrong with one job's outcome; empty when it is correct."""
    exp = job["expect"]
    problems = []
    if code != exp["code"]:
        problems.append(f"exit code {code!r}, expected {exp['code']}")
    try:
        report = json.loads(text)
    except ValueError:
        return problems + ["report is not a JSON document"]
    if report.get("status") != exp["status"]:
        problems.append(f"status {report.get('status')!r}, expected {exp['status']!r}")
    for key, value in exp.get("fields", {}).items():
        if report.get(key) != value:
            problems.append(f"{key} = {report.get(key)!r}, expected {value!r}")
    for key, value in exp.get("objects", {}).items():
        if report.get(key) != value:
            problems.append(f"{key} differs from the object the input was built from")
    first = exp.get("first_failure")
    if first is not None:
        failed = next((c for c in report.get(first["key"]) or [] if not c["passed"]), None)
        seen = None if failed is None else (failed["name"], failed["witness"])
        if seen is None or seen[0] != first["name"] or (
                first["witness"] is not None and seen[1] != first["witness"]):
            problems.append(f"first failure {seen!r}, expected "
                            f"{(first['name'], first['witness'])!r}")
    if digest is not None and hashlib.sha256(text.encode()).hexdigest() != digest:
        problems.append("report digest differs from the one recorded for this seed")
    return problems


def run_pass(cli, jobs, label, tracer=None):
    """Run every job of a pass; return (pass (start, end), per-job results),
    each result (job, exit code, report, (start, end), error)."""
    done = []
    pass_start = time.perf_counter()
    for job in jobs:
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(job["argv"])
                else:
                    tracer.job = f"{label}/{job['name']}"
                    code = tracer.call(f"cli.{job['argv'][0]}", cli.main, (job["argv"],))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        done.append((job, code, buf.getvalue(), (start, time.perf_counter()), error))
    return (pass_start, time.perf_counter()), done


def main(argv) -> int:
    plan_path, src, spans_path = argv
    sys.path.insert(0, src)
    import bolalg.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bolalg was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    digests = plan["digests"]  # None: no digest check
    tracer = spans.Tracer()
    probe = speed.Probe(speed.fraction_loop(), speed.FRACTION_LOOP_S)
    runs = []
    probe.start()
    try:
        for index, jobs in enumerate(plan["passes"]):
            traced = index >= plan["untraced"]
            if traced:
                tracer.install()
            try:
                runs.append((traced, *run_pass(cli, jobs, f"p{index}",
                                               tracer if traced else None)))
            finally:
                tracer.restore()
    finally:
        probe.stop()
    clock = probe.clock()

    def scaled(interval):
        return clock(interval[1]) - clock(interval[0])

    result = {"passes": [], "speed_samples": len(probe.durations)}
    traced_s, untraced_s, bundles, bytes_out = [], [], 0, 0
    for index, (traced, pass_interval, done) in enumerate(runs):
        label = f"p{index}"
        (traced_s if traced else untraced_s).append(scaled(pass_interval))
        rows = []
        for job, code, text, interval, error in done:
            key = f"{label}/{job['name']}"
            out_bytes = len(text.encode()) + sum(
                os.path.getsize(p) for p in job["outputs"] if os.path.exists(p))
            if error:
                problems = [error]
            elif digests is not None and key not in digests:
                problems = ["no report digest recorded for this job"]
            else:
                problems = check(job, code, text, None if digests is None else digests[key])
            rows.append({"job": key, "s": scaled(interval),
                         "wall_s": interval[1] - interval[0], "problems": problems,
                         "digest": hashlib.sha256(text.encode()).hexdigest(),
                         "bytes_out": out_bytes, "shape": job["shape"]})
            if traced:
                bundles += job["bundles"]
                bytes_out += out_bytes
        result["passes"].append({"traced": traced, "run_s": scaled(pass_interval),
                                 "wall_s": pass_interval[1] - pass_interval[0],
                                 "jobs": rows})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced_s:
        for span in tracer.spans:
            span[3:6] = map(clock, span[3:6])
        overhead = (sum(traced_s) / len(traced_s)
                    - (sum(untraced_s) / len(untraced_s) if untraced_s else 0.0))
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts, len(traced_s),
                                               bundles, bytes_out, overhead)
        with open(spans_path, "w", encoding="utf-8") as handle:
            for i, (name, job, parent, start, end, _, stats) in enumerate(tracer.spans):
                handle.write(json.dumps({"id": i, "name": name, "job": job,
                                         "parent": parent, "start": start,
                                         "end": end, "stats": stats}) + "\n")
            handle.write(json.dumps({"counts": dict(tracer.counts)}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
