"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py
"""

import filecmp
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bolalg.cli as cli  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402


def _bolalg_bindings():
    return {(key, attr): value for key, module in sys.modules.items()
            if key == "bolalg" or key.startswith("bolalg.")
            for attr, value in vars(module).items() if callable(value)}


def _pass(tmp_path, workload, seed=0, pass_index=0, label="a"):
    return jobs.build_pass(workload, seed, pass_index, str(tmp_path / label))


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in jobs.WORKLOADS:
        a = _pass(tmp_path, workload, label=f"{workload}-a")
        b = _pass(tmp_path, workload, label=f"{workload}-b")
        c = _pass(tmp_path, workload, seed=1, label=f"{workload}-c")
        assert [j["name"] for j in a] == [j["name"] for j in b] == [j["name"] for j in c]
        names = sorted(os.listdir(tmp_path / f"{workload}-a" / "p0"))
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / f"{workload}-a" / "p0", tmp_path / f"{workload}-b" / "p0",
            names, shallow=False)
        assert mismatch == errors == [] and len(match) == len(names)
        assert any(not filecmp.cmp(tmp_path / f"{workload}-a" / "p0" / f,
                                   tmp_path / f"{workload}-c" / "p0" / f, shallow=False)
                   for f in names)


def test_passes_and_jobs_never_share_an_input(tmp_path):
    for workload in jobs.WORKLOADS:
        contents = set()
        total = 0
        for p in range(2):
            for job in _pass(tmp_path, workload, pass_index=p, label=workload):
                inputs = [a for a in job["argv"] if a.startswith(f"p{p}/")
                          and a not in job["outputs"]]
                contents.add("".join((tmp_path / workload / a).read_text() for a in inputs))
                total += 1
        assert len(contents) == total, workload


def test_dense_and_sparse_bases_give_equal_cohomology_dimensions(tmp_path, monkeypatch):
    ladder = [j for j in _pass(tmp_path, "cohomology-ladder")
              if j["argv"][0] == "cohomology" and j["name"].startswith(("b2_", "so3-"))]
    monkeypatch.chdir(tmp_path / "a")
    _, done = worker.run_pass(cli, ladder, "p0")
    dims = {}
    for job, code, text, _, error in done:
        assert code == 0 and error is None
        report = json.loads(text)
        alg = job["name"].split("-")[0]
        dims.setdefault(alg, set()).add((report["dim_Z"], report["dim_B"], report["dim_H"]))
    assert len(dims) == 5
    assert all(len(found) == 1 for found in dims.values()), dims


def test_traced_and_untraced_passes_give_identical_reports(tmp_path, monkeypatch):
    selected = [j for j in _pass(tmp_path, "cohomology-ladder")
                if j["name"].startswith("b2_1-")]
    selected += [j for j in _pass(tmp_path, "extend-deform")
                 if j["name"] in ("sol3-sparse-extend-build", "sol3-sparse-extend-analyze",
                                  "so3-sparse-deform-check")]
    monkeypatch.chdir(tmp_path / "a")
    _, plain = worker.run_pass(cli, selected, "p0")
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced = worker.run_pass(cli, selected, "p0", tracer)
    finally:
        tracer.restore()
    assert [t for _, _, t, _, _ in plain] == [t for _, _, t, _, _ in traced]
    assert all(worker.check(j, code, text, None) == [] for j, code, text, _, _ in traced)
    # extend-analyze validates once in the CLI and once more inside
    # induced_representation; only a rebinding in bolalg.cli sees both
    analyze = [s for s in tracer.spans if s[1] == "p0/sol3-sparse-extend-analyze"
               and s[0] == "extension.validate_extension"]
    assert len(analyze) == 2
    roots = [s for s in tracer.spans if s[2] is None]
    assert [s[0] for s in roots] == [f"cli.{j['argv'][0]}" for j in selected]


def test_reports_do_not_depend_on_the_run_directory(tmp_path, monkeypatch):
    # extend-build copies its -o path into its report
    reports = []
    for label in ("x", "elsewhere/y"):
        job = next(j for j in _pass(tmp_path, "extend-deform", label=label)
                   if j["name"] == "sol3-sparse-extend-build")
        monkeypatch.chdir(tmp_path / label)
        _, [(_, code, text, _, error)] = worker.run_pass(cli, [job], "p0")
        assert error is None and worker.check(job, code, text, None) == []
        assert os.path.isfile(job["outputs"][0])
        reports.append(text)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["output"] == "p0/sol3-sparse-extend-build.out.bundle"


def test_every_rebound_name_is_restored():
    before = _bolalg_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bolalg_bindings()
        for key in (("bolalg.cli", "validate_extension"), ("bolalg.extension", "verify_bol"),
                    ("bolalg.cohomology", "kernel_basis"), ("bolalg.algebra", "bilinear_eval"),
                    ("bolalg.deformation", "trilinear_eval"), ("bolalg.cli", "parse_algebra")):
            assert during[key] is not before[key]
    finally:
        tracer.restore()
    after = _bolalg_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert sys.modules["bolalg"].cohomology is sys.modules["bolalg.cohomology"].cohomology


def test_self_time_subtracts_children():
    # parent 0..10 with children covering 1..3 and 4..9 (stats until 9.5)
    recorded = [["a", "j", None, 0.0, 10.0, 10.0, None],
                ["b", "j", 0, 1.0, 3.0, 3.0, None],
                ["c", "j", 0, 4.0, 9.0, 9.5, None]]
    assert spans.self_times(recorded) == [10.0 - 2.0 - 5.5, 2.0, 5.0]


def test_checks_catch_wrong_reports(tmp_path, monkeypatch):
    job = next(j for j in _pass(tmp_path, "verify-scan")
               if j["name"] == "planted_early-verify-rep")
    monkeypatch.chdir(tmp_path / "a")
    _, [(_, code, text, _, _)] = worker.run_pass(cli, [job], "p0")
    assert worker.check(job, code, text, None) == []
    report = json.loads(text)
    report["checks"][0]["witness"] = [0, 2]
    assert worker.check(job, code, json.dumps(report), None)
    assert worker.check(job, 0, text, None)
    assert worker.check(job, code, text, "0" * 64)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = run.tail(list(range(40)))
    assert (value, percentile, n) == (29, 75.0, 40)
    assert sum(1 for x in range(40) if x > value) == 10


def test_dense_basis_is_an_exact_inverse_pair():
    for seed in range(5):
        T, Tinv = gen.dense_basis(gen.rng_for(seed, "t"), 5)
        product = gen.mat_mul(T, Tinv)
        assert product == [[1 if i == j else 0 for j in range(5)] for i in range(5)]


def test_scaled_clock_counts_each_stretch_at_its_measured_speed():
    probe = speed.Probe(speed.int_loop, reference=1.0)
    probe.starts, probe.durations = [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0]
    clock = probe.clock()
    assert clock(1.0) - clock(0.0) == 1.0
    assert clock(2.0) - clock(1.0) == 0.75
    assert clock(3.0) - clock(2.0) == 0.5
    assert clock(5.0) - clock(3.0) == 1.0
    assert clock(2.5) - clock(-1.0) == 1.0 + 1.0 + 0.75 + 0.25


def test_probe_samples_while_code_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe(speed.fraction_loop(), speed.FRACTION_LOOP_S, 0.001)
    probe.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 20
    clock = probe.clock()
    assert clock(end) - clock(end - 0.1) > 0.0
