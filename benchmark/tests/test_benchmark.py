"""Tests of the benchmark harness itself: statistics, tracing, oracle and output contract.

Run with ``python -m pytest benchmark/tests`` from the repository root.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from conjbench import jobs, oracle
from conjbench.stats import self_times, tail_latency
from conjbench.trace import PER_LAYER, Tracer, layer_metrics
from conjsim import cli, linalg, selftest
from conjsim.serialize import experiment_to_json

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def replay(job):
    """Run one job in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# statistics


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))                  # 1..100
    value, pct = tail_latency(values)
    assert value == 90 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(89.0)


def test_tail_with_eleven_samples_is_the_minimum_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0]
    value, pct = tail_latency(values)
    assert value == 1.0 and pct == 0.0
    assert sum(v > value for v in values) == 10


def test_tail_with_too_few_samples_falls_back_to_minimum():
    assert tail_latency([3.0, 2.0, 7.0]) == (2.0, 0.0)
    with pytest.raises(ValueError):
        tail_latency([])


def test_self_time_subtracts_nested_children():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9]
    spans = [(0, "root", 0.0, 10.0, -1, "j"), (1, "a", 1.0, 4.0, 0, "j"),
             (2, "a1", 2.0, 3.0, 1, "j"), (3, "b", 5.0, 9.0, 0, "j")]
    own = self_times(spans)
    assert own == {0: pytest.approx(3.0), 1: pytest.approx(2.0), 2: pytest.approx(1.0),
                   3: pytest.approx(4.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_children():
    spans = [(0, "p", 0.0, 10.0, -1, None), (1, "c", 2.0, 6.0, 0, None),
             (2, "d", 4.0, 8.0, 0, None), (3, "e", 9.0, 12.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    original = selftest.embed_operator
    exp, p = jobs.ladder_member(np.random.default_rng(3), 64)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment_to_json(exp)))
    job = jobs.Job(name="j", argv=["selftest", "--experiment", str(path),
                                   "--out", str(tmp_path / "r.json")],
                   cls="selftest.D64", expect={"check": "selftest_pass", "a": p.a,
                                               "kind": "extended"},
                   out=tmp_path / "r.json")
    tracer = Tracer()
    with tracer.installed():
        assert selftest.embed_operator is not original
        assert linalg.embed_operator is selftest.embed_operator
        code, stdout, stderr = replay(job)
    assert selftest.embed_operator is original and linalg.embed_operator is original
    assert oracle.check(job, code, stdout, stderr) == []

    names = {s[0]: s[1] for s in tracer.spans}
    roots = [s for s in tracer.spans if s[4] == -1]
    assert [names[s[0]] for s in roots] == ["cli.main"]
    extraction = [s for s in tracer.spans if s[1] == "selftest.extraction_isometry"]
    assert extraction
    children = {names[s[0]] for s in tracer.spans if s[4] == extraction[0][0]}
    assert "linalg.embed_operator" in children

    values = layer_metrics(tracer, 1, refused=0, selftests=1, out_bytes=10,
                           traced_s=1.1, untraced_s=1.0)
    assert list(values) == [name for name, _ in PER_LAYER]
    assert values["linalg.embed_operator.calls"] > 0
    assert 0 < values["linalg.embed_operator.density"] < 1
    assert values["linalg.embed_operator.bytes"] >= 16 * 64 * 64
    assert values["trace.overhead_frac"] == pytest.approx(0.1)
    total = max(s[3] for s in roots) - min(s[2] for s in roots)
    layer_sum = sum(v for k, v in values.items() if k.startswith("layer."))
    assert layer_sum == pytest.approx(total, rel=1e-6)


# ---------------------------------------------------------------------------
# oracle


def _ladder_job(tmp_path, exp, expect, name="job"):
    path = tmp_path / f"{name}.experiment.json"
    path.write_text(json.dumps(experiment_to_json(exp)))
    out = tmp_path / f"{name}.out.json"
    return jobs.Job(name=name, argv=["selftest", "--experiment", str(path), "--out", str(out)],
                    cls="selftest_corrupted.D16", expect=expect, out=out)


def test_oracle_accepts_a_refused_corrupted_experiment(tmp_path):
    rng = np.random.default_rng(5)
    exp, _ = jobs.ladder_member(rng, 16)
    job = _ladder_job(tmp_path, jobs.swap_observables(exp, rng), {"check": "selftest_refused"})
    code, stdout, stderr = replay(job)
    assert code == 1
    assert oracle.check(job, code, stdout, stderr) == []


def test_oracle_catches_a_mislabelled_corrupted_experiment(tmp_path):
    exp, _ = jobs.ladder_member(np.random.default_rng(5), 16)     # not corrupted at all
    job = _ladder_job(tmp_path, exp, {"check": "selftest_refused"})
    code, stdout, stderr = replay(job)
    problems = oracle.check(job, code, stdout, stderr)
    assert any("exit code 0" in p for p in problems)
    assert any("refused_stage" in p for p in problems)


def test_oracle_catches_wrong_flag_populations(tmp_path):
    exp, p = jobs.ladder_member(np.random.default_rng(6), 16)
    job = _ladder_job(tmp_path, exp, {"check": "selftest_pass", "a": p.a + 1e-6,
                                      "kind": "extended"})
    code, stdout, stderr = replay(job)
    assert code == 0
    assert any("flag populations" in p for p in oracle.check(job, code, stdout, stderr))


def test_reference_table_matches_known_values():
    table = oracle.reference_table("extended", cross=True)
    assert table["joint:X,X"] == pytest.approx(1.0)
    assert table["joint:Y,Y"] == pytest.approx(1.0)
    assert table["joint:X,D"] == pytest.approx(2 ** -0.5)
    assert table["joint:X,Z"] == pytest.approx(0.0)
    assert sum(k.startswith("joint:") for k in table) == 36
    assert sum(k.startswith("joint:") for k in oracle.reference_table("extended", False)) == 24


# ---------------------------------------------------------------------------
# workloads: tiny smoke runs and the output contract


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_light_jobs_of_each_workload(workload, tmp_path):
    """The cheap jobs of every workload pass the oracle when replayed in-process."""
    job_list = jobs.build(workload, 7, tmp_path, 2)
    assert len(job_list) >= 12
    light = [j for j in job_list if j.light][:12]
    assert light
    for job in light:
        code, stdout, stderr = replay(job)
        assert oracle.check(job, code, stdout, stderr) == [], job.name


def test_workload_structure_does_not_depend_on_the_seed(tmp_path):
    for workload in jobs.WORKLOADS:
        a = jobs.build(workload, 1, tmp_path / f"{workload}1", 2)
        b = jobs.build(workload, 2, tmp_path / f"{workload}2", 2)
        assert [j.cls for j in a] == [j.cls for j in b]
        assert [j.rounds for j in a] == [j.rounds for j in b]
        assert [j.argv for j in a] != [j.argv for j in b]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_of_small_jobs_prints_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "small_jobs",
                           "--seed", "3", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in PER_LAYER]


def test_timed_run_of_small_jobs_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "small_jobs",
                           "--seed", "4", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["attempted"] >= 30
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "environment {" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "small_jobs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
