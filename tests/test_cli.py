import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import re
import resource
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjsim
from conjsim import cli, family, linalg, selftest, serialize, sixstate
from conjsim.cli import main
from conjsim.family import HAMILTONIAN_BOUND, SimParams
from conjsim.linalg import ATOL, HADAMARD, X, Z, failing, random_unitary
from conjsim.selftest import (
    attach_junk,
    family_experiment,
    purify_experiment,
    reference_experiment,
    with_observable,
    with_state,
)
from conjsim.serialize import complex_to_json, dumps, experiment_to_json, state_to_json
from conjsim.sixstate import MismatchedFlags, source_state
from conjsim.states import StateVector, replace

from dense_reference import rejudge, rotate_experiment, unjudged_names


def run(args):
    return main(args)


def read_json(path):
    return json.loads(path.read_text())


def test_props_default_passes(tmp_path):
    out = tmp_path / "props.json"
    assert run(["props", "--trials", "30", "--dim", "4", "--seed", "0",
                "--out", str(out)]) == 0
    data = read_json(out)
    names = {i["name"] for i in data["results"]["items"]}
    assert {"multiplicative", "additive", "real_scalar", "eigenvector_lift",
            "hermiticity", "unitarity", "psd", "trace_doubling"} <= names
    assert data["results"]["passed"]
    assert data["version"] and "config" in data


def test_props_dim_too_large_is_usage_error():
    assert run(["props", "--dim", "9"]) == 2


def test_props_fixture_failure(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(dumps({"fixtures": [
        {"label": "fake_unitary", "matrix": complex_to_json(np.diag([1.0, 2.0])),
         "claims": ["unitary"]},
    ]}))
    out = tmp_path / "props.json"
    code = run(["--config", str(config), "props", "--trials", "5", "--out", str(out)])
    assert code == 1
    items = read_json(out)["results"]["items"]
    failing = [i["name"] for i in items if not i["passed"]]
    assert failing == ["fixture[fake_unitary:unitary]"]


# The expected outputs of the pinned jobs are files under tests/golden, written by the code
# before the property suite was batched.  A report is compared as parsed JSON, a CSV table row
# by row: keys, strings, integers, bools and nulls exactly, floats within FLOAT_ATOL or
# FLOAT_RTOL.  Residuals round differently on each BLAS kernel (by up to 1.6e-15 seen), so
# bytes are not portable; the tolerance is about 100 times that.  Every job's input path is
# relative, so the outputs do not depend on where the job runs.
GOLDEN = Path(__file__).parent / "golden"
FLOAT_ATOL, FLOAT_RTOL = 1e-13, 1e-12


def mismatches(got, want, where="$"):
    """Where a parsed output differs from the expected one, as a list of readable paths."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and (got == want or np.isnan(got) and np.isnan(want)
                                    or abs(got - want) <= max(FLOAT_ATOL, FLOAT_RTOL * abs(want))):
        return []
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def parsed_output(path):
    """A JSON file as parsed JSON; a CSV table as rows of cells read as int, float or text."""
    text = Path(path).read_text()
    if Path(path).suffix == ".json":
        return json.loads(text)

    def cell(value):
        for kind in (int, float):
            with contextlib.suppress(ValueError):
                return kind(value)
        return value

    return [[cell(value) for value in row] for row in csv.reader(io.StringIO(text))]


def output_mismatches(path, expected):
    """How the file at ``path`` differs from ``expected``: a golden file's name, or the SHA-256
    of a QKD transcript, which holds no float and so keeps its bytes."""
    if "." not in expected:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        return [] if digest == expected else [f"sha256 {digest}"]
    return mismatches(parsed_output(path), parsed_output(GOLDEN / expected))


# props jobs shaped like the benchmark's small jobs, a config run, and a config whose fixtures
# pass and fail: (argv, exit code, golden file)
PROPS_REPORTS = [
    (["props", "--dim", "2", "--trials", "20", "--seed", "11"], 0, "props/dim2.json"),
    (["props", "--dim", "4", "--trials", "30", "--seed", "12"], 0, "props/dim4.json"),
    (["props", "--dim", "6", "--trials", "30", "--seed", "13"], 0, "props/dim6.json"),
    (["props", "--dim", "8", "--trials", "40", "--seed", "14"], 0, "props/dim8.json"),
    (["--config", "config.json", "props"], 0, "props/config.json"),
    (["--config", "fixtures.json", "props"], 1, "props/fixtures.json"),
]


def write_props_configs():
    Path("config.json").write_text(dumps({"dim": 5, "trials": 25, "seed": 3}))
    Path("fixtures.json").write_text(dumps({"trials": 5, "seed": 2, "fixtures": [
        {"label": "hadamard", "matrix": complex_to_json(HADAMARD),
         "claims": ["hermitian", "unitary"]},
        {"label": "stretch", "matrix": complex_to_json(np.diag([1.0, 2.0])),
         "claims": ["unitary", "psd"]},
        {"label": "rotation", "matrix": complex_to_json(np.array([[0, -1], [1, 0]])),
         "claims": ["psd"]},
    ]}))


def test_props_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_props_configs()
    for argv, code, expected in pinned_jobs("props"):
        assert run(argv) == code, argv
        assert output_failures(expected) == {}, argv


# selftest jobs: four passing runs (exact, flagged, sampled, and a rotated, junked member with
# no flags) and failing runs of every stage family: (argv, exit code, golden file)
SELFTEST_REPORTS = [
    (["--experiment", "mayersyao.json", "--kind", "mayersyao"], 0, "selftest/mayersyao.json"),
    (["--experiment", "member.json"], 0, "selftest/member.json"),
    (["--experiment", "mayersyao.json", "--kind", "mayersyao",
      "--sampled", "n=20000", "seed=7"], 0, "selftest/mayersyao_sampled.json"),
    (["--experiment", "rotated.json"], 0, "selftest/rotated.json"),
    (["--experiment", "d_is_x.json"], 1, "selftest/d_is_x.json"),
    (["--experiment", "d_is_x.json", "--stats-tol", "2"], 1, "selftest/d_is_x_stats_tol.json"),
    (["--experiment", "y_is_z.json"], 1, "selftest/y_is_z.json"),
    (["--experiment", "y_is_z.json", "--stats-tol", "2"], 1, "selftest/y_is_z_stats_tol.json"),
    (["--experiment", "product.json"], 1, "selftest/product.json"),
    (["--experiment", "data_as_flags.json"], 1, "selftest/data_as_flags.json"),
    (["--experiment", "tilted.json", "--kind", "mayersyao", "--stats-tol", "2"], 1,
     "selftest/tilted.json"),
]


def selftest_experiments():
    """The experiments of SELFTEST_REPORTS, by file name."""
    ref = reference_experiment("extended")
    mayersyao = reference_experiment("mayersyao")
    member = family_experiment(SimParams(0.3, 0.2))
    rng = np.random.default_rng(5)
    junked = attach_junk(purify_experiment(family_experiment(SimParams(0.3, 0.2j))), "A",
                         StateVector([2], np.array([1, 1j]) / np.sqrt(2)))
    theta = np.pi / 4 - 0.1
    return {
        "mayersyao.json": mayersyao,
        "member.json": member,
        "rotated.json": rotate_experiment(junked, {
            p: random_unitary(int(np.prod(junked.party_dims[p])), rng) for p in ("A", "B")}),
        "d_is_x.json": with_observable(ref, "A", "D", X),
        "y_is_z.json": with_observable(ref, "A", "Y", Z),
        "product.json": with_state(ref, StateVector([2, 2], [1, 0, 0, 0])),
        "data_as_flags.json": replace(member, flag_registers={"A": 1, "B": 3}),
        "tilted.json": with_state(mayersyao, StateVector(
            [2, 2], [np.cos(theta), 0, 0, np.sin(theta)])),
    }


def write_selftest_experiments():
    for name, exp in selftest_experiments().items():
        Path(name).write_text(dumps(experiment_to_json(exp)))


def test_selftest_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_selftest_experiments()
    for argv, code, expected in pinned_jobs("selftest"):
        assert run(argv) == code, argv
        report = read_json(Path("report.json"))         # its verdict follows from it alone
        assert rejudge(report) == (report["results"]["failures"],
                                   report["results"]["refused_stage"]), argv
        assert unjudged_names(report) == [], argv       # and each failure names its residual
        assert output_failures(expected) == {}, argv


# simulate jobs: an extended JSON table with the cross pairs (a report without a seed, which
# simulate never draws) and a Mayers-Yao CSV table: (argv, golden file)
SIMULATE_REPORTS = [
    (["--family", "a=0.3", "c=0.2", "--cross-pairs", "--out", "table.json"],
     "simulate/extended_cross_pairs.json"),
    (["--kind", "mayersyao", "--family", "a=0.3", "c=0.2", "--format", "csv",
      "--out", "table.csv"], "simulate/mayersyao.csv"),
]


def test_simulate_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, code, expected in pinned_jobs("simulate"):
        assert run(argv) == code, argv
        assert output_failures(expected) == {}, argv


# One qkd job per strategy; two of them write a transcript, a CSV one and a premeasured JSON
# one, pinned by its SHA-256.  (argv, transcript, exit code, golden file, transcript digest)
QKD_REPORTS = [
    (["--strategy", "honest", "a=0.3", "c=0.2", "--n", "20000", "--seed", "3"], None, 0,
     "qkd/honest.json", None),
    (["--strategy", "conjugate", "--n", "3000", "--seed", "4"], "rounds.csv", 0,
     "qkd/conjugate.json", "bab5d497967b12698c49ff6d8bb86ffacb57433520b3e81dbc5dd41e4a6ac80c"),
    (["--strategy", "zpremeasure", "a=0.5", "c=0.5", "--n", "3000", "--seed", "5"],
     "rounds.json", 0, "qkd/zpremeasure.json",
     "6f1dc3c655d47b5041639fd0bc94b60364bd6ae3bebb61e0d29abf85bc35a2de"),
    (["--strategy", "mismatched", "0", "1", "--n", "3000", "--seed", "6"], None, 0,
     "qkd/mismatched.json", None),
    (["--strategy", "custom", "custom.json", "--n", "10000", "--seed", "7", "--threshold",
      "0.05"], None, 1, "qkd/custom.json", None),
]


def write_custom_source():
    """custom.json: the mismatched flags' source with 10 % white noise."""
    rho = source_state(MismatchedFlags(0, 1))
    noisy = 0.9 * rho.matrix + 0.1 * np.eye(16) / 16
    Path("custom.json").write_text(dumps(state_to_json(replace(rho, matrix=noisy))))


def pinned_jobs(command=None):
    """The full argv, exit code and {file it writes: golden file or transcript digest} of each
    pinned job of ``command``, or of every pinned job."""
    jobs = [("props", argv + ["--out", "report.json"], code, {"report.json": golden})
            for argv, code, golden in PROPS_REPORTS]
    jobs += [("selftest", ["selftest", *argv, "--out", "report.json"], code,
              {"report.json": golden}) for argv, code, golden in SELFTEST_REPORTS]
    jobs += [("simulate", ["simulate", *argv], 0, {argv[-1]: golden})
             for argv, golden in SIMULATE_REPORTS]
    for argv, transcript, code, golden, transcript_digest in QKD_REPORTS:
        written = ["--transcript-out", transcript] if transcript else []
        expected = {"report.json": golden, transcript: transcript_digest}
        expected.pop(None, None)                        # the job writes no transcript
        jobs.append(("qkd", ["qkd", *argv, *written, "--out", "report.json"], code, expected))
    return [job[1:] for job in jobs if command in (None, job[0])]


def output_failures(expected, prefix=""):
    """{file: its mismatches} for each file of ``expected`` that does not match, read with
    ``prefix`` before its name."""
    return {path: found for path, want in expected.items()
            if (found := output_mismatches(prefix + path, want))}


def test_qkd_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_custom_source()
    for argv, code, expected in pinned_jobs("qkd"):
        assert run(argv) == code, argv
        assert output_failures(expected) == {}, argv


# Runs every pinned job through cli.main in one interpreter; job i's outputs are renamed with
# the prefix "i.", and the exit codes are written to codes.json.
PINNED_CHILD = """
import json, os, sys
from conjsim.cli import main
codes = []
for i, (argv, outputs) in enumerate(json.load(sys.stdin)):
    codes.append(main(argv))
    for name in outputs:
        os.replace(name, f"{i}.{name}")
with open("codes.json", "w") as f:
    json.dump(codes, f)
"""


def test_pinned_outputs_hold_on_another_blas_kernel(tmp_path, monkeypatch):
    # OpenBLAS picks its kernel per process; Prescott rounds products and eigensolvers
    # differently from the AVX-512 kernels the golden files were written with.  Where numpy's
    # BLAS is not OpenBLAS the variable does nothing and the test still holds.
    monkeypatch.chdir(tmp_path)
    write_props_configs()
    write_selftest_experiments()
    write_custom_source()
    jobs = pinned_jobs()
    proc = subprocess.run([sys.executable, "-c", PINNED_CHILD], capture_output=True, text=True,
                          input=json.dumps([(argv, list(expected)) for argv, _, expected in jobs]),
                          env=conjsim_env(OPENBLAS_CORETYPE="Prescott"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(Path("codes.json").read_text()) == [code for _, code, _ in jobs]
    for i, (argv, _, expected) in enumerate(jobs):
        assert output_failures(expected, prefix=f"{i}.") == {}, argv


def test_a_qkd_report_does_not_depend_on_writing_a_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_custom_source()
    for argv, _, code, _, _ in QKD_REPORTS:
        assert run(["qkd", *argv, "--out", "report.json"]) == code, argv
        plain = Path("report.json").read_text()
        for transcript in ("rounds.csv", "rounds.json"):
            written = ["--transcript-out", transcript, "--out", "report.json"]
            assert run(["qkd", *argv, *written]) == code, argv
            report = read_json(Path("report.json"))
            assert report["config"].pop("transcript_out") == transcript
            assert dumps(report) == plain, (argv, transcript)


@pytest.mark.parametrize("argv, sifted", [
    (["--strategy", "honest", "a=0.5", "--n", "4", "--seed", "0"], {"X": 0, "Y": 0, "Z": 0}),
    (["--strategy", "custom", "custom.json", "--n", "4", "--seed", "0"], {"X": 0, "Y": 0, "Z": 0}),
    (["--strategy", "mismatched", "0", "1", "--n", "4", "--seed", "2"], {"X": 0, "Y": 1, "Z": 0}),
], ids=["honest", "custom", "mismatched"])
def test_a_basis_without_a_sifted_round_fails_every_strategy(tmp_path, monkeypatch, argv, sifted):
    # each exited 0 when a basis with nothing sifted counted as error-free
    monkeypatch.chdir(tmp_path)
    write_custom_source()
    assert run(["qkd", *argv, "--out", "report.json"]) == 1
    results = read_json(Path("report.json"))["results"]
    assert results["sifted"] == sifted and results["verdict"] == "insufficient data"


# one verdict rule at its boundary in every job that judges outside the self-test: each
# judged entry holds at its bound and fails one ulp above it and at NaN, as linalg.failing says

def judged(value):
    """``value`` as a report writes it: NaN is null."""
    return None if np.isnan(value) else value


def props_verdict(entry, patch, *flags):
    """Whether a props job passes with ``value`` put into item ``entry`` by ``patch``."""
    def verdict(monkeypatch, value):
        patch(monkeypatch, value)
        code = run(["--config", "fixture.json", "props", "--trials", "1", "--dim", "2", *flags,
                    "--out", "report.json"])
        results = read_json(Path("report.json"))["results"]
        items = {item["name"]: item for item in results["items"]}
        assert items[entry]["max_residual"] == judged(value)
        failed = [name for name, item in items.items() if not item["passed"]]
        assert failed in ([], [entry]) and results["passed"] == (not failed)
        assert code == (1 if failed else 0)
        return not failed
    return verdict


def qkd_verdict(basis):
    """Whether an honest qkd job at threshold 0.25 is consistent with ``basis``'s rate put to
    ``value``."""
    def verdict(monkeypatch, value):
        rates = sixstate.QberReport.rates
        monkeypatch.setattr(sixstate.QberReport, "rates",
                            property(lambda report: {**rates.fget(report), basis: value}))
        code = run(["qkd", "--strategy", "honest", "a=0.5", "c=0.5", "--n", "300", "--seed", "1",
                    "--threshold", "0.25", "--out", "report.json"])
        results = read_json(Path("report.json"))["results"]
        assert results["rates"][basis] == judged(value)
        assert results["verdict"] in ("protocol-consistent", "not-protocol-consistent")
        consistent = results["verdict"] == "protocol-consistent"
        assert code == (0 if consistent else 1)         # an honest source is expected consistent
        return consistent
    return verdict


# (bound, whether the job holds with the entry at a value)
JOB_BOUNDARY_CASES = {
    "props:hamiltonian_identity": (HAMILTONIAN_BOUND, props_verdict(
        "hamiltonian_identity",
        lambda mp, v: mp.setattr(family, "_hamiltonian_identity_residual", lambda h, t: v))),
    "props:statistics_preservation": (2.0 ** -30, props_verdict(
        "statistics_preservation",
        lambda mp, v: mp.setattr(family, "_statistics_preservation_residual", lambda: v),
        "--tol", repr(2.0 ** -30))),
    "props:fixture": (ATOL, props_verdict(
        "fixture[one:hermitian]",
        lambda mp, v: mp.setitem(linalg.DEFECTS, "hermitian", lambda m: v))),
    **{f"qkd:rate:{b}": (0.25, qkd_verdict(b)) for b in ("X", "Y", "Z")},
}


@pytest.mark.parametrize("case", JOB_BOUNDARY_CASES)
def test_each_job_holds_at_its_bound_and_fails_above(case, tmp_path, monkeypatch):
    bound, verdict = JOB_BOUNDARY_CASES[case]
    monkeypatch.chdir(tmp_path)
    Path("fixture.json").write_text(dumps({"fixtures": [
        {"label": "one", "matrix": complex_to_json(np.eye(1)), "claims": ["hermitian"]}]}))
    values = [bound, float(np.nextafter(bound, 1)), np.nan]
    rule = [not failing({case: value}, bound) for value in values]
    assert rule == [True, False, False]
    for value, holds in zip(values, rule):
        with monkeypatch.context() as patch:
            assert verdict(patch, value) == holds, (case, value)


def strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("wide.json").write_text(dumps({"trials": 2, "fixtures": [
        {"label": "wide", "matrix": complex_to_json(np.ones((1, 2))), "claims": ["unitary"]}]}))
    assert run(["--config", "wide.json", "props", "--out", "props.json"]) == 1
    items = strict_json(Path("props.json").read_text())["results"]["items"]
    assert items[-1] == {"name": "fixture[wide:unitary]", "max_residual": None, "passed": False}
    collapse = selftest.check_d_collapse
    monkeypatch.setattr(selftest, "check_d_collapse", lambda e: {**collapse(e), "A:D": np.nan})
    assert run(["selftest", "--kind", "mayersyao", "--out", "selftest.json"]) == 1
    results = strict_json(Path("selftest.json").read_text())["results"]
    assert (results["residuals"]["d_collapse"]["A:D"], results["failures"]) == \
        (None, ["d_collapse[A:D]"])


def test_selftest_family_extended(tmp_path):
    out = tmp_path / "report.json"
    code = run(["selftest", "--family", "a=0.5", "c=0.5", "--kind", "extended",
                "--out", str(out)])
    assert code == 0
    results = read_json(out)["results"]
    assert results["verdict"] == "pass"
    pops = results["flag_populations"]
    assert pops["population_0"] == pytest.approx(0.5, abs=1e-9)
    assert pops["population_1"] == pytest.approx(0.5, abs=1e-9)


def test_selftest_corrupted_experiment(tmp_path):
    exp = with_observable(reference_experiment("mayersyao"), "A", "D", X)
    path = tmp_path / "corrupted_d.json"
    path.write_text(dumps(experiment_to_json(exp)))
    out = tmp_path / "report.json"
    code = run(["selftest", "--experiment", str(path), "--kind", "mayersyao",
                "--out", str(out)])
    assert code == 1
    results = read_json(out)["results"]
    assert results["verdict"] == "fail"
    assert results["failures"][0] == "statistics[joint(D,Z)]"
    assert any("statistics" in f for f in results["failures"])


def test_an_explicit_kind_must_agree_with_the_experiment_document(tmp_path, monkeypatch,
                                                                    capsys):
    # an extended document run with --kind mayersyao ran as extended and echoed mayersyao
    monkeypatch.chdir(tmp_path)
    Path("member.json").write_text(dumps(experiment_to_json(
        family_experiment(SimParams(0.3, 0.2)))))
    Path("mayersyao.json").write_text(dumps(experiment_to_json(reference_experiment("mayersyao"))))
    Path("kind.json").write_text(dumps({"kind": "mayersyao"}))
    for argv, line in [
            (["selftest", "--experiment", "member.json", "--kind", "mayersyao"],
             "--kind mayersyao: the experiment in member.json has kind 'extended'"),
            (["simulate", "--experiment", "member.json", "--kind", "mayersyao"],
             "--kind mayersyao: the experiment in member.json has kind 'extended'"),
            (["--config", "kind.json", "selftest", "--experiment", "member.json"],
             "--kind mayersyao: the experiment in member.json has kind 'extended'"),
            (["simulate", "--experiment", "mayersyao.json", "--kind", "extended"],
             "--kind extended: the experiment in mayersyao.json has kind 'mayersyao'")]:
        assert run(argv + ["--out", "report.json"]) == 2, argv
        assert capsys.readouterr() == ("", f"error: {line}\n"), argv
    assert not Path("report.json").exists()
    for command in ("selftest", "simulate"):       # without --kind, the document's kind runs
        assert run([command, "--experiment", "mayersyao.json", "--out", "report.json"]) == 0
        report = read_json(Path("report.json"))
        assert report["config"]["kind"] == report["results"]["kind"] == "mayersyao", command


def test_selftest_sampled_mode(tmp_path):
    out = tmp_path / "report.json"
    code = run(["selftest", "--kind", "mayersyao", "--sampled", "n=20000", "seed=7",
                "--out", str(out)])
    assert code == 0
    assert read_json(out)["results"]["verdict"] == "pass"


def test_selftest_sampled_without_seed_is_usage_error():
    assert run(["selftest", "--kind", "mayersyao", "--sampled", "n=100"]) == 2


def test_simulate_outputs_table(tmp_path):
    out = tmp_path / "table.json"
    assert run(["simulate", "--family", "a=0.25", "c=0.1", "--out", str(out)]) == 0
    joints = read_json(out)["results"]["joints"]
    assert joints["X,X"] == pytest.approx(1.0, abs=1e-10)
    assert joints["X,D"] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    csv_out = tmp_path / "table.csv"
    assert run(["simulate", "--kind", "mayersyao", "--format", "csv",
                "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("setting_a,setting_b,value,stderr")


def test_qkd_honest(tmp_path):
    out = tmp_path / "qkd.json"
    transcript = tmp_path / "rounds.csv"
    code = run(["qkd", "--strategy", "honest", "a=0.25", "c=0", "--n", "30000",
                "--seed", "1", "--out", str(out), "--transcript-out", str(transcript)])
    assert code == 0
    results = read_json(out)["results"]
    assert results["verdict"] == "protocol-consistent"
    assert all(rate == 0.0 for rate in results["rates"].values())
    assert transcript.read_text().count("\n") == 30001


def test_qkd_mismatched_reports_y_error(tmp_path):
    out = tmp_path / "qkd.json"
    code = run(["qkd", "--strategy", "mismatched", "0", "1", "--n", "3000",
                "--seed", "1", "--out", str(out)])
    # behaves as documented for the adversarial fixture -> exit 0
    assert code == 0
    results = read_json(out)["results"]
    assert results["rates"]["Y"] == 1.0
    assert results["verdict"] == "not-protocol-consistent"


def test_qkd_zpremeasure_flag_agreement(tmp_path):
    out = tmp_path / "qkd.json"
    code = run(["qkd", "--strategy", "zpremeasure", "a=0.5", "c=0.5", "--n", "3000",
                "--seed", "2", "--out", str(out)])
    assert code == 0
    results = read_json(out)["results"]
    assert results["flag_mismatches"] == 0
    assert results["flag_agreements"] == 3000
    assert results["verdict"] == "protocol-consistent"


def test_qkd_transcript_json_export(tmp_path):
    out = tmp_path / "qkd.json"
    transcript = tmp_path / "rounds.json"
    code = run(["qkd", "--strategy", "zpremeasure", "a=0.5", "c=0", "--n", "50",
                "--seed", "2", "--out", str(out), "--transcript-out", str(transcript)])
    assert code == 0
    rounds = read_json(transcript)["rounds"]
    assert len(rounds) == 50
    assert {"flag_a", "flag_b"} <= set(rounds[0])


def test_simulate_cross_pairs_flag(tmp_path):
    out = tmp_path / "full.json"
    assert run(["simulate", "--kind", "extended", "--cross-pairs",
                "--out", str(out)]) == 0
    joints = read_json(out)["results"]["joints"]
    assert "D,E" in joints and len(joints) == 36


def test_qkd_requires_seed():
    assert run(["qkd", "--strategy", "honest", "a=1", "--n", "10"]) == 2


def test_qkd_unknown_strategy_is_usage_error():
    assert run(["qkd", "--strategy", "teleport", "--seed", "1"]) == 2


def test_reports_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    args = ["qkd", "--strategy", "honest", "a=0.5", "c=0.5", "--n", "5000", "--seed", "42"]
    assert run(args + ["--out", str(out1), "--transcript-out", str(t1)]) == 0
    assert run(args + ["--out", str(out2), "--transcript-out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    # reports embed the output path in the config, which differs by design;
    # strip it and compare the rest
    d1, d2 = read_json(out1), read_json(out2)
    d1["config"].pop("out"); d1["config"].pop("transcript_out")
    d2["config"].pop("out"); d2["config"].pop("transcript_out")
    assert dumps(d1) == dumps(d2)

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["selftest", "--kind", "mayersyao", "--sampled", "n=5000", "seed=9"]
    assert run(args + ["--out", str(s1)]) == 0
    assert run(args + ["--out", str(s2)]) == 0
    e1, e2 = read_json(s1), read_json(s2)
    e1["config"].pop("out"); e2["config"].pop("out")
    assert dumps(e1) == dumps(e2)


def test_workers_flag_does_not_change_outputs(tmp_path):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    base = ["qkd", "--strategy", "honest", "a=1", "--n", "2000", "--seed", "3"]
    assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run(base + ["--workers", "8", "--out", str(out2)]) == 0
    r1, r2 = read_json(out1), read_json(out2)
    assert r1["results"] == r2["results"]


def test_config_file_supplies_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(dumps({"seed": 5, "n": 1000}))
    out = tmp_path / "qkd.json"
    code = run(["--config", str(config), "qkd", "--strategy", "honest", "a=1",
                "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["seed"] == 5
    assert data["results"]["total_rounds"] == 1000


def test_config_file_supplies_the_strategy(tmp_path, monkeypatch):
    # --strategy is checked after the config file is merged, like any other flag; the
    # config form's report is the flag form's but for the config path it records
    monkeypatch.chdir(tmp_path)
    assert run(["qkd", "--strategy", "honest", "a=0.5", "--seed", "2", "--n", "300",
                "--out", "report.json"]) == 0
    flag_form = Path("report.json").read_bytes()
    config = write_config(tmp_path, {"strategy": ["honest", "a=0.5"], "seed": 2, "n": 300})
    assert run(["--config", config, "qkd", "--out", "report.json"]) == 0
    report = read_json(Path("report.json"))
    assert report["config"].pop("config") == config
    assert dumps(report).encode() == flag_form


@pytest.mark.parametrize("value, flags", [(True, ["--cross-pairs"]), (False, []), (None, [])])
def test_a_config_true_stands_in_for_its_flag(tmp_path, monkeypatch, value, flags):
    # true gives the bare flag's bytes; false and null leave the flag unset
    monkeypatch.chdir(tmp_path)
    simulate = ["simulate", "--kind", "extended", "--out", "report.json"]
    assert run(simulate + flags) == 0
    flag_form = Path("report.json").read_bytes()
    config = write_config(tmp_path, {"cross_pairs": value})
    assert run(["--config", config, *simulate]) == 0
    report = read_json(Path("report.json"))
    assert report["config"].pop("config") == config
    assert dumps(report).encode() == flag_form


def test_flags_win_over_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(dumps({"seed": 5, "n": 1000}))
    out = tmp_path / "qkd.json"
    code = run(["--config", str(config), "qkd", "--strategy", "honest", "a=1",
                "--n", "500", "--seed", "6", "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["seed"] == 6
    assert data["results"]["total_rounds"] == 500


def write_config(tmp_path, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))         # a user's file may hold NaN and Infinity
    return str(config)


def test_config_value_goes_through_flag_type(tmp_path, capsys):
    config = write_config(tmp_path, {"tol": "abc"})
    with pytest.raises(SystemExit) as stop:
        run(["--config", config, "selftest", "--kind", "mayersyao"])
    assert stop.value.code == 2
    assert "error: argument --tol: invalid float value: 'abc'" in capsys.readouterr().err


def test_config_values_are_converted_like_flags(tmp_path):
    config = write_config(tmp_path, {"tol": "1e-8", "kind": "mayersyao", "seed": "4"})
    out = tmp_path / "report.json"
    assert run(["--config", config, "selftest", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["seed"] == 4
    assert data["results"]["kind"] == "mayersyao"
    assert data["results"]["tol"] == 1e-8


def test_abbreviated_flags_are_refused(tmp_path, capsys):
    # a config key yields only to a flag given by its full name, so a prefix would lose to it
    config = write_config(tmp_path, {"trials": 7, "dim": 2})
    with pytest.raises(SystemExit) as stop:
        run(["--config", config, "props", "--tri", "3", "--di", "3"])
    assert stop.value.code == 2
    assert "error: unrecognized arguments: --tri 3 --di 3" in capsys.readouterr().err
    out = tmp_path / "props.json"
    assert run(["--config", config, "props", "--trials", "3", "--dim", "3",
                "--out", str(out)]) == 0
    assert {k: read_json(out)["config"][k] for k in ("trials", "dim")} == {"trials": 3, "dim": 3}


@pytest.mark.parametrize("argv, config", [
    (["props", "--trials", "0"], None),
    (["props"], {"trials": -5}),
])
def test_nonpositive_trials_is_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        argv = ["--config", write_config(tmp_path, config)] + argv
    assert run(argv) == 2
    assert "error: --trials must be at least 1" in capsys.readouterr().err


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def edited_member(edit):
    """The (0.3, 0.2) member's experiment document as text, after ``edit``."""
    document = experiment_to_json(family_experiment(SimParams(0.3, 0.2), "extended"))
    edit(document)
    return json.dumps(document)


def without(document, *path):
    """Remove the key at ``path`` from ``document``."""
    *parents, key = path
    for parent in parents:
        document = document[parent]
    del document[key]


SIMULATE, SELFTEST = ["simulate", "--experiment", "{path}"], ["selftest", "--experiment", "{path}"]
CUSTOM_SOURCE = ["qkd", "--strategy", "custom", "{path}", "--seed", "1"]
PROPS_CONFIG = ["--config", "{path}", "props", "--trials", "2"]


# at the parent, every case but config_not_an_object and unknown_claim printed a TypeError,
# KeyError or AttributeError, or (string_claims) a claim's first letter, in place of the field
@pytest.mark.parametrize("argv, text, line", [
    (SIMULATE, '{"state": {}}', "{path}: kind: required key missing"),
    (CUSTOM_SOURCE, '{"strategy": "honest"}', "{path}: a: required key missing"),
    (["--config", "{path}", "props"], "[1,2]", "--config {path}: expected a JSON object"),
    (PROPS_CONFIG, '{"fixtures": [{"matrix": 1}]}',
     "{path}: fixtures[0].matrix: expected a non-empty JSON array, got 1"),
    (SELFTEST, edited_member(lambda d: d.update(kind=["extended"])),
     "{path}: kind: expected a JSON string, got an array of 1"),
    (SELFTEST, edited_member(lambda d: d.update(state={"dims": d["state"]["dims"],
                                                       "amplitudes": 5})),
     "{path}: state.amplitudes: expected a non-empty JSON array, got 5"),
    (SELFTEST, edited_member(lambda d: d["parties"]["A"]["observables"].update(X=[5])),
     "{path}: parties.A.observables.X[0]: expected a non-empty JSON array, got 5"),
    (SELFTEST, edited_member(lambda d: without(d, "state")), "{path}: state: required key missing"),
    (SELFTEST, edited_member(lambda d: without(d, "parties", "B", "dims")),
     "{path}: parties.B.dims: required key missing"),
    (PROPS_CONFIG, '{"fixtures": [5]}', "{path}: fixtures[0]: expected a JSON object, got 5"),
    (PROPS_CONFIG, '{"fixtures": [{"matrix": [[[1, 0]]], "claims": "hermitian"}]}',
     '{path}: fixtures[0].claims: expected a JSON array, got "hermitian"'),
    (PROPS_CONFIG, '{"fixtures": [{"matrix": [[[1, 0]]], "claims": ["hermitian", "real"]}]}',
     "{path}: fixtures[0].claims[1]: unknown claim 'real' (known: hermitian, unitary, psd)"),
    # at the parent, three items were named fixture[?:hermitian]: one passed, two failed
    (PROPS_CONFIG, '{"fixtures": [{"matrix": [[[1, 0]]], "claims": ["hermitian"]}, '
                   '{"matrix": [[[1, 1]]], "claims": ["hermitian", "hermitian"]}]}',
     "{path}: fixtures[1].claims[0]: item fixture[?:hermitian] given twice"),
], ids=["experiment_without_kind", "custom_strategy_without_a", "config_not_an_object",
        "config_fixture_without_matrix", "list_kind", "number_amplitudes", "number_observable_row",
        "experiment_without_state", "party_without_dims", "number_fixture", "string_claims",
        "unknown_claim", "repeated_fixture_item"])
def test_malformed_json_input_is_usage_error(tmp_path, capsys, argv, text, line):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([a.format(path=path) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line.format(path=path)}\n")


@pytest.mark.parametrize("flags", [{"A": 0, "B": 0}, {"A": 0, "B": 9}, {"A": -1, "B": 2},
                                   {"A": 2, "B": 3}, {"A": 0}, {"A": 0.7, "B": 2.9},
                                   {"A": "0", "B": "2"}, {"A": True, "B": 2}],
                         ids=["same_register", "past_the_end", "negative", "in_the_other_block",
                              "no_B", "float", "string", "bool"])
def test_flag_registers_outside_their_party_are_usage_errors(tmp_path, flags):
    document = experiment_to_json(family_experiment(SimParams(0.5, 0.5), "extended"))
    document["flag_registers"] = flags
    path = tmp_path / "experiment.json"
    path.write_text(dumps(document))
    env = {**os.environ, "PYTHONPATH": str(Path(conjsim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "conjsim", "selftest", "--experiment", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert one_error_line(proc.stderr) and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: flag_registers")


def non_integer_documents():
    """(name, document, argv) whose dims entry or flag bit is a JSON float or bool."""
    member = experiment_to_json(family_experiment(SimParams(0.5, 0.5), "extended"))
    state_dims = json.loads(json.dumps(member))
    state_dims["state"]["dims"] = [2.0, 2.9, 2, 2]
    party_dims = json.loads(json.dumps(member))
    party_dims["parties"]["B"]["dims"] = [2, 2.0]
    mismatched = {"strategy": "mismatched_flags", "flag_a": 0.9, "flag_b": True}
    selftest = ["selftest", "--experiment", "{path}"]
    return [("state_dims", state_dims, selftest), ("party_dims", party_dims, selftest),
            ("flag_a", mismatched, ["qkd", "--strategy", "custom", "{path}", "--seed", "1"])]


def test_non_integer_dims_and_flag_bits_are_usage_errors(tmp_path):
    cases = non_integer_documents()
    for name, document, _ in cases:
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    results = fresh_main(tmp_path, *[[a.format(path=f"{name}.json") for a in argv]
                                     for name, _, argv in cases])
    for (name, _, _), (code, stdout, err, _) in zip(cases, results):
        assert (code, stdout) == (2, ""), name
        assert one_error_line(err) and "Traceback" not in err, name
        assert err.startswith(f"error: {name}.json: ") and "expected a JSON integer" in err, name


STRATEGY_DOCUMENTS_WITH_FOREIGN_VALUES = [
    ("c", {"strategy": "honest", "a": 0.5, "c": 0.5},
     "unknown key (known: strategy, a, c_abs, c_phase)"),
    ("flag_a", {"strategy": "conjugate", "flag_a": 0}, "unknown key (known: strategy)"),
    ("state", {"strategy": "mismatched_flags", "flag_a": 0, "flag_b": 1, "state": {}},
     "unknown key"),
    ("a", {"strategy": "honest", "a": "0.5"}, 'expected a JSON number, got "0.5"'),
    ("a", {"strategy": "zpremeasure", "a": True}, "expected a JSON number, got true"),
    ("c_phase", {"strategy": "honest", "a": 0.5, "c_abs": 0.5, "c_phase": False},
     "expected a JSON number"),
]


def test_strategy_documents_read_only_their_own_keys_as_numbers(tmp_path):
    # at the parent each of these ran: "c" was ignored, "0.5" and true were read as numbers
    argvs = []
    for i, (_, document, _) in enumerate(STRATEGY_DOCUMENTS_WITH_FOREIGN_VALUES):
        (tmp_path / f"s{i}.json").write_text(json.dumps(document))
        argvs.append(["qkd", "--strategy", "custom", f"s{i}.json", "--n", "100", "--seed", "1"])
    results = fresh_main(tmp_path, *argvs)
    for i, ((key, _, detail), (code, stdout, err, _)) in enumerate(
            zip(STRATEGY_DOCUMENTS_WITH_FOREIGN_VALUES, results)):
        assert (code, stdout) == (2, ""), key
        assert one_error_line(err) and "Traceback" not in err, key
        assert err.startswith(f"error: s{i}.json: {key}: ") and detail in err, err


def listed(document, *path):
    """Replace the object at ``path`` in ``document`` by the list of its values."""
    *parents, key = path
    for parent in parents:
        document = document[parent]
    document[key] = list(document[key].values())


EXPERIMENT = ["selftest", "--experiment"]
CUSTOM = ["qkd", "--seed", "1", "--strategy", "custom"]
NOT_OBJECTS = [
    (EXPERIMENT, '"strategy"', 'expected a JSON object, got "strategy"'),
    (EXPERIMENT, "5", "expected a JSON object, got 5"),
    (EXPERIMENT, '{"kind": "extended", "state": {}, "parties": []}',
     "parties: expected a JSON object, got an array of 0"),
    (CUSTOM, '"strategy"', 'expected a JSON object, got "strategy"'),
    (CUSTOM, "5", "expected a JSON object, got 5"),
    (CUSTOM, "[1, 2]", "expected a JSON object, got an array of 2"),
    (EXPERIMENT, edited_member(lambda d: listed(d, "parties", "A", "observables")),
     "parties.A.observables: expected a JSON object, got an array of 6"),
    (EXPERIMENT, edited_member(lambda d: listed(d, "flag_registers")),
     "flag_registers: expected a JSON object, got an array of 2"),
    (EXPERIMENT, edited_member(lambda d: d["state"].update(dims=16)),
     "state.dims: expected a JSON array, got 16"),
    (EXPERIMENT, edited_member(lambda d: d["parties"]["B"].update(dims=4)),
     "parties.B.dims: expected a JSON array, got 4"),
]


@pytest.mark.parametrize("argv, text, detail", NOT_OBJECTS, ids=[
    "experiment_string", "experiment_number", "experiment_parties_list",
    "custom_string", "custom_number", "custom_list", "observables_list",
    "flag_registers_list", "state_dims_number", "party_dims_number"])
def test_documents_that_are_not_objects_are_named_so(tmp_path, capsys, argv, text, detail):
    # at the parent '"strategy"' was refused for a key 's' and 5 as "'int' object is not
    # iterable"; a list of observables or flag registers as an AttributeError
    path = tmp_path / "d.json"
    path.write_text(text)
    assert run([*argv, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {detail}\n")


def foreign_documents():
    """(field, document, argv, detail): documents with a key no decoder reads, or a complex
    part that is no JSON number; each ran at the parent, with the key ignored or true read as 1."""
    member = experiment_to_json(family_experiment(SimParams(0.3, 0.2), "extended"))

    def edited(edit):
        document = json.loads(json.dumps(member))
        edit(document)
        return document

    def misspelt(document):
        document["flag_register"] = document.pop("flag_registers")

    x_b = member["parties"]["B"]["observables"]["X"]
    r = next(i for i, row in enumerate(x_b) if [1.0, 0.0] in row)
    c = x_b[r].index([1.0, 0.0])

    def bool_entry(document):                   # a 1 of X_B, so the observable stays binary
        document["parties"]["B"]["observables"]["X"][r][c] = [True, 0]

    ket = [[1.0, 0.0]] + [[0.0, 0.0]] * 15
    selftest, qkd = ["selftest", "--experiment"], ["qkd", "--n", "100", "--seed", "1",
                                                   "--strategy", "custom"]
    return [
        ("flag_register", edited(misspelt), selftest,
         "unknown key (known: kind, state, parties, flag_registers)"),
        ("parties.C", edited(lambda d: d["parties"].update(C=d["parties"]["B"])), selftest,
         "unknown key (known: A, B)"),
        ("parties.A.observable", edited(lambda d: d["parties"]["A"].update(observable={})),
         selftest, "unknown key (known: dims, observables)"),
        ("state.comment", edited(lambda d: d["state"].update(comment="")), selftest,
         "unknown key (known: dims, amplitudes, matrix)"),
        (f"parties.B.observables.X[{r}][{c}][0]", edited(bool_entry), selftest,
         "expected a JSON number, got true"),
        ("comment", {"dims": [2, 2, 2, 2], "amplitudes": ket, "comment": ""}, qkd,
         "unknown key (known: dims, amplitudes, matrix)"),
        ("amplitudes[0][0]", {"dims": [2, 2, 2, 2], "amplitudes": [[True, False]] + ket[1:]},
         qkd, "expected a JSON number, got true"),
        ("state.matrix[0][0][0]", {"strategy": "custom_state", "state": {
            "dims": [2, 2, 2, 2],
            "matrix": [[[True, False]] + [[0, 0]] * 15] + [[[0, 0]] * 16] * 15}},
         qkd, "expected a JSON number, got true"),
    ]


def test_documents_with_unread_keys_or_non_number_parts_are_usage_errors(tmp_path):
    cases = foreign_documents()
    for i, (_, document, _, _) in enumerate(cases):
        (tmp_path / f"d{i}.json").write_text(json.dumps(document))
    results = fresh_main(tmp_path, *[[*argv, f"d{i}.json"] for i, (_, _, argv, _) in
                                     enumerate(cases)])
    for i, ((field, _, _, detail), (code, stdout, err, _)) in enumerate(zip(cases, results)):
        assert (code, stdout) == (2, ""), field
        assert one_error_line(err) and "Traceback" not in err, field
        assert err.startswith(f"error: d{i}.json: {field}: ") and detail in err, err


@pytest.mark.parametrize("document, field", [
    ({"dims": [2, 2, 2, 2], "amplitudes": [[10**400, 0]] + [[0, 0]] * 15}, "amplitudes[0][0]"),
    ({"strategy": "honest", "a": 10**400}, "a"),
], ids=["amplitude", "a"])
def test_a_json_integer_past_the_float_range_is_a_usage_error(tmp_path, capsys, document, field):
    # float() of the integer once raised an OverflowError past main, a traceback, and then
    # printed "OverflowError: int too large to convert to float" without naming the field
    path = tmp_path / "source.json"
    path.write_text(json.dumps(document))
    assert run(["qkd", "--strategy", "custom", str(path), "--seed", "1", "--n", "10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and one_error_line(out.err)
    assert out.err.startswith(f"error: {path}: {field}: 1000") and "past the float range" in out.err


def nan_inputs():
    """An experiment with one NaN amplitude, and a custom QKD source state with one."""
    experiment = experiment_to_json(reference_experiment("extended"))
    experiment["state"]["amplitudes"][0][0] = float("nan")
    source = state_to_json(source_state(MismatchedFlags(0, 0)))
    source["matrix"][0][0][0] = float("nan")
    return experiment, source


@pytest.mark.parametrize("argv, document", [
    (["simulate", "--experiment", "{path}"], 0),
    (["selftest", "--experiment", "{path}"], 0),
    (["qkd", "--strategy", "custom", "{path}", "--seed", "1", "--n", "100"], 1),
], ids=["simulate", "selftest", "qkd_custom"])
def test_nan_in_input_state_is_usage_error(tmp_path, capsys, argv, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(nan_inputs()[document]))
    assert run([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and str(path) in err


EDGE_A = (0.0, 1e-15, 1e-13, 1e-12, 2e-12, 1e-9, 1 - 1e-12, 1.0)


@pytest.mark.parametrize("at_bound", [False, True], ids=["c0", "cmax"])
@pytest.mark.parametrize("a", EDGE_A)
def test_selftest_at_the_family_edge_passes_or_is_infeasible(tmp_path, capsys, a, at_bound):
    # eigenvalues of order tol used to be dropped without renormalising, and a
    # later trace check failed with exit 1
    c = float(np.sqrt(a * (1 - a))) if at_bound else 0.0
    out = tmp_path / "report.json"
    code = run(["selftest", "--family", f"a={a!r}", f"c={c!r}", "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert one_error_line(err) and "exceeds sqrt(a(1-a))" in err
        return
    assert code == 0, err
    results = read_json(out)["results"]
    assert results["verdict"] == "pass"
    assert results["flag_populations"]["population_0"] == pytest.approx(a, abs=1e-9)


@pytest.mark.parametrize("argv, message", [
    (["props", "--dim", "0"], "--dim must be at least 1"),
    (["selftest", "--sampled", "n=0", "seed=1"], "--sampled n must be at least 1"),
    (["selftest", "--sampled", "n=ten", "seed=1"], "--sampled: invalid literal"),
    (["qkd", "--strategy", "honest", "a=0.5", "c=0.9", "--seed", "1"], "exceeds sqrt(a(1-a))"),
    (["qkd", "--strategy", "mismatched", "2", "0", "--seed", "1"], "flags must be bits"),
    (["qkd", "--strategy", "conjugate", "--seed", "-1"], "--seed must be non-negative"),
])
def test_invalid_values_are_usage_errors(capsys, argv, message):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and message in err


@pytest.mark.parametrize("argv, message", [
    (["qkd", "--strategy", "honest", "c=0.3", "--seed", "1"],
     "error: --strategy honest requires a=<float>"),
    (["qkd", "--strategy", "zpremeasure", "c=0.3", "--seed", "1"],
     "error: --strategy zpremeasure requires a=<float>"),
    (["qkd", "--strategy", "honest", "a=x", "--seed", "1"],
     "error: --strategy honest: could not convert"),
    (["qkd", "--strategy", "zpremeasure", "a=0.5", "b=1", "--seed", "1"],
     "error: --strategy zpremeasure: unknown key 'b'"),
    (["selftest", "--family", "c=0.3"], "error: --family requires a=<float>"),
    # a non-finite value is named by its key, not as a coherence |c| = nan
    (["qkd", "--strategy", "honest", "a=0.3", "c_phase=inf", "--seed", "1"],
     "error: --strategy honest: c_phase: expected a finite number, got inf\n"),
    (["qkd", "--strategy", "zpremeasure", "a=0.3", "c_abs=-inf", "--seed", "1"],
     "error: --strategy zpremeasure: c_abs: expected a finite number, got -inf\n"),
    (["selftest", "--family", "a=0.3", "c_phase=nan"],
     "error: --family: c_phase: expected a finite number, got nan\n"),
    (["simulate", "--family", "a=nan"], "error: --family: a: expected a finite number, got nan\n"),
])
def test_family_errors_name_their_flag(capsys, argv, message):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and err.startswith(message)
    assert ("--family" in err) == ("--family" in argv)


TOLERANCE_FLAGS = [
    (["props", "--trials", "2"], "tol"),
    (["selftest", "--kind", "mayersyao"], "tol"),
    (["selftest", "--kind", "mayersyao"], "stats_tol"),
    (["qkd", "--strategy", "conjugate", "--n", "10", "--seed", "1"], "threshold"),
]


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
@pytest.mark.parametrize("argv, key", TOLERANCE_FLAGS, ids=lambda v: v if isinstance(v, str) else v[0])
def test_nonfinite_or_negative_tolerance_is_usage_error(tmp_path, capsys, argv, key, value,
                                                        from_config):
    flag = "--" + key.replace("_", "-")
    if from_config:
        argv = ["--config", write_config(tmp_path, {key: value})] + argv
    else:
        argv = argv + [f"{flag}={value!r}"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and f"{flag} must be finite and non-negative" in err


@pytest.mark.parametrize("argv, key", TOLERANCE_FLAGS, ids=lambda v: v if isinstance(v, str) else v[0])
def test_zero_tolerance_stays_valid(tmp_path, capsys, argv, key):
    code = run(argv + ["--" + key.replace("_", "-"), "0", "--out", str(tmp_path / "r.json")])
    assert code in (0, 1)
    assert "must be finite" not in capsys.readouterr().err
    assert read_json(tmp_path / "r.json")["config"][key] == 0.0


# Runs main on each argv in turn in one fresh interpreter and prints, per argv,
# [exit code, stdout, stderr, the numpy and conjsim.* modules loaded so far].
FRESH_MAIN = """
import contextlib, io, json, sys
import conjsim.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    results.append([code, out.getvalue(), err.getvalue(),
                    sorted(m for m in sys.modules if m == "numpy" or m.startswith("conjsim."))])
print(json.dumps(results))
"""


def fresh_interpreter(code, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(Path(conjsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, check=True, timeout=120, cwd=cwd)
    return json.loads(out.stdout)


def fresh_main(tmp_path, *argvs):
    return fresh_interpreter(FRESH_MAIN, json.dumps(argvs), cwd=tmp_path)


def test_cli_import_loads_no_pool_modules():
    # --workers is a no-op: importing a process or thread pool would only add start-up time.
    # Parsing loads no numeric module either: each subcommand imports what it runs.
    probe = ("import json, sys, conjsim.cli as cli; cli.build_parser(); "
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('numpy', 'conjsim', 'multiprocessing', 'concurrent'))))")
    assert fresh_interpreter(probe) == ["conjsim", "conjsim.cli"]


USAGE_WITHOUT_NUMPY = [
    (["--help"], 0, ""),
    (["props", "--trials", "x"], 2, "argument --trials: invalid int value: 'x'\n"),
    (["props", "--dim", "9"], 2, "error: --dim 9 exceeds the supported bound 8\n"),
    (["qkd", "--strategy", "conjugate", "--n", "0", "--seed", "1"], 2,
     "error: --n must be at least 1\n"),
    (["qkd", "--strategy", "conjugate", "--n", "10"], 2,
     "error: qkd requires a seed (no wall-clock seeding)\n"),
    (["selftest", "--family", "a=0.5", "--experiment", "exp.json"], 2,
     "error: give either --experiment or --family, not both\n"),
    (["selftest", "--kind", "mayersyao", "--sampled", "n=100"], 2,
     "error: sampled mode requires a seed (no wall-clock seeding)\n"),
    (["selftest", "--sampled", "n=0", "seed=1"], 2, "error: --sampled n must be at least 1\n"),
    # a count numpy cannot draw was refused by the numeric code, with exit 1
    (["qkd", "--strategy", "conjugate", "--n", str(2**63), "--seed", "1"], 2,
     "error: --n must be below 2**63\n"),
    (["selftest", "--sampled", f"n={2**63}", "seed=1"], 2,
     "error: --sampled n must be below 2**63\n"),
    (["--config", "huge_n.json", "qkd", "--strategy", "conjugate", "--seed", "1"], 2,
     "error: --n must be below 2**63\n"),
    (["simulate", "--experiment", "missing.json"], 2,
     "error: --experiment missing.json: No such file or directory\n"),
    (["simulate", "--experiment", "not_json.json"], 2,
     "error: --experiment not_json.json: not JSON (Expecting value: line 1 column 1 (char 0))\n"),
    (["qkd", "--strategy", "honest", "--seed", "1"], 2,
     "error: --strategy honest requires a=<float>\n"),
    (["qkd", "--strategy", "bogus", "--seed", "1"], 2, "error: unknown strategy 'bogus'\n"),
    (["qkd", "--strategy", "mismatched", "0", "--seed", "1"], 2,
     "error: --strategy mismatched needs two flag bits\n"),
    (["selftest", "--family", "a=x"], 2,
     "error: --family: could not convert string to float: 'x'\n"),
    (["selftest", "--family", "a=0.3", "a=0.7"], 2, "error: --family: key 'a' given twice\n"),
    (["qkd", "--strategy", "honest", "a=0.1", "a=0.9", "--seed", "1"], 2,
     "error: --strategy honest: key 'a' given twice\n"),
    (["selftest", "--sampled", "n=10", "n=20"], 2, "error: --sampled: key 'n' given twice\n"),
    (["simulate", "--family", "a=0.3", "c=0.1", "c_abs=0.1"], 2,
     "error: --family: give c= or c_abs=, not both\n"),
    (["qkd", "--strategy", "conjugate", "x", "--seed", "1"], 2,
     "error: --strategy conjugate takes no values, got 'x'\n"),
    (["qkd", "--seed", "1"], 2, "error: qkd requires --strategy\n"),
    (["selftest", "--kind", "mayersyao", "--seed", "2", "--sampled", "n=100", "seed=1"], 2,
     "error: give the sampled seed as --sampled seed= or as --seed, not both\n"),
    (["--config", "seed.json", "selftest", "--sampled", "n=100", "seed=1"], 2,
     "error: give the sampled seed as --sampled seed= or as --seed, not both\n"),
    # an empty path once meant "not given": the reference passed, or stdout got the report
    (["selftest", "--experiment", ""], 2, "error: --experiment: empty path\n"),
    (["simulate", "--experiment", ""], 2, "error: --experiment: empty path\n"),
    (["qkd", "--strategy", "conjugate", "--n", "5", "--seed", "1", "--transcript-out", ""], 2,
     "error: --transcript-out: empty path\n"),
    (["props", "--trials", "1", "--out", ""], 2, "error: --out: empty path\n"),
    (["--config", "", "props", "--trials", "1"], 2, "error: --config: empty path\n"),
    (["qkd", "--strategy", "custom", "", "--seed", "1"], 2,
     "error: --strategy custom needs a JSON state/strategy path\n"),
]


def test_usage_errors_are_answered_without_numpy(tmp_path):
    (tmp_path / "not_json.json").write_text("")
    (tmp_path / "seed.json").write_text('{"seed": 2}')
    (tmp_path / "huge_n.json").write_text(json.dumps({"n": 2**63}))
    results = fresh_main(tmp_path, *[argv for argv, _, _ in USAGE_WITHOUT_NUMPY])
    for (argv, code, message), (got, stdout, err, modules) in zip(USAGE_WITHOUT_NUMPY, results):
        assert got == code and err.endswith(message), argv
        assert modules == ["conjsim.cli"], argv
    assert results[0][1].startswith("usage: conjsim")


DOCUMENT_FLAGS = {"--config": ["--config", "{path}", "props"],
                  "--experiment": ["selftest", "--experiment", "{path}"],
                  "--strategy custom": ["qkd", "--strategy", "custom", "{path}", "--seed", "1"]}
BAD_DOCUMENTS = {"not_utf8.json": "not UTF-8 text", "malformed.json": "not JSON",
                 "a_directory": "Is a directory",
                 "repeated_key.json": "key 'a' given twice\n",
                 "repeated_nested_key.json": "key 'dims' given twice\n"}


def test_unreadable_documents_are_usage_errors(tmp_path):
    # a repeated key kept its last value without a word before it was refused
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "malformed.json").write_text('{"kind": ')
    (tmp_path / "repeated_key.json").write_text('{"strategy": "honest", "a": 0.3, "a": 0.7}')
    (tmp_path / "repeated_nested_key.json").write_text(
        '{"state": {"dims": [2, 2], "amplitudes": [], "dims": [4]}}')
    (tmp_path / "a_directory").mkdir()
    cases = [(flag, name) for flag in DOCUMENT_FLAGS for name in BAD_DOCUMENTS]
    argvs = [[a.format(path=tmp_path / name) for a in DOCUMENT_FLAGS[flag]]
             for flag, name in cases]
    for (flag, name), (code, stdout, err, modules) in zip(cases, fresh_main(tmp_path, *argvs)):
        assert (code, stdout) == (2, ""), (flag, name)
        assert err.startswith(f"error: {flag} {tmp_path / name}: {BAD_DOCUMENTS[name]}"), \
            (flag, name)
        assert err.count("\n") == 1 and "Traceback" not in err, (flag, name)
        assert modules == ["conjsim.cli"], (flag, name)


QKD = ["qkd", "--strategy", "conjugate", "--n", "300", "--seed", "1"]
OUTPUT_FLAGS = {"props --out": ["props", "--trials", "1", "--out", "{path}"],
                "selftest --out": ["selftest", "--out", "{path}"],
                "simulate --out": ["simulate", "--out", "{path}"],
                "qkd --out": QKD + ["--out", "{path}"],
                "qkd --transcript-out": QKD + ["--transcript-out", "{path}"]}
BAD_OUTPUTS = {"a_directory": "Is a directory",
               "missing/report.out": "parent directory does not exist",
               "missing/": "parent directory does not exist"}


def test_unwritable_outputs_are_refused_before_the_work(tmp_path):
    (tmp_path / "a_directory").mkdir()
    cases = [(label, name) for label in OUTPUT_FLAGS for name in BAD_OUTPUTS]
    argvs = [[a.format(path=f"{tmp_path}/{name}") for a in OUTPUT_FLAGS[label]]
             for label, name in cases]
    for (label, name), (code, stdout, err, modules) in zip(cases, fresh_main(tmp_path, *argvs)):
        flag = label.split()[1]
        assert (code, stdout) == (2, ""), (label, name)
        assert err == f"error: {flag} {tmp_path}/{name}: {BAD_OUTPUTS[name]}\n", (label, name)
        assert modules == ["conjsim.cli"], (label, name)      # refused before any numeric work
    assert [p.name for p in tmp_path.iterdir()] == ["a_directory"]
    assert list((tmp_path / "a_directory").iterdir()) == []


def test_one_file_named_by_both_outputs_is_refused_before_the_work(tmp_path):
    # the report used to overwrite the transcript
    (tmp_path / "link.json").symlink_to(tmp_path / "same.json")
    argvs = [QKD + ["--out", "same.json", "--transcript-out", transcript]
             for transcript in ("same.json", "link.json", f"{tmp_path}/same.json")]
    for argv, (code, stdout, err, modules) in zip(argvs, fresh_main(tmp_path, *argvs)):
        assert (code, stdout) == (2, ""), argv
        assert err == f"error: --out same.json and --transcript-out {argv[-1]} name one file\n"
        assert modules == ["conjsim.cli"], argv
    assert [p.name for p in tmp_path.iterdir()] == ["link.json"]


def test_a_failed_write_keeps_the_existing_file(tmp_path, monkeypatch):
    out = tmp_path / "transcript.csv"
    out.write_text("earlier run\n")
    encode = serialize.transcript_to_csv

    def failing(transcript, handle):
        handle.write("partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(serialize, "transcript_to_csv", failing)
    assert run(QKD + ["--transcript-out", str(out)]) == 1      # the work ran: no usage error
    assert out.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.csv"]
    monkeypatch.setattr(serialize, "transcript_to_csv", encode)
    assert run(QKD + ["--transcript-out", str(out)]) == 0
    assert out.read_text().startswith("round,")
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.csv"]


def test_outputs_through_symlinks_and_fifos_keep_the_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("target.json").write_text("earlier run\n")
    Path("link.json").symlink_to("target.json")
    Path("dangling.json").symlink_to("later.json")
    Path("nowhere.json").symlink_to("missing/report.json")
    os.mkfifo("fifo")
    reader = os.open("fifo", os.O_RDONLY | os.O_NONBLOCK)    # so opening it to write won't block
    try:
        for name in ("link.json", "dangling.json", "fifo"):
            assert run(QKD + ["--out", name]) == 0, name
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    reports = [json.loads(text) for text in (Path("target.json").read_text(),
                                             Path("later.json").read_text(), received)]
    assert [r["config"]["out"] for r in reports] == ["link.json", "dangling.json", "fifo"]
    assert reports[0]["results"] == reports[1]["results"] == reports[2]["results"]
    assert (os.readlink("link.json"), os.readlink("dangling.json")) == ("target.json", "later.json")
    assert stat.S_ISFIFO(os.stat("fifo").st_mode)
    capsys.readouterr()
    assert run(QKD + ["--out", "nowhere.json"]) == 2
    assert capsys.readouterr().err == "error: --out nowhere.json: parent directory does not exist\n"
    assert sorted(os.listdir()) == ["dangling.json", "fifo", "later.json", "link.json",
                                    "nowhere.json", "target.json"]


def conjsim_env(**changes):
    """The environment of a fresh ``python -m conjsim`` on this tree; a None value unsets."""
    env = {**os.environ, "PYTHONPATH": str(Path(conjsim.__file__).parents[1]), **changes}
    return {k: v for k, v in env.items() if v is not None}


def take_outputs(directory):
    """The bytes of each output file a job left in ``directory``, removing the files."""
    found = {}
    for name in ("report.json", "transcript.csv"):
        path = directory / name
        if path.exists():
            found[name] = path.read_bytes()
            path.unlink()
    return found


# exit 0 to stdout, exit 0 to files, exit 1 and exit 2, each after numpy has loaded
FAST_EXIT_JOBS = [
    (["simulate", "--kind", "mayersyao", "--family", "a=0.3", "--format", "csv"], 0),
    (QKD + ["--out", "report.json", "--transcript-out", "transcript.csv"], 0),
    (["--config", "fixture.json", "props", "--trials", "5", "--out", "report.json"], 1),
    (["qkd", "--strategy", "honest", "a=0.5", "c=0.9", "--seed", "1"], 2),
]


def test_a_fresh_job_ends_like_main_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixture.json").write_text(dumps({"fixtures": [
        {"label": "fake_unitary", "matrix": complex_to_json(np.diag([1.0, 2.0])),
         "claims": ["unitary"]}]}))
    for argv, code in FAST_EXIT_JOBS:
        proc = subprocess.run([sys.executable, "-m", "conjsim", *argv], capture_output=True,
                              text=True, env=conjsim_env(), timeout=120)
        fresh = (proc.returncode, proc.stdout, proc.stderr, take_outputs(tmp_path))
        capsys.readouterr()
        in_process = (main(argv), *capsys.readouterr(), take_outputs(tmp_path))
        assert fresh == in_process and fresh[0] == code, argv


def test_a_finished_job_skips_interpreter_teardown(tmp_path):
    """Once main returns, or argparse exits from it, no atexit handler runs."""
    probe = ("import atexit, runpy; atexit.register(print, 'teardown ran'); "
             "runpy.run_module('conjsim', run_name='__main__')")
    for argv, code, stdout in [(QKD + ["--out", "report.json"], 0, ""),
                               (["props", "--trials", "x"], 2, ""), (["--help"], 0, "usage:")]:
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, env=conjsim_env(), cwd=tmp_path, timeout=120)
        assert (proc.returncode, proc.stdout[:len(stdout) or None]) == (code, stdout), argv
        assert not proc.stdout.endswith("teardown ran\n"), argv
    assert json.loads((tmp_path / "report.json").read_text())["results"]


def test_a_fresh_job_runs_main_without_the_cyclic_collector(tmp_path):
    """The entry point turns the collector off; importing conjsim.__main__ does not."""
    probe = ("import gc, runpy, conjsim.__main__, conjsim.cli as cli; main = cli.main; "
             "print('on import', gc.isenabled()); "
             "cli.main = lambda: print('in main', gc.isenabled()) or main(); "
             "runpy.run_module('conjsim', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-W", "ignore::RuntimeWarning", "-c", probe, *QKD],
                          capture_output=True, text=True, env=conjsim_env(), cwd=tmp_path,
                          timeout=120)      # runpy warns that conjsim.__main__ was imported
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("on import True\nin main False\n{")


def test_main_in_process_leaves_the_cyclic_collector_on(capsys):
    assert gc.isenabled()
    assert run(QKD) == 0 and json.loads(capsys.readouterr().out)["results"]
    assert gc.isenabled()


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_one_error_line_and_exit_one(unbuffered):
    read, write = os.pipe()
    os.close(read)                  # the reader has gone before the job writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "conjsim", "simulate", "--kind", "mayersyao", "--family", "a=0.3"],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=conjsim_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def fresh_job(argv, *, cwd, setup, unbuffered=None, stdout=subprocess.PIPE):
    """A fresh ``python -m conjsim`` whose child runs ``setup`` before it starts."""
    return subprocess.run([sys.executable, "-m", "conjsim", *argv], cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, preexec_fn=setup, timeout=120,
                          env=conjsim_env(PYTHONUNBUFFERED=unbuffered))


def close_stdout():
    os.close(1)


def close_stderr():
    os.close(2)


def limit_file_size():
    """Cap the size of any file the process writes at 200 bytes; writing past it fails."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)       # or the signal would kill the job
    resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_stdout_closed_at_start_is_one_error_line_and_exit_one(tmp_path, unbuffered):
    proc = fresh_job(["simulate", "--kind", "mayersyao", "--family", "a=0.3"], cwd=tmp_path,
                     setup=close_stdout, unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 9] Bad file descriptor\n")


def test_a_closed_or_failing_stderr_keeps_the_exit_code(tmp_path):
    (tmp_path / "read_only").write_text("")

    def read_only_stderr():
        os.close(2)
        fd = os.open(tmp_path / "read_only", os.O_RDONLY)       # takes the free descriptor 2
        os.set_inheritable(fd, True)

    unseeded = ["qkd", "--strategy", "conjugate", "--n", "10"]
    infeasible = ["qkd", "--strategy", "honest", "a=0.5", "c=0.9", "--seed", "1"]
    refused_flag = ["props", "--trials", "x"]           # argparse's usage text and exit 2
    for setup in (close_stderr, read_only_stderr):
        for argv, code in ((unseeded, 2), (infeasible, 2), (refused_flag, 2),
                           (QKD + ["--out", "report.json"], 0)):
            proc = fresh_job(argv, cwd=tmp_path, setup=setup)
            assert (proc.returncode, proc.stdout) == (code, ""), (setup.__name__, argv)
    assert (tmp_path / "read_only").read_text() == ""
    proc = fresh_job(refused_flag, cwd=tmp_path, setup=None)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: conjsim props")
    assert json.loads((tmp_path / "report.json").read_text())["results"]


@pytest.mark.parametrize("flag", ["--out", "--transcript-out"])
def test_an_output_past_the_file_size_limit_is_exit_one(tmp_path, flag):
    (tmp_path / "big.out").write_text("earlier run\n")
    proc = fresh_job(QKD + ["--n", "100", flag, "big.out"], cwd=tmp_path, setup=limit_file_size)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 27] File too large\n")
    assert [p.name for p in tmp_path.iterdir()] == ["big.out"]
    assert (tmp_path / "big.out").read_text() == "earlier run\n"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_stdout_report_past_the_file_size_limit_is_exit_one(tmp_path, unbuffered):
    # unbuffered, a text stream drops what its raw file did not take; the report must not
    with open(tmp_path / "report.json", "w") as report:
        proc = fresh_job(QKD, cwd=tmp_path, setup=limit_file_size, unbuffered=unbuffered,
                         stdout=report)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 27] File too large\n")
    assert (tmp_path / "report.json").stat().st_size == 200


# the option dests of each subcommand, and of conjsim itself: 27 settable values
CLI_SURFACE = {
    "conjsim": {"config"},
    "props": {"out", "tol", "seed", "trials", "dim"},
    "selftest": {"out", "tol", "seed", "kind", "experiment", "family", "sampled", "stats_tol"},
    "simulate": {"out", "kind", "experiment", "family", "cross_pairs", "format"},
    "qkd": {"out", "workers", "seed", "strategy", "n", "threshold", "transcript_out"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {a.dest for a in p._actions if a.option_strings} - {"help"}
               for name, p in {"conjsim": parser, **subparsers.choices}.items()}
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 27


@pytest.mark.parametrize("argv, key", [(QKD, "tol"), (["simulate"], "tol"),
                                       (["simulate"], "seed"), (["props"], "workers"),
                                       (["selftest"], "workers"), (["simulate"], "workers")])
def test_a_flag_no_run_reads_is_refused_and_its_config_key_ignored(tmp_path, capsys, argv, key):
    with pytest.raises(SystemExit) as stop:
        run(argv + [f"--{key}", "1"])
    assert stop.value.code == 2
    assert f"error: unrecognized arguments: --{key} 1" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert run(["--config", write_config(tmp_path, {key: 1}), *argv, "--out", str(out)]) == 0
    assert key not in read_json(out)["config"]


@pytest.mark.parametrize("argv", [["props"], ["selftest"], QKD])
def test_format_belongs_to_simulate_alone(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as stop:
        run(argv + ["--format", "csv"])
    assert stop.value.code == 2
    assert "error: unrecognized arguments: --format csv" in capsys.readouterr().err
    config = write_config(tmp_path, {"format": "csv", "trials": 2, "n": 10})
    out = tmp_path / "report.json"
    assert run(["--config", config, *argv, "--out", str(out)]) == 0
    assert "format" not in read_json(out)["config"]


@pytest.mark.parametrize("argv, absent", [
    (["props", "--trials", "3", "--dim", "2"], {"conjsim.selftest", "conjsim.sixstate"}),
    (["selftest", "--kind", "mayersyao"], {"conjsim.family", "conjsim.sixstate"}),
    (["selftest", "--experiment", "experiment.json"], {"conjsim.family", "conjsim.sixstate"}),
    (["simulate", "--experiment", "experiment.json"], {"conjsim.family", "conjsim.sixstate"}),
    (["selftest", "--sampled", "n=50", "seed=1"], {"conjsim.sixstate"}),
    (["simulate", "--family", "a=0.5", "c=0.5", "--format", "csv"], {"conjsim.sixstate"}),
])
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    # conjsim.family loads only where a family member is built: not for a document's experiment
    (tmp_path / "experiment.json").write_text(
        dumps(experiment_to_json(reference_experiment("mayersyao"))))
    [(code, _, err, modules)] = fresh_main(tmp_path, argv + ["--out", "report.out"])
    assert (code, err) == (0, "")
    assert "numpy" in modules and absent.isdisjoint(modules)


def test_an_infeasible_family_strategy_is_refused_before_the_simulator_loads(tmp_path):
    [(code, out, err, modules)] = fresh_main(
        tmp_path, ["qkd", "--strategy", "honest", "a=0.5", "c=0.9", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "error: --strategy honest: |c| = 0.9 exceeds sqrt(a(1-a)) = 0.5\n"
    assert {"numpy", "conjsim.family"} <= set(modules)
    assert {"conjsim.selftest", "conjsim.sixstate"}.isdisjoint(modules)


def test_internal_value_error_exits_one(monkeypatch, capsys):
    def failing(*args):
        raise ValueError("outcome probabilities sum to nan")

    monkeypatch.setattr(sixstate, "run_rounds", failing)
    assert run(["qkd", "--strategy", "conjugate", "--n", "300", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: outcome probabilities sum to nan\n"


@pytest.mark.parametrize("n", [2**63, 10**20])
def test_a_sampled_count_past_the_binomial_range_is_a_usage_error(n, capsys):
    assert run(["selftest", "--kind", "mayersyao", "--sampled", f"n={n}", "seed=1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and one_error_line(out.err) and "below 2**63" in out.err


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 7.45 GiB for an array with shape (8000000000,) and "
                 "data type int8"),
     "error: out of memory (Unable to allocate 7.45 GiB for an array with shape "
     "(8000000000,) and data type int8)\n"),
])
def test_memory_error_exits_one_without_traceback(monkeypatch, capsys, error, line):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(sixstate, "run_rounds", exhausted)
    assert run(["qkd", "--strategy", "conjugate", "--n", "300", "--seed", "1"]) == 1
    assert capsys.readouterr().err == line


# --------------------------------------------------------------------------
# fuzzed flag and config-file combinations

AMBIGUOUS = [["a=0.3", "a=0.7"], ["a=0.3", "c=0.1", "c_abs=0.1"], ["n=10", "n=20"],
             ["honest", "a=0.1", "a=0.9"], ["conjugate", "x"]]     # refused wherever given
FAMILIES = [["a=0.5", "c=0.5"], ["a=1"], ["a=0.5", "c=0.9"], ["a=x"], ["c=0.1"],
            ["a=0.5", "c_phase=inf"], ["b=1"], ["a"], *AMBIGUOUS[:2]]
EXPERIMENTS = ["@good", "@no_kind", "@list", "@not_json", "@missing"]
SEEDS = ["-1", "0", "7", "x"]
TOLS = ["1e-9", "0", "nan", "inf", "-1", "abc"]
FUZZ_FLAGS = {
    "props": {"seed": SEEDS, "tol": TOLS, "trials": ["-5", "0", "1", "3", "x"],
              "dim": ["-1", "0", "1", "4", "9"]},
    "selftest": {"seed": SEEDS, "tol": TOLS,
                 "kind": ["mayersyao", "extended", "bogus"], "family": FAMILIES,
                 "experiment": EXPERIMENTS, "stats_tol": ["1e-10", "-1", "-inf", "x"],
                 "sampled": [["n=50", "seed=3"], ["n=0", "seed=3"], ["n=x"], ["n=20"],
                             ["seed=1"], ["n=20", "seed=-4"], ["m=1"], AMBIGUOUS[2]]},
    "simulate": {"kind": ["mayersyao", "extended", "bogus"], "family": FAMILIES,
                 "experiment": EXPERIMENTS, "cross_pairs": [True],
                 "format": ["json", "csv", "xml"]},
    "qkd": {"seed": SEEDS,
            "strategy": [["honest", "a=0.5", "c=0.5"], ["conjugate"], ["zpremeasure", "a=0.5"],
                         ["mismatched", "0", "1"], ["mismatched", "2", "0"], ["mismatched", "0"],
                         ["teleport"], ["custom", "@custom"], ["custom", "@no_kind"],
                         ["custom", "@list"], ["custom", "@missing"], *AMBIGUOUS[3:]],
            "n": ["-1", "0", "1", "200", "x"], "threshold": ["0", "0.5", "nan", "-1", "inf", "x"],
            "workers": ["0", "1", "2"]},
}
BAD_TOLERANCES = {"nan", "inf", "-inf", "-1"}      # refused for tol, stats_tol, threshold
BAD_CONFIGS = ["[1, 2]", '"text"', "{", '{"fixtures": 5}', '{"fixtures": [{"matrix": 1}]}',
               '{"fixtures": [{"matrix": [[[1, 0]]], "claims": [["unitary"]]}]}']


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "good": dumps(experiment_to_json(family_experiment(SimParams(0.5, 0.5)))),   # D = 16
        "custom": dumps(state_to_json(source_state(MismatchedFlags(0, 1)))),
        "no_kind": '{"state": {}}',
        "list": "[1, 2]",
        "not_json": "{",
    }
    for name, text in files.items():
        (root / f"{name}.json").write_text(text)
    return root


def fuzz_value(value, root):
    if isinstance(value, list):
        return [fuzz_value(v, root) for v in value]
    if isinstance(value, str) and value.startswith("@"):
        return str(root / f"{value[1:]}.json")
    return value


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_main_fuzz_exit_codes_without_traceback(fuzz_dir, data):
    command = data.draw(st.sampled_from(["props", "selftest", "simulate", "qkd"]))
    argv, config = [command, "--out", str(fuzz_dir / "report.out")], {}
    bad_flag, bad_config = False, False
    seeds_from_config = []      # a sampled run given --seed and --sampled seed= is refused
    for key, values in FUZZ_FLAGS[command].items():
        value = data.draw(st.sampled_from([None, *values]), label=key)
        if value is None:
            continue
        value = fuzz_value(value, fuzz_dir)
        bad = (key in ("tol", "stats_tol", "threshold") and value in BAD_TOLERANCES
               or value in AMBIGUOUS)
        from_config = data.draw(st.booleans(), label=f"{key} from config")
        if key == "seed" or key == "sampled" and any(v.startswith("seed=") for v in value):
            seeds_from_config.append(from_config)
        if from_config:
            config[key] = value
            bad_config |= bad
            continue
        bad_flag |= bad
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv += value if isinstance(value, list) else [value]
    if len(seeds_from_config) == 2:
        bad_config |= any(seeds_from_config)
        bad_flag |= not any(seeds_from_config)
    config_text = data.draw(st.sampled_from([None, dumps(config), *BAD_CONFIGS]),
                            label="config")
    if config_text is not None:
        (fuzz_dir / "config.json").write_text(config_text)
        argv = ["--config", str(fuzz_dir / "config.json")] + argv
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:          # argparse refusing a flag
            code = stop.code
    assert code in (0, 1, 2), (argv, config_text)
    if bad_flag or (bad_config and config_text == dumps(config)):
        assert code == 2, (argv, config_text)
    assert "Traceback" not in err.getvalue()


# --------------------------------------------------------------------------
# fuzzed JSON documents

WRONG_VALUES = [None, [], {}, "x", 5, 2.5, True, [1], {"z": 1}, -1]
REMOVED = "<removed>"
NAMES_AN_EXCEPTION = r"\b[A-Z]\w*(Error|Exception)\b"
QKD_CUSTOM = ["qkd", "--strategy", "custom", "{path}", "--seed", "1", "--n", "100"]


def fuzzed_documents():
    """{name: (document, argv)}: one document of each reader, and the job that reads it."""
    ket = np.zeros(16)
    ket[0] = ket[5] = 1 / np.sqrt(2)                # flags |00>, data in the EPR pair
    return {
        "experiment": (experiment_to_json(family_experiment(SimParams(0.3, 0.2), "extended")),
                       ["selftest", "--experiment", "{path}"]),
        "describe": (sixstate.Honest(SimParams(0.3, 0.2)).describe(), QKD_CUSTOM),
        "state": (state_to_json(StateVector([2, 2, 2, 2], ket)), QKD_CUSTOM),
        "fixtures": ({"fixtures": [{"label": "one", "matrix": [[[1.0, 0.0]]],
                                    "claims": ["unitary"]}]},
                     ["--config", "{path}", "props", "--trials", "1", "--dim", "2"]),
    }


def json_paths(value, path=()):
    """(path, is an object key) of every member of ``value``, and of each array's first entry:
    a reader applies one rule to all entries of an array."""
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = list(enumerate(value))[:1]
    else:
        return
    for key, member in members:
        yield path + (key,), isinstance(value, dict)
        yield from json_paths(member, path + (key,))


FUZZED_DOCUMENTS = fuzzed_documents()
# (name, path, wrong value or REMOVED) for every path of every fuzzed document
DOCUMENT_CORRUPTIONS = [(name, path, value) for name, (document, _) in FUZZED_DOCUMENTS.items()
                        for path, is_key in json_paths(document)
                        for value in WRONG_VALUES + ([REMOVED] if is_key else [])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corruption=st.sampled_from(DOCUMENT_CORRUPTIONS))
def test_a_corrupted_document_is_refused_naming_a_field(tmp_path_factory, corruption):
    # at the parent, 208 of these 896 corruptions printed a TypeError, KeyError or
    # AttributeError in place of the field
    name, path, value = corruption
    document, argv = FUZZED_DOCUMENTS[name]
    document = json.loads(json.dumps(document))
    *parents, key = path
    node = document
    for parent in parents:
        node = node[parent]
    if value is REMOVED:
        del node[key]
    else:
        node[key] = value
    directory = tmp_path_factory.mktemp("document")
    (directory / "d.json").write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(path=directory / "d.json") for a in argv])
    assert code in (0, 1, 2), corruption
    if code == 2:
        assert out.getvalue() == "" and one_error_line(err.getvalue()), corruption
        assert not re.search(NAMES_AN_EXCEPTION, err.getvalue()), (corruption, err.getvalue())
    else:       # a corruption that is still a valid document, such as Z_A[0][0] = -1
        assert err.getvalue() == "" and json.loads(out.getvalue())["results"], corruption
