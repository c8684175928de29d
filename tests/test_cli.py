import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjsim
from conjsim import cli, serialize, sixstate
from conjsim.cli import main
from conjsim.family import SimParams
from conjsim.linalg import X
from conjsim.selftest import family_experiment, reference_experiment, with_observable
from conjsim.serialize import dumps, experiment_to_json, matrix_to_json, state_to_json
from conjsim.sixstate import MismatchedFlags, source_state


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
        {"label": "fake_unitary", "matrix": matrix_to_json(np.diag([1.0, 2.0])),
         "claims": ["unitary"]},
    ]}))
    out = tmp_path / "props.json"
    code = run(["--config", str(config), "props", "--trials", "5", "--out", str(out)])
    assert code == 1
    items = read_json(out)["results"]["items"]
    failing = [i["name"] for i in items if not i["passed"]]
    assert failing == ["fixture[fake_unitary:unitary]"]


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
    assert results["statistics"]["worst_entry"] == "joint(D,Z)"
    assert any("statistics" in f for f in results["failures"])


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
    config.write_text(dumps(data))
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


@pytest.mark.parametrize("argv, text", [
    (["simulate", "--experiment", "{path}"], '{"state": {}}'),
    (["qkd", "--strategy", "custom", "{path}", "--seed", "1"], '{"strategy": "honest"}'),
    (["--config", "{path}", "props"], "[1,2]"),
    (["--config", "{path}", "props", "--trials", "2"], '{"fixtures": [{"matrix": 1}]}'),
], ids=["experiment_without_kind", "custom_strategy_without_a", "config_not_an_object",
        "config_fixture_without_matrix"])
def test_malformed_json_input_is_usage_error(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([a.format(path=path) for a in argv]) == 2
    assert one_error_line(capsys.readouterr().err)


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
    assert proc.stderr.startswith(f"error: {path}: flag_registers ")


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
    (["simulate", "--experiment", "missing.json"], 2,
     "error: --experiment missing.json: No such file or directory\n"),
    (["simulate", "--experiment", "not_json.json"], 2,
     "error: --experiment not_json.json: not JSON (Expecting value: line 1 column 1 (char 0))\n"),
]


def test_usage_errors_are_answered_without_numpy(tmp_path):
    (tmp_path / "not_json.json").write_text("")
    results = fresh_main(tmp_path, *[argv for argv, _, _ in USAGE_WITHOUT_NUMPY])
    for (argv, code, message), (got, stdout, err, modules) in zip(USAGE_WITHOUT_NUMPY, results):
        assert got == code and err.endswith(message), argv
        assert modules == ["conjsim.cli"], argv
    assert results[0][1].startswith("usage: conjsim")


DOCUMENT_FLAGS = {"--config": ["--config", "{path}", "props"],
                  "--experiment": ["selftest", "--experiment", "{path}"],
                  "--strategy custom": ["qkd", "--strategy", "custom", "{path}", "--seed", "1"]}
BAD_DOCUMENTS = {"not_utf8.json": "not UTF-8 text", "malformed.json": "not JSON",
                 "a_directory": "Is a directory"}


def test_unreadable_documents_are_usage_errors(tmp_path):
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "malformed.json").write_text('{"kind": ')
    (tmp_path / "a_directory").mkdir()
    # --strategy custom reads its file after loading sixstate, so it runs last
    cases = [(flag, name) for flag in DOCUMENT_FLAGS for name in BAD_DOCUMENTS]
    argvs = [[a.format(path=tmp_path / name) for a in DOCUMENT_FLAGS[flag]]
             for flag, name in cases]
    for (flag, name), (code, stdout, err, modules) in zip(cases, fresh_main(tmp_path, *argvs)):
        assert (code, stdout) == (2, ""), (flag, name)
        assert err.startswith(f"error: {flag} {tmp_path / name}: {BAD_DOCUMENTS[name]}"), \
            (flag, name)
        assert err.count("\n") == 1 and "Traceback" not in err, (flag, name)
        if flag != "--strategy custom":
            assert modules == ["conjsim.cli"], (flag, name)


QKD = ["qkd", "--strategy", "conjugate", "--n", "10", "--seed", "1"]
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


def test_a_failed_write_keeps_the_existing_file(tmp_path, monkeypatch):
    out = tmp_path / "transcript.csv"
    out.write_text("earlier run\n")
    encode = serialize.transcript_to_csv

    def failing(transcript, handle):
        handle.write("partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(serialize, "transcript_to_csv", failing)
    assert run(QKD + ["--transcript-out", str(out)]) == 2
    assert out.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.csv"]
    monkeypatch.setattr(serialize, "transcript_to_csv", encode)
    assert run(QKD + ["--transcript-out", str(out)]) == 0
    assert out.read_text().startswith("round,")
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.csv"]


@pytest.mark.parametrize("argv, absent", [
    (["props", "--trials", "3", "--dim", "2"], {"conjsim.selftest", "conjsim.sixstate"}),
    (["selftest", "--kind", "mayersyao"], {"conjsim.sixstate"}),
    (["selftest", "--sampled", "n=50", "seed=1"], {"conjsim.sixstate"}),
    (["simulate", "--family", "a=0.5", "c=0.5", "--format", "csv"], {"conjsim.sixstate"}),
])
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    [(code, _, err, modules)] = fresh_main(tmp_path, argv + ["--out", "report.out"])
    assert (code, err) == (0, "")
    assert "numpy" in modules and absent.isdisjoint(modules)


def test_internal_value_error_exits_one(monkeypatch, capsys):
    def failing(*args):
        raise ValueError("outcome probabilities sum to nan")

    monkeypatch.setattr(sixstate, "run_rounds", failing)
    assert run(["qkd", "--strategy", "conjugate", "--n", "10", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: outcome probabilities sum to nan\n"


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
    assert run(["qkd", "--strategy", "conjugate", "--n", "10", "--seed", "1"]) == 1
    assert capsys.readouterr().err == line


# --------------------------------------------------------------------------
# fuzzed flag and config-file combinations

FAMILIES = [["a=0.5", "c=0.5"], ["a=1"], ["a=0.5", "c=0.9"], ["a=x"], ["c=0.1"],
            ["a=0.5", "c_phase=inf"], ["b=1"], ["a"]]
EXPERIMENTS = ["@good", "@no_kind", "@list", "@not_json", "@missing"]
FUZZ_FLAGS = {
    "common": {"seed": ["-1", "0", "7", "x"],
               "tol": ["1e-9", "0", "nan", "inf", "-1", "abc"],
               "workers": ["0", "1", "2"], "format": ["json", "csv", "xml"]},
    "props": {"trials": ["-5", "0", "1", "3", "x"], "dim": ["-1", "0", "1", "4", "9"]},
    "selftest": {"kind": ["mayersyao", "extended", "bogus"], "family": FAMILIES,
                 "experiment": EXPERIMENTS, "stats_tol": ["1e-10", "-1", "-inf", "x"],
                 "sampled": [["n=50", "seed=3"], ["n=0", "seed=3"], ["n=x"], ["n=20"],
                             ["seed=1"], ["n=20", "seed=-4"], ["m=1"]]},
    "simulate": {"kind": ["mayersyao", "extended", "bogus"], "family": FAMILIES,
                 "experiment": EXPERIMENTS, "cross_pairs": [True]},
    "qkd": {"strategy": [["honest", "a=0.5", "c=0.5"], ["conjugate"], ["zpremeasure", "a=0.5"],
                         ["mismatched", "0", "1"], ["mismatched", "2", "0"], ["mismatched", "0"],
                         ["teleport"], ["custom", "@custom"], ["custom", "@no_kind"],
                         ["custom", "@list"], ["custom", "@missing"]],
            "n": ["-1", "0", "1", "200", "x"], "threshold": ["0", "0.5", "nan", "-1", "inf", "x"]},
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
    for key, values in {**FUZZ_FLAGS["common"], **FUZZ_FLAGS[command]}.items():
        value = data.draw(st.sampled_from([None, *values]), label=key)
        if value is None:
            continue
        value = fuzz_value(value, fuzz_dir)
        bad = key in ("tol", "stats_tol", "threshold") and value in BAD_TOLERANCES
        if data.draw(st.booleans(), label=f"{key} from config"):
            config[key] = value
            bad_config |= bad
            continue
        bad_flag |= bad
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv += value if isinstance(value, list) else [value]
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
