import json

import numpy as np
import pytest

from conjsim.cli import main
from conjsim.linalg import X
from conjsim.selftest import reference_experiment, with_observable
from conjsim.serialize import dumps, experiment_to_json, matrix_to_json


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


@pytest.mark.parametrize("argv, config", [
    (["props", "--trials", "0"], None),
    (["props"], {"trials": -5}),
])
def test_nonpositive_trials_is_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        argv = ["--config", write_config(tmp_path, config)] + argv
    assert run(argv) == 2
    assert "error: --trials must be at least 1" in capsys.readouterr().err
