"""Smoke tests: each experiment script under ``scripts/`` runs to the end in-process."""

import importlib.util
import json
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_family_grid_experiment_runs(capsys):
    load_script("family_grid_experiment").main()
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows and all(row.endswith("pass") for row in rows)


def test_qkd_strategies_experiment_runs(monkeypatch, capsys):
    script = load_script("qkd_strategies_experiment")
    monkeypatch.setattr(script, "N", 600)
    script.main()
    out = capsys.readouterr().out
    assert out.startswith("n = 600 rounds per strategy")
    # cells of probability 0 are never drawn, so both adversary facts hold exactly at any n
    rows = out.splitlines()[2:10]
    # at threshold 0 a consistent verdict means no error in any basis
    assert [row.endswith("-> protocol-consistent") for row in rows] == [True] * 6 + [False, True]
    premeasured, pinned = out.splitlines()[-2:]
    assert premeasured == "Eve premeasures the flags (a=0.5 c=0.5): errors X=0 Y=0 Z=0"
    counts = re.fullmatch(r"Eve pins the flags \(0,1\): errors/sifted X=0/(\d+) Y=(\d+)/(\d+) "
                          r"Z=0/(\d+); flipping her Y bits leaves 0 Y errors", pinned)
    assert counts and counts[2] == counts[3] and all(int(c) > 0 for c in counts.groups())



def test_workload_parity_names_the_differing_jobs():
    script = load_script("workload_parity")

    def result(exit=0, stdout=b"{}\n", stderr=b"", outputs=None):
        return {"exit": exit, "stdout": stdout, "stderr": stderr,
                "outputs": {"r.json": b"{}"} if outputs is None else outputs}

    old = {"a": result(), "b": result(), "c": result(), "d": result(), "e": result()}
    new = {"a": result(), "b": result(exit=1, stderr=b"error: x\n"),
           "c": result(outputs={"r.json": b"{ }"}), "e": result(stdout=b""), "f": result()}
    assert script.differences(old, old) == []
    assert script.differences(old, new) == [
        ("b", ["exit", "stderr"]), ("c", ["outputs"]), ("d", list(script.FIELDS)),
        ("e", ["stdout"]), ("f", list(script.FIELDS))]
    line = script.describe("b", ["exit", "stderr"], old, new)
    assert "exit 0 -> 1" in line and "error: x" in line
    # every differing job is listed, and a differing JSON report says which verdict keys moved
    lines = script.summary(5, old, new, script.differences(old, new)).splitlines()
    assert lines[0] == "seed 5: 5 jobs, 5 differ"
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["b", "c", "d", "e", "f"]

    def report(**results):
        return json.dumps({"config": {}, "results": results}).encode()

    kept = {"verdict": "pass", "failures": [], "refused_stage": None,
            "flag_populations": {"population_0": 0.3, "population_1": 0.7}}
    before = {"r.json": report(**kept, residuals={"a": 1.0}), "t.csv": b"x\n", "q.json": b"{}"}
    same = {"r.json": report(**kept), "t.csv": b"y\n", "q.json": b"{ }"}
    moved = {"r.json": report(**{**kept, "verdict": "fail", "failures": ["s[e]"],
                                 "flag_populations": {"population_0": 0.5,
                                                      "population_1": 0.7}}),
             "t.csv": b"x\n", "q.json": b"{}"}
    assert script.verdict_changes(before["r.json"], same["r.json"]) == []
    assert script.verdict_changes(before["r.json"], moved["r.json"]) == [
        "verdict", "failures", "flag_populations.population_0"]
    assert script.verdict_changes(before["t.csv"], same["t.csv"]) is None     # no JSON
    assert script.verdict_changes(before["q.json"], same["q.json"]) is None   # no results
    assert script.verdict_changes(before["r.json"], None) is None             # not written

    def job(outputs):
        return {"exit": 0, "stdout": b"", "stderr": b"", "outputs": outputs}

    # a report that kept its verdict keys says how far its floats moved and whether
    # anything else did
    drifted = {**before, "r.json": report(**kept, residuals={"a": 1.0 + 2 ** -50})}
    assert script.float_drift(before["r.json"], drifted["r.json"]) == (2 ** -50, False)
    assert script.float_drift(before["r.json"], same["r.json"]) == (0.0, True)
    assert script.float_drift(b'{"a": [1.0, 2]}', b'{"a": [1.5, 3]}') == (0.5, True)
    assert script.float_drift(b'{"a": [1.0]}', b'{"a": [1.0, 1.0]}') == (0.0, True)
    assert script.float_drift(b'{"a": 1.0}', b'{"a": null}') == (0.0, True)

    runs = {f"j{i}": job(before) for i in range(9)}
    changed = {**runs, **{f"j{i}": job(same) for i in range(1, 7)}, "j7": job(moved),
               "j8": job(drifted)}
    diffs = script.differences(runs, changed)
    assert diffs == [(f"j{i}", ["outputs"]) for i in range(1, 9)]
    assert script.summary(23, runs, changed, diffs).splitlines() == [
        "seed 23: 9 jobs, 8 differ",
        *(f"  j{i}: outputs; r.json kept its verdict keys, floats moved by at most 0.0e+00, "
          "other leaves or keys changed" for i in range(1, 7)),
        "  j7: outputs; r.json changed verdict, failures, flag_populations.population_0",
        "  j8: outputs; r.json kept its verdict keys, floats moved by at most 8.9e-16, "
        "nothing else changed"]
