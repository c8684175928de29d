"""Smoke tests: each experiment script under ``scripts/`` runs to the end in-process."""

import importlib.util
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
    assert "after correction" in out and "within tolerance" in out



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
