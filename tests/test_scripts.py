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

