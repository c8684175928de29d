"""Per-job output checks.

Expected values come from how the inputs were generated (the family
parameter ``a``, the strategy, the round count) and from a reference
correlation table computed here with plain numpy, never from the program
under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .jobs import Job

POP_TOL = 1e-9
TABLE_TOL = 1e-9
NSIGMA = 5.0
BASES = ("X", "Y", "Z")

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SUBTESTS = {"mayersyao": (("X", "Z", "D"),),
             "extended": (("X", "Z", "D"), ("X", "Y", "E"), ("Y", "Z", "F"))}


def reference_table(kind: str, cross: bool) -> dict[str, float]:
    """Joint and marginal values of the EPR blueprint, keyed like the CLI's JSON report.

    Bob's Y carries a -1 phase, so every same-setting pair is perfectly
    correlated; all marginals vanish.
    """
    alice = {"X": _X, "Y": _Y, "Z": _Z, "D": (_X + _Z) / math.sqrt(2),
             "E": (_X + _Y) / math.sqrt(2), "F": (_Y + _Z) / math.sqrt(2)}
    bob = {"X": _X, "Y": -_Y, "Z": _Z, "D": (_X + _Z) / math.sqrt(2),
           "E": (_X - _Y) / math.sqrt(2), "F": (_Z - _Y) / math.sqrt(2)}
    labels = sorted({lab for sub in _SUBTESTS[kind] for lab in sub})
    if cross:
        pairs = {(a, b) for a in labels for b in labels}
    else:
        pairs = {(a, b) for sub in _SUBTESTS[kind] for a in sub for b in sub}
    epr = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    table = {f"joint:{a},{b}": float(np.real(epr.conj() @ np.kron(alice[a], bob[b]) @ epr))
             for a, b in pairs}
    for party in "AB":
        for lab in labels:
            table[f"marginal:{party},{lab}"] = 0.0
    return table


def check(job: Job, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems found with one job's exit code and outputs; empty when it is correct."""
    problems: list[str] = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    kind = job.expect["check"]
    try:
        problems += _CHECKS[kind](job, code, stdout, stderr)
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems.append(f"unreadable output: {type(err).__name__}: {err}")
    return problems


def _report(job: Job, stdout: str) -> dict:
    text = job.out.read_text() if job.out is not None else stdout
    return json.loads(text)["results"]


def _expect_code(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _selftest_pass(job, code, stdout, stderr):
    problems = _expect_code(code, 0)
    res = _report(job, stdout)
    if res["verdict"] != "pass":
        problems.append(f"verdict {res['verdict']} ({res['failures']})")
    if job.expect["kind"] == "extended":
        pops = res.get("flag_populations")
        a = job.expect["a"]
        if pops is None:
            problems.append("no flag_populations")
        elif (abs(pops["population_0"] - a) > POP_TOL
              or abs(pops["population_1"] - (1 - a)) > POP_TOL):
            problems.append(f"flag populations {pops['population_0']}, "
                            f"{pops['population_1']} != ({a}, {1 - a})")
    return problems


def _selftest_refused(job, code, stdout, stderr):
    problems = _expect_code(code, 1)
    res = _report(job, stdout)
    if res["verdict"] != "fail":
        problems.append(f"verdict {res['verdict']}, expected fail")
    if res.get("refused_stage") != "extraction":
        problems.append(f"refused_stage {res.get('refused_stage')!r}, expected 'extraction'")
    return problems


def _qkd(job, code, stdout, stderr):
    strategy, n = job.expect["strategy"], job.expect["n"]
    res = _report(job, stdout)
    problems = []
    if res["total_rounds"] != n:
        problems.append(f"total_rounds {res['total_rounds']} != {n}")
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    if abs(res["sift_fraction"] - 1 / 3) > NSIGMA * sigma:
        problems.append(f"sift_fraction {res['sift_fraction']} beyond {NSIGMA} sigma of 1/3")
    rates = res["rates"]
    if strategy == "mismatched01":
        want = {"X": 0.0, "Y": 1.0, "Z": 0.0}
        if any(rates[b] != want[b] for b in BASES):
            problems.append(f"rates {rates}, expected {want}")
        problems += _expect_code(code, 0)
    elif strategy == "custom":
        if rates["X"] != 0.0 or rates["Z"] != 0.0:
            problems.append(f"X/Z rates {rates['X']}, {rates['Z']}, expected 0")
        sifted_y = res["sifted"]["Y"]
        if abs(rates["Y"] - 0.5) > NSIGMA * math.sqrt(0.25 / max(sifted_y, 1)):
            problems.append(f"Y rate {rates['Y']} beyond {NSIGMA} sigma of 1/2")
        problems += _expect_code(code, 1)
    else:
        if any(res["errors"][b] != 0 for b in BASES):
            problems.append(f"QBER not exactly 0: errors {res['errors']}")
        if res["verdict"] != "protocol-consistent":
            problems.append(f"verdict {res['verdict']}")
        if strategy == "zpremeasure" and res.get("flag_mismatches") != 0:
            problems.append(f"flag_mismatches {res.get('flag_mismatches')}, expected 0")
        problems += _expect_code(code, 0)
    fmt = job.expect["transcript"]
    if fmt == "csv":
        lines = job.transcript.read_bytes().count(b"\n")
        if lines != n + 1:
            problems.append(f"CSV transcript has {lines} lines, expected {n + 1}")
    elif fmt == "json":
        rounds = len(json.loads(job.transcript.read_text())["rounds"])
        if rounds != n:
            problems.append(f"JSON transcript has {rounds} rounds, expected {n}")
    return problems


def _simulate(job, code, stdout, stderr):
    problems = _expect_code(code, 0)
    text = job.out.read_text()
    got: dict[str, float] = {}
    if job.expect["format"] == "csv":
        lines = text.splitlines()
        if lines[0] != "setting_a,setting_b,value,stderr":
            problems.append(f"CSV header {lines[0]!r}")
        for row in lines[1:]:
            a, b, value, _ = row.split(",")
            if a == "I":
                got[f"marginal:B,{b}"] = float(value)
            elif b == "I":
                got[f"marginal:A,{a}"] = float(value)
            else:
                got[f"joint:{a},{b}"] = float(value)
    else:
        res = json.loads(text)["results"]
        got.update({f"joint:{k}": v for k, v in res["joints"].items()})
        got.update({f"marginal:{k}": v for k, v in res["marginals"].items()})
    ref = reference_table(job.expect["kind"], job.expect["cross"])
    joints = sum(1 for k in got if k.startswith("joint:"))
    if joints != job.expect["entries"]:
        problems.append(f"{joints} joint entries, expected {job.expect['entries']}")
    if set(got) != set(ref):
        problems.append(f"entries differ from the schedule: {sorted(set(got) ^ set(ref))}")
    worst = max((abs(got[k] - ref[k]) for k in set(got) & set(ref)), default=0.0)
    if worst > TABLE_TOL:
        problems.append(f"table deviates from the reference by {worst}")
    return problems


def _props(job, code, stdout, stderr):
    problems = _expect_code(code, 0)
    res = _report(job, stdout)
    failing = [i["name"] for i in res["items"] if not i["passed"]]
    if not res["passed"] or failing:
        problems.append(f"property suite failed: {failing}")
    if len(res["items"]) < 10:
        problems.append(f"only {len(res['items'])} property items")
    return problems


def _usage_error(job, code, stdout, stderr):
    problems = _expect_code(code, 2)
    if not stderr.startswith("error:"):
        problems.append(f"stderr does not start with 'error:': {stderr[:80]!r}")
    return problems


_CHECKS = {
    "selftest_pass": _selftest_pass,
    "selftest_refused": _selftest_refused,
    "qkd": _qkd,
    "simulate": _simulate,
    "props": _props,
    "usage_error": _usage_error,
}
