"""Workload job lists, generated from a workload seed.

Each workload has a fixed structure (which job classes, how many of each, and
their sizes); the seed only picks the family parameters, junk states, swapped
observables, strategy files and per-job seeds.  Runs with different seeds
therefore do the same amount of work on different inputs, and the program
sees only the generated files and flags.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from conjsim.family import SimParams
from conjsim.selftest import attach_junk, family_experiment, purify_experiment, with_observable
from conjsim.serialize import experiment_to_json
from conjsim.states import StateVector

WORKLOADS = ("selftest_ladder", "qkd_campaign", "small_jobs")
SAMPLED_N = 50_000


@dataclass
class Job:
    """One CLI invocation plus what the oracle expects of it.

    ``cls`` groups jobs for the per-class figures (e.g. ``selftest.D256``);
    ``light`` marks jobs cheap enough for the determinism re-run sample.
    """

    name: str
    argv: list[str]
    cls: str
    expect: dict
    out: Path | None = None
    transcript: Path | None = None
    light: bool = True
    rounds: int = 0

    def outputs(self) -> list[Path]:
        return [p for p in (self.out, self.transcript) if p is not None]


def build(workload: str, seed: int, work: Path, nproc: int) -> list[Job]:
    """Write the workload's input files under ``work`` and return its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    work.mkdir(parents=True, exist_ok=True)
    return {"selftest_ladder": _ladder, "qkd_campaign": _qkd_campaign,
            "small_jobs": _small_jobs}[workload](rng, work, nproc)


# ---------------------------------------------------------------------------
# inputs


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def _random_a(rng) -> float:
    return float(rng.uniform(0.05, 0.95))


def _pure_params(rng) -> SimParams:
    a = _random_a(rng)
    return SimParams.from_polar(a, math.sqrt(a * (1 - a)), float(rng.uniform(-np.pi, np.pi)))


def _mixed_params(rng) -> SimParams:
    a = _random_a(rng)
    c_abs = float(rng.uniform(0.0, 0.9)) * math.sqrt(a * (1 - a))
    return SimParams.from_polar(a, c_abs, float(rng.uniform(-np.pi, np.pi)))


def _junk_state(rng, dim: int) -> StateVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector([dim], v / np.linalg.norm(v))


def _balanced_split(total: int, rng) -> tuple[int, int]:
    """Junk dimensions (A, B) with product ``total``, as even as the factors allow."""
    ja = max(d for d in range(1, math.isqrt(total) + 1) if total % d == 0)
    pair = (ja, total // ja)
    return pair if rng.random() < 0.5 else pair[::-1]


def ladder_member(rng, dim: int):
    """A passing family member whose purified Hilbert space has dimension ``dim``.

    D = 16 members are pure and kept as density matrices, so the program does
    the purification.  Larger rungs start from a purified pure (D = 16) or
    rank-2 (D = 32) member and add junk registers to both parties.
    """
    if dim == 16:
        p = _pure_params(rng)
        return family_experiment(p), p
    p = _pure_params(rng) if rng.random() < 0.5 else _mixed_params(rng)
    exp = purify_experiment(family_experiment(p))
    junk = dim // exp.state.dim
    if junk * exp.state.dim != dim:
        raise ValueError(f"dimension {dim} is not a multiple of {exp.state.dim}")
    for party, jdim in zip("AB", _balanced_split(junk, rng)):
        if jdim > 1:
            exp = attach_junk(exp, party, _junk_state(rng, jdim))
    return exp, p


def swap_observables(exp, rng):
    """Swap two of the first sub-test's settings on one party; extraction must refuse."""
    party = "AB"[int(rng.integers(2))]
    la, lb = rng.choice(["X", "Z", "D"], size=2, replace=False)
    ma, mb = exp.observable(party, la), exp.observable(party, lb)
    return with_observable(with_observable(exp, party, la, mb), party, lb, ma)


def custom_state_json(rng) -> dict:
    """Non-family source: both flags in |0> + e^{i phi}|1>, data in the EPR pair.

    Uncorrelated flags make the Y outcomes agree half the time, while X and Z
    stay perfectly correlated.
    """
    flags = [np.array([1.0, np.exp(1j * rng.uniform(-np.pi, np.pi))]) / math.sqrt(2)
             for _ in range(2)]
    epr = np.zeros((2, 2), dtype=complex)
    epr[0, 0] = epr[1, 1] = 1 / math.sqrt(2)
    vec = np.einsum("a,b,cd->acbd", flags[0], flags[1], epr).reshape(-1)
    return {"dims": [2, 2, 2, 2], "amplitudes": [[float(z.real), float(z.imag)] for z in vec]}


def _family_tokens(p: SimParams) -> list[str]:
    return [f"a={p.a!r}", f"c_abs={abs(p.c)!r}", f"c_phase={float(np.angle(p.c))!r}"]


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31))


# ---------------------------------------------------------------------------
# workloads


def _selftest_job(work, name, exp_path, cls, expect, extra=(), light=True) -> Job:
    out = work / f"{name}.out.json"
    return Job(name=name, argv=["selftest", "--experiment", str(exp_path), *extra,
                                "--out", str(out)],
               cls=cls, expect=expect, out=out, light=light)


def _ladder(rng, work: Path, nproc: int) -> list[Job]:
    # Nine D = 64 jobs put both the median and the tail rank (n - 11) of one pass
    # (21 jobs) in the middle of one block of similar latencies, so neither flips
    # between classes.  Like jobs are spread over the pass, so their median
    # samples the whole run.
    plan = (("exact", 64), ("exact", 16), ("exact", 256), ("exact", 64), ("corrupted", 16),
            ("exact", 64), ("sampled", 16), ("exact", 64), ("corrupted", 256),
            ("exact", 16), ("exact", 64), ("exact", 576), ("exact", 64),
            ("sampled", 64), ("exact", 256), ("exact", 64), ("corrupted", 64),
            ("exact", 64), ("exact", 16), ("sampled", 256), ("exact", 64))
    jobs = []
    for i, (mode, dim) in enumerate(plan):
        exp, p = ladder_member(rng, dim)
        name = f"ladder{i:02d}.{mode}.D{dim}"
        extra: tuple[str, ...] = ()
        if mode == "corrupted":
            exp = swap_observables(exp, rng)
            expect = {"check": "selftest_refused"}
        else:
            expect = {"check": "selftest_pass", "a": p.a, "kind": "extended"}
        if mode == "sampled":
            extra = ("--sampled", f"n={SAMPLED_N}", f"seed={_seed(rng)}")
        path = _write_json(work / f"{name}.experiment.json", experiment_to_json(exp))
        cls = {"exact": f"selftest.D{dim}", "sampled": f"selftest_sampled.D{dim}",
               "corrupted": f"selftest_corrupted.D{dim}"}[mode]
        jobs.append(_selftest_job(work, name, path, cls, expect, extra, light=dim <= 64))
    return jobs


# (strategy, rounds, transcript format); every strategy the CLI offers appears,
# and 8 of the 24 jobs also write a transcript.  Sorted by latency, one pass's
# median (rank 11.5) and tail rank (n - 11 = 13) both fall inside the block of
# sixteen 1e4-round jobs, away from its edge.  Sizes alternate so that like jobs
# sample the whole run.
QKD_PLAN = (
    ("honest", 10_000, None),
    ("conjugate", 10_000, "csv"),
    ("honest_pure", 30_000, None),
    ("zpremeasure", 10_000, None),
    ("honest_edge", 100_000, None),
    ("mismatched01", 10_000, None),
    ("mismatched11", 10_000, "csv"),
    ("zpremeasure", 30_000, "csv"),
    ("custom", 10_000, None),
    ("honest_pure", 10_000, None),
    ("honest", 1_000_000, None),
    ("honest_edge", 10_000, "csv"),
    ("honest", 10_000, None),
    ("mismatched01", 30_000, None),
    ("conjugate", 10_000, None),
    ("conjugate", 100_000, "json"),
    ("zpremeasure", 10_000, "csv"),
    ("mismatched01", 10_000, None),
    ("honest", 30_000, "csv"),
    ("mismatched11", 10_000, None),
    ("custom", 10_000, "csv"),
    ("zpremeasure", 100_000, None),
    ("honest_pure", 10_000, None),
    ("honest_edge", 10_000, None),
)


def _qkd_job(rng, work: Path, name: str, strategy: str, n: int, transcript,
             workers: int | None, light: bool, config: bool = False) -> Job:
    if strategy == "honest":
        tokens = ["honest", *_family_tokens(_mixed_params(rng))]
    elif strategy == "honest_pure":
        tokens = ["honest", *_family_tokens(_pure_params(rng))]
    elif strategy == "honest_edge":
        tokens = ["honest", f"a={float(rng.integers(2))!r}", "c=0"]
    elif strategy == "zpremeasure":
        tokens = ["zpremeasure", *_family_tokens(_mixed_params(rng))]
    elif strategy == "conjugate":
        tokens = ["conjugate"]
    elif strategy.startswith("mismatched"):
        tokens = ["mismatched", strategy[-2], strategy[-1]]
    else:
        path = _write_json(work / f"{name}.state.json", custom_state_json(rng))
        tokens = ["custom", str(path)]
    out = work / f"{name}.out.json"
    argv = ["qkd", "--strategy", *tokens]
    seed = _seed(rng)
    if config:
        cfg = _write_json(work / f"{name}.config.json", {"n": n, "seed": seed})
        argv = ["--config", str(cfg), *argv]
    else:
        argv += ["--n", str(n), "--seed", str(seed)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    argv += ["--out", str(out)]
    tpath = None
    if transcript:
        tpath = work / f"{name}.transcript.{transcript}"
        argv += ["--transcript-out", str(tpath)]
    cls = "qkd.transcript" if transcript else "qkd.report"
    return Job(name=name, argv=argv, cls=cls, out=out, transcript=tpath, light=light,
               rounds=n,
               expect={"check": "qkd", "strategy": strategy, "n": n, "transcript": transcript})


def _qkd_campaign(rng, work: Path, nproc: int) -> list[Job]:
    return [_qkd_job(rng, work, f"qkd{i:02d}.{strategy}.n{n}", strategy, n, transcript,
                     workers=nproc, light=n <= 30_000)
            for i, (strategy, n, transcript) in enumerate(QKD_PLAN)]


SIMULATE_ENTRIES = {("extended", False): 24, ("extended", True): 36,
                    ("mayersyao", False): 9, ("mayersyao", True): 9}


def _small_jobs(rng, work: Path, nproc: int) -> list[Job]:
    jobs: list[Job] = []

    def add(name, argv, cls, expect, out=None):
        jobs.append(Job(name=f"small{len(jobs):02d}.{name}", argv=argv, cls=cls,
                        expect=expect, out=out))

    for dim, trials in ((2, 20), (4, 30), (6, 30), (8, 40)):
        out = work / f"props{dim}.out.json"
        add(f"props.dim{dim}", ["props", "--dim", str(dim), "--trials", str(trials),
                                "--seed", str(_seed(rng)), "--out", str(out)],
            "props", {"check": "props"}, out)
    cfg = _write_json(work / "props.config.json",
                      {"dim": int(rng.integers(2, 9)), "trials": 25, "seed": _seed(rng)})
    out = work / "props_config.out.json"
    add("props.config", ["--config", str(cfg), "props", "--out", str(out)],
        "props", {"check": "props"}, out)

    for kind, fmt, cross in (("extended", "json", False), ("extended", "csv", False),
                             ("extended", "json", True), ("extended", "csv", True),
                             ("mayersyao", "json", False)):
        out = work / f"simulate.{kind}.{fmt}.{int(cross)}.out"
        argv = ["simulate", "--kind", kind, "--family", *_family_tokens(_mixed_params(rng)),
                "--format", fmt, "--out", str(out)]
        if cross:
            argv.append("--cross-pairs")
        add(f"simulate.{kind}.{fmt}", argv, "simulate",
            {"check": "simulate", "kind": kind, "format": fmt, "cross": cross,
             "entries": SIMULATE_ENTRIES[(kind, cross)]}, out)

    for kind, sampled in (("extended", False), ("extended", False), ("mayersyao", False),
                          ("extended", True), ("mayersyao", True)):
        p = _pure_params(rng)
        out = work / f"selftest{len(jobs):02d}.out.json"
        argv = ["selftest", "--kind", kind, "--family", *_family_tokens(p), "--out", str(out)]
        if sampled:
            argv += ["--sampled", "n=20000", f"seed={_seed(rng)}"]
        add(f"selftest.{kind}", argv, "selftest_sampled.D16" if sampled else "selftest.D16",
            {"check": "selftest_pass", "a": p.a, "kind": kind}, out)
    p = _pure_params(rng)
    cfg = _write_json(work / "selftest.config.json",
                      {"family": _family_tokens(p), "sampled": ["n=20000"], "seed": _seed(rng)})
    out = work / "selftest_config.out.json"
    add("selftest.config", ["--config", str(cfg), "selftest", "--out", str(out)],
        "selftest_sampled.D16", {"check": "selftest_pass", "a": p.a, "kind": "extended"}, out)

    for strategy, transcript, config in (
            ("honest", None, False), ("honest_pure", None, False), ("conjugate", None, False),
            ("zpremeasure", None, False), ("mismatched01", None, False),
            ("mismatched11", None, False), ("custom", None, False),
            ("honest", "csv", False), ("honest", None, True)):
        jobs.append(_qkd_job(rng, work, f"small{len(jobs):02d}.qkd.{strategy}", strategy,
                             3000, transcript, workers=None, light=True, config=config))

    missing = work / "missing.json"
    for name, argv in (
            ("usage.dim9", ["props", "--dim", "9"]),
            ("usage.n0", ["qkd", "--strategy", "conjugate", "--n", "0", "--seed", "1"]),
            ("usage.infeasible", ["qkd", "--strategy", "honest", "a=0.5", "c=0.9",
                                  "--seed", str(_seed(rng))]),
            ("usage.unseeded", ["selftest", "--kind", "mayersyao", "--sampled", "n=100"]),
            ("usage.both_sources", ["selftest", "--family", "a=0.5", "--experiment",
                                    str(missing)]),
            ("usage.missing_file", ["simulate", "--experiment", str(missing)])):
        add(name, argv, "usage_error", {"check": "usage_error"})
    return jobs
