#!/usr/bin/env python3
"""conjsim benchmark: fixed CLI job lists, timed end to end or traced per layer.

    python3 benchmark/run.py --workload selftest_ladder --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the program is taken from ``src/``.
``--trace 0`` runs every job as a fresh ``python -m conjsim`` subprocess, one at a
time (a closed loop with one client), and reports the end-to-end metrics.
``--trace 1`` replays the same job list in this process through
``conjsim.cli.main``, once untraced and once with every layer's public functions
wrapped in spans, and reports the per-layer metrics.  Either mode repeats whole
passes of the job list until ``--seconds`` have elapsed (at least one pass),
checks every job's output, and prints a human-readable table, an environment
record, and as its last line one JSON object with the result.  See
``benchmark/README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child: one BLAS thread keeps
# job times steady (two threads made small self-tests slower and noisier).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from conjbench.stats import tail_latency  # noqa: E402
from conjbench.trace import PER_LAYER, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"))
SAMPLES_PER_PASS = 8
SETUP_CODE = "import conjsim.cli as cli; cli.build_parser()"
# Machine-speed probe: a fresh interpreter that imports numpy, multiplies
# complex 400x400 matrices and runs a Python loop, touching none of conjsim.
# On a shared 2-vCPU x86_64 VM whole minutes ran up to 30 % slower or faster,
# and interpreter start, Python loops and BLAS shifted by different amounts.
# Times are reported scaled to the machine speed at which this probe takes
# PROBE_REF_S; the unscaled figures are printed as raw.* in the table.
PROBE_CODE = ("import numpy as np; a = np.ones((400, 400), complex); [a @ a for _ in range(4)]; "
              "sum(i * i for i in range(300000))")
PROBE_REF_S = 0.220
RERUN_SAMPLE = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(argv, env, work: Path):
    """Run one CLI job as a fresh interpreter; (latency_s, exit_code, rss_mb, stdout, stderr)."""
    out_path, err_path = work / "job.stdout", work / "job.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conjsim", *argv], env=env,
                                stdout=out, stderr=err, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        latency = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (latency, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(), err_path.read_text())


def interpreter_time(code: str, env, work: Path) -> float:
    """Wall time of a fresh interpreter running ``code``, from spawn to exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=work, check=True)
    return perf_counter() - start


ENV_PROBE = r"""
import ctypes, json, sys, pathlib, numpy
info = {"python": sys.version.split()[0], "numpy": numpy.__version__}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
except (KeyError, TypeError, AttributeError):
    info["blas"] = "unknown"
threads = None
for lib in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*blas*")):
    handle = ctypes.CDLL(str(lib))
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(handle, sym):
            threads = getattr(handle, sym)()
            break
info["blas_threads_in_child"] = threads
print(json.dumps(info))
"""


def environment(env, work: Path, seed: int) -> dict:
    """nproc, BLAS library and thread count (as pinned and as a child sees it), versions, commit."""
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=work, check=True,
                           capture_output=True, text=True)
    record = {"nproc": nproc(), "blas_threads_pinned": BLAS_THREADS,
              "machine": platform.machine(), "seed": seed}
    record.update(json.loads(probe.stdout))
    commit = "unknown (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    record["git_commit"] = commit
    return record


def digest(job, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in job.outputs():
        h.update(path.read_bytes())
    return h.hexdigest()


def out_bytes(job, stdout: str) -> int:
    return len(stdout.encode()) + sum(p.stat().st_size for p in job.outputs() if p.exists())


class Ledger:
    """Every attempted job with its latency, exit code, RSS and oracle problems."""

    def __init__(self):
        self.rows: list[dict] = []
        self.first_digest: dict[str, str] = {}

    def record(self, job, latency, code, rss_mb, stdout, stderr, check, timed=True):
        problems = check(job, code, stdout, stderr)
        if job.out is not None or job.transcript is not None:
            d = digest(job, stdout)
            first = self.first_digest.setdefault(job.name, d)
            if d != first:
                problems.append("output differs from the first run of the same job")
        self.rows.append({"job": job, "latency": latency, "rss": rss_mb,
                          "problems": problems, "timed": timed,
                          "bytes": out_bytes(job, stdout)})

    def timed(self):
        return [r for r in self.rows if r["timed"]]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if r["problems"])


def run_passes(jobs, seconds: float, run_pass) -> list[float]:
    """Whole passes of the job list until ``seconds`` have elapsed; one pass at least."""
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        walls.append(run_pass())
    return walls


def timed_mode(jobs, seconds, env, work, ledger, check, rng) -> tuple[dict, dict]:
    # Set-up and probe samples are spread between the jobs, so their medians see
    # the same machine as the jobs do rather than one moment of the run.
    sample_every = max(1, len(jobs) // SAMPLES_PER_PASS)
    setups: list[float] = []
    probes: list[float] = []

    def one_pass():
        wall = 0.0
        for i, job in enumerate(jobs):
            if i % sample_every == 0:
                setups.append(interpreter_time(SETUP_CODE, env, work))
                probes.append(interpreter_time(PROBE_CODE, env, work))
            latency, code, rss, stdout, stderr = spawn(job.argv, env, work)
            wall += latency
            ledger.record(job, latency, code, rss, stdout, stderr, check)
        return wall

    interpreter_time(SETUP_CODE, env, work)      # fills the bytecode cache
    walls = run_passes(jobs, seconds, one_pass)
    light = [j for j in jobs if j.light and j.outputs()]
    for i in rng.choice(len(light), size=min(RERUN_SAMPLE, len(light)), replace=False):
        job = light[int(i)]
        latency, code, rss, stdout, stderr = spawn(job.argv, env, work)
        ledger.record(job, latency, code, rss, stdout, stderr, check, timed=False)

    rows = ledger.timed()
    latencies = [r["latency"] for r in rows]
    tail, tail_pct = tail_latency(latencies)
    raw = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
           "job_p50_s": statistics.median(latencies), "job_tail_s": tail}
    probe = statistics.median(probes)
    metrics = {name: value * PROBE_REF_S / probe for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(r["rss"] for r in ledger.rows)
    detail = {f"raw.{name}": value for name, value in raw.items()}
    detail.update({"probe_s": probe, "jobs_timed": len(rows), "passes": len(walls),
                   "samples": len(setups), "job_tail_percentile": tail_pct,
                   "failed_frac": ledger.failed / len(ledger.rows)})
    detail.update(class_figures(rows))
    return metrics, detail


def class_figures(rows) -> dict:
    """Median latency per job class, and QKD round rates with and without transcripts."""
    by_class: dict[str, list[float]] = {}
    for r in rows:
        by_class.setdefault(r["job"].cls, []).append(r["latency"])
    out = {}
    for cls, values in sorted(by_class.items()):
        head, _, tail = cls.partition(".")
        out[f"{head}_s.{tail}" if tail else f"{cls}_s"] = statistics.median(values)
    for key, with_transcript in (("qkd_rounds_per_s", False),
                                 ("qkd_rounds_per_s.transcript", True)):
        qkd = [r for r in rows if r["job"].rounds
               and (r["job"].transcript is not None) == with_transcript]
        if qkd:
            out[key] = (sum(r["job"].rounds for r in qkd)
                        / sum(r["latency"] for r in qkd))
    return out


def traced_mode(jobs, seconds, ledger, check) -> tuple[dict, dict]:
    from conjsim import cli

    tracer = Tracer()

    def replay(job, traced: bool) -> float:
        tracer.job = job.name
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            start = perf_counter()
            try:
                code = cli.main(list(job.argv))
            except SystemExit as stop:              # argparse rejections
                code = stop.code if isinstance(stop.code, int) else 2
            latency = perf_counter() - start
        ledger.record(job, latency, code, 0.0, out.getvalue(), err.getvalue(), check,
                      timed=traced)
        return latency

    untraced: list[float] = []

    def pair():
        # Each job runs untraced and traced back to back, in alternating order, so
        # that drift in machine speed cancels out of the overhead.
        walls = {False: 0.0, True: 0.0}
        for i, job in enumerate(jobs):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                walls[traced] += replay(job, traced)
        untraced.append(walls[False])
        return walls[True]

    traced = run_passes(jobs, seconds, pair)
    rows = ledger.timed()
    selftests = [r for r in rows if r["job"].cls.startswith("selftest")]
    refused = sum(1 for r in selftests if not r["problems"]
                  and json.loads(r["job"].out.read_text())["results"]["refused_stage"])
    metrics = layer_metrics(tracer, len(traced), refused=refused, selftests=len(selftests),
                            out_bytes=sum(r["bytes"] for r in rows),
                            traced_s=sum(traced), untraced_s=sum(untraced))
    detail = {"passes": len(traced), "spans": len(tracer.spans),
              "traced_wall_s": statistics.median(traced),
              "untraced_inprocess_wall_s": statistics.median(untraced),
              "failed_frac": ledger.failed / len(ledger.rows)}
    return metrics, detail


def detail_unit(name: str) -> str:
    if "per_s" in name:
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("percentile"):
        return "%"
    return "ratio" if name.endswith("_frac") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conjsim" / "cli.py").is_file():
        print(f"error: no conjsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conjsim
    from conjbench import jobs as jobs_mod, oracle
    if not Path(conjsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: conjsim imported from {conjsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in jobs_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {jobs_mod.WORKLOADS}",
              file=sys.stderr)
        return 2

    import numpy as np
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job_list = jobs_mod.build(args.workload, args.seed, work, nproc())
        env = child_env()
        env_record = environment(env, work, args.seed)
        ledger = Ledger()
        rng = np.random.default_rng([args.seed, 99])
        if args.trace:
            metrics, detail = traced_mode(job_list, args.seconds, ledger, oracle.check)
            units = dict(PER_LAYER)
        else:
            metrics, detail = timed_mode(job_list, args.seconds, env, work, ledger,
                                         oracle.check, rng)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for row in ledger.rows:
        if row["problems"]:
            print(f"FAILED {row['job'].name}: {'; '.join(row['problems'])}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, value in detail.items():
        print(f"  {name:<44} {value:>14.6g} {detail_unit(name)}".rstrip())
    print("environment " + json.dumps(env_record, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": len(ledger.rows),
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
