#!/usr/bin/env python3
"""Check that two source trees give the same bytes on every benchmark workload job.

    python scripts/workload_parity.py OLD_SRC NEW_SRC --seed 5 23

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  For each
seed, the job lists of all three workloads are built with
``benchmark/conjbench/jobs.build`` in one scratch directory; the input files
are generated by the conjsim of OLD_SRC, and nothing under ``benchmark/`` is
written.  Every job then runs as a fresh ``python -m conjsim`` against each
tree in turn, in the same work paths, with one BLAS thread.  Exit code,
stdout, stderr and the bytes of the job's output files are compared.  The
script prints the number of differing jobs and every one of them, and exits 1
on any difference.  For each differing JSON report file it also says which of
VERDICT_KEYS, read under ``results``, changed; when none did, it gives the
largest absolute change of a float leaf and whether any other leaf or any key
set changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("exit", "stdout", "stderr", "outputs")
VERDICT_KEYS = ("verdict", "failures", "refused_stage", "flag_populations.population_0",
                "flag_populations.population_1")


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(job, src: Path, work: Path) -> dict:
    """One job against one tree: exit code, stdout, stderr and the bytes of each output."""
    for path in job.outputs():
        path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "conjsim", *job.argv], env=child_env(src),
                          cwd=work, capture_output=True, timeout=600)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "outputs": {p.name: p.read_bytes() if p.exists() else None for p in job.outputs()}}


def differences(old: dict, new: dict) -> list[tuple[str, list[str]]]:
    """(job, fields that differ) for every job whose results differ, in job order.

    A job present on one side only differs in every field.
    """
    out = []
    for name in [*old, *(n for n in new if n not in old)]:
        if name not in old or name not in new:
            out.append((name, list(FIELDS)))
            continue
        fields = [f for f in FIELDS if old[name][f] != new[name][f]]
        if fields:
            out.append((name, fields))
    return out


def verdict_changes(old: bytes | None, new: bytes | None) -> list[str] | None:
    """The VERDICT_KEYS whose values differ between two report files, or None when either is
    not a JSON report; a key absent from a report reads None."""
    def at(results, key):
        for part in key.split("."):
            results = results.get(part) if isinstance(results, dict) else None
        return results

    try:
        reports = [json.loads(data)["results"] for data in (old, new)]
    except (TypeError, ValueError, KeyError):
        return None
    return [key for key in VERDICT_KEYS if at(reports[0], key) != at(reports[1], key)]


def float_drift(old: bytes, new: bytes) -> tuple[float, bool]:
    """The largest absolute difference between float leaves at the same place in two JSON
    documents, and whether anything else differs: a non-float leaf, a key set, a list length
    or a leaf's type."""
    worst, other = 0.0, False

    def walk(a, b):
        nonlocal worst, other
        if isinstance(a, dict) and isinstance(b, dict):
            other |= a.keys() != b.keys()
            for key in a.keys() & b.keys():
                walk(a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            other |= len(a) != len(b)
            for x, y in zip(a, b):
                walk(x, y)
        elif type(a) is float and type(b) is float:       # reports write no NaN
            worst = max(worst, abs(a - b))
        else:
            other |= type(a) is not type(b) or a != b

    walk(json.loads(old), json.loads(new))
    return worst, other


def describe(name: str, fields: list[str], old: dict, new: dict) -> str:
    line = f"  {name}: {', '.join(fields)}"
    if name in old and name in new:
        if "exit" in fields:
            line += f"; exit {old[name]['exit']} -> {new[name]['exit']}"
        if "stderr" in fields:
            line += f"; stderr {old[name]['stderr'][-200:]!r} -> {new[name]['stderr'][-200:]!r}"
        before, after = old[name]["outputs"], new[name]["outputs"]
        for path in sorted(set(before) | set(after)):
            if before.get(path) == after.get(path):
                continue
            changes = verdict_changes(before.get(path), after.get(path))
            if changes:
                line += f"; {path} changed {', '.join(changes)}"
            elif changes is not None:
                worst, other = float_drift(before[path], after[path])
                line += (f"; {path} kept its verdict keys, floats moved by at most {worst:.1e}, "
                         + ("other leaves or keys changed" if other else "nothing else changed"))
    return line


def summary(seed: int, old: dict, new: dict, diffs: list[tuple[str, list[str]]]) -> str:
    """The seed's count of differing jobs, then every one of them, a line each."""
    return "\n".join([f"seed {seed}: {len(old)} jobs, {len(diffs)} differ",
                      *(describe(name, fields, old, new) for name, fields in diffs)])


def run_seed(seed: int, old_src: Path, new_src: Path, work: Path) -> tuple[dict, dict]:
    from conjbench.jobs import WORKLOADS, build

    old, new = {}, {}
    for workload in WORKLOADS:
        jobs = build(workload, seed, work / workload, len(os.sched_getaffinity(0)))
        for job in jobs:
            key = f"{workload}/{job.name}"
            old[key] = run_job(job, old_src, work / workload)
            new[key] = run_job(job, new_src, work / workload)
    return old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    for src in (old_src, new_src):
        if not (src / "conjsim" / "__init__.py").is_file():
            parser.error(f"{src} holds no conjsim package")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(old_src), str(ROOT / "benchmark")]

    failed = False
    for seed in args.seed:
        work = Path(tempfile.mkdtemp(prefix=f"workload_parity.{seed}."))
        try:
            old, new = run_seed(seed, old_src, new_src, work)
        finally:
            shutil.rmtree(work)
        diffs = differences(old, new)
        print(summary(seed, old, new, diffs))
        failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
