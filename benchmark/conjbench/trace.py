"""Spans around conjsim's public functions, recorded from outside the program.

``Tracer.installed()`` rebinds every public function defined in the layer
modules, in every conjsim module that holds a reference to it, to a wrapper
that records ``(span_id, name, start, end, parent_id, job)``.  No source file
changes, and the original functions are put back on exit.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from .stats import self_times

LAYERS = ("cli", "serialize", "selftest", "sixstate", "family", "states", "linalg")

SELFTEST_STAGES = (
    "correlations", "sampled_correlations", "check_state_equalities", "check_d_collapse",
    "anticommutator_residual", "extraction_isometry", "extraction_state_fidelity",
    "extraction_action_fidelities", "y_coefficient_check", "estimate_family_params",
    "purify_experiment",
)

# (metric, unit): every per-layer metric the traced run reports, in BENCHMARK.json order
PER_LAYER = (
    [("linalg.embed_operator.calls", "count"), ("linalg.embed_operator.bytes", "B"),
     ("linalg.embed_operator.self_s", "s"), ("linalg.embed_operator.density", "ratio")]
    + [(f"linalg.{fn}.self_s", "s") for fn in (
        "controlled_gate", "permute_subsystems_vector", "pauli_decompose", "op_partial_trace")]
    + [(f"selftest.{stage}.self_s", "s") for stage in SELFTEST_STAGES]
    + [("selftest.refused_frac", "ratio"),
       ("states.expectation.calls", "count"), ("states.expectation.self_s", "s")]
    + [(f"states.{fn}.self_s", "s") for fn in (
        "partial_trace", "support_projector", "purify", "schmidt")]
    + [("sixstate.source_state.self_s", "s"), ("sixstate.run_rounds.self_s", "s"),
       ("sixstate.run_rounds.rounds_per_s", "1/s"), ("sixstate.sift.self_s", "s")]
    + [(f"serialize.{fn}.self_s", "s") for fn in (
        "transcript_to_csv", "transcript_to_dict", "dumps", "experiment_from_json",
        "equivalence_report_to_dict")]
    + [(f"family.{fn}.self_s", "s") for fn in (
        "c_property_suite", "multiparty_sim_state", "hamiltonian_identity_residual")]
    + [("family.c_of.calls", "count"), ("cli.main.self_s", "s"), ("cli.out_bytes", "B")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio")]
)


class Tracer:
    """Collects spans plus the counts that need call arguments or results."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job: str | None = None
        self.embed_op_elements = 0      # elements of the operators handed to embed_operator
        self.embed_out_elements = 0     # elements of the full-space matrices it returned
        self.embed_out_bytes = 0
        self.rounds = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _observe(self, name, args, kwargs, result):
        if name == "linalg.embed_operator":
            self.embed_op_elements += math.prod(np.shape(args[0] if args else kwargs["op"]))
            self.embed_out_elements += math.prod(result.shape)
            self.embed_out_bytes += math.prod(result.shape) * result.dtype.itemsize
        elif name == "sixstate.run_rounds":
            self.rounds += result.n

    def _wrap(self, name, fn):
        observed = name in ("linalg.embed_operator", "sixstate.run_rounds")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.job))
            if observed:
                self._observe(name, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the layers' public functions to traced wrappers for the duration."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"conjsim.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        restore = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "conjsim" or key.startswith("conjsim.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    restore.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(restore):
                setattr(mod, attr, obj)


def layer_metrics(tracer: Tracer, passes: int, *, refused: int, selftests: int,
                  out_bytes: int, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer figures per pass of the job list, from the recorded spans and counts."""
    own = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, name, start, end, _, _ in tracer.spans:
        self_s[name] += own[sid]
        total_s[name] += end - start
        calls[name] += 1
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = calls[metric[:-len(".calls")]] / passes
        elif metric.startswith("layer."):
            values[metric] = layer_self[metric.split(".")[1]] / passes
        elif metric.endswith(".self_s"):
            values[metric] = self_s[metric[:-len(".self_s")]] / passes
    values["linalg.embed_operator.bytes"] = tracer.embed_out_bytes / passes
    values["linalg.embed_operator.density"] = (
        tracer.embed_op_elements / tracer.embed_out_elements if tracer.embed_out_elements else 0.0)
    rounds_s = total_s["sixstate.run_rounds"]
    values["sixstate.run_rounds.rounds_per_s"] = tracer.rounds / rounds_s if rounds_s else 0.0
    values["selftest.refused_frac"] = refused / selftests if selftests else 0.0
    values["cli.out_bytes"] = out_bytes / passes
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return {metric: values[metric] for metric, _ in PER_LAYER}
