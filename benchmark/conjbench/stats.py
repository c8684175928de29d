"""The tail-latency rule and span self time."""

from __future__ import annotations

from collections import defaultdict

TAIL_BEYOND = 10


def tail_latency(values) -> tuple[float, float]:
    """Value at the highest percentile that still has ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``.  With n sorted samples that is the sample at
    0-based rank ``n - TAIL_BEYOND - 1``.  With ``TAIL_BEYOND`` samples or fewer no
    percentile qualifies, and the minimum is returned with percentile 0.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[0], 0.0
    return ordered[rank], 100.0 * rank / len(ordered)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part its children cover.

    ``spans`` is an iterable of ``(span_id, name, start, end, parent_id, job)``;
    a parent id of -1 marks a root.  Child intervals are clipped to the parent
    and merged before subtraction, so overlapping children are counted once.
    """
    spans = list(spans)
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out
