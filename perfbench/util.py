"""Measurement helpers shared by the benchmark's processes.

* :class:`Spans` — an in-memory span recorder the benchmark wraps
  around its calls into each layer; :data:`NO_SPANS` is the disabled
  twin used for the untraced (end-to-end) runs.
* :func:`tree_cpu_s` / :func:`tree_peak_rss_mb` — CPU seconds and peak
  RSS of this process and every live descendant, read from ``/proc`` so
  fabric workers, pool workers and the gateway server are all counted
  while they run.
* :func:`pct` / :func:`median` — percentiles from raw samples.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

_TICK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Statistics
def pct(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of raw samples, linear interpolation."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else float("nan")


# ----------------------------------------------------------------------
# Spans
class Spans:
    """Spans ``(name, start, end, parent)`` kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append((name, time.monotonic(), None, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.records[index]
            self.records[index] = (name, start, time.monotonic(), parent)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.records if n == name]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for i, (name, start, end, parent) in enumerate(self.records):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


class _NoSpans(Spans):
    @contextmanager
    def span(self, name: str):
        yield


NO_SPANS = _NoSpans()


# ----------------------------------------------------------------------
# Process-tree accounting
def _children_map() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kids.setdefault(int(fields[1]), []).append(int(entry))
    return kids


def tree_pids(root: Optional[int] = None) -> List[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def _cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime, stime are fields 14 and 15 of stat(5); index 0 here is field 3.
    return (int(fields[11]) + int(fields[12])) / _TICK


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_cpu_s(root: Optional[int] = None) -> Dict[int, float]:
    """CPU seconds (user + system) per live process of the tree."""
    return {pid: _cpu_s(pid) for pid in tree_pids(root)}


def cpu_delta_s(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU spent between two :func:`tree_cpu_s` readings.

    A process that appeared in between is counted from zero (it was
    forked during the interval); one that ended is counted up to its
    last reading, which is all ``/proc`` can tell.
    """
    pids = set(before) | set(after)
    return sum(
        max(after.get(pid, before.get(pid, 0.0)) - before.get(pid, 0.0), 0.0)
        for pid in pids
    )


def tree_peak_rss_mb(root: Optional[int] = None) -> float:
    """Sum of the peak resident set size of every live tree process."""
    return sum(_hwm_mb(pid) for pid in tree_pids(root))
