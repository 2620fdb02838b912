"""Shared pieces of the benchmark: statistics, checks, spans, host record.

Nothing here imports ``repro``: the checks and statistics are plain
functions over numbers and arrays, so the benchmark's own tests exercise
them without running a solver.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

# -- statistics ---------------------------------------------------------------


def median(values):
    return statistics.median(values)


def p90(values):
    """The 90th percentile, or ``None`` when fewer than 10 samples lie
    beyond it (a percentile with so few samples past it is no tail)."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=10)[-1]
    if sum(1 for v in values if v > cut) < 10:
        return None
    return cut


# -- correctness checks ---------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def bitwise_equal(a, b) -> bool:
    """Equal bit patterns (so ``NaN``/``-0.0`` differences count)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.array_equal(_bits(a), _bits(b)))


def check_state(q, ref_q, gamma: float = 1.4) -> list[str]:
    """A final jet state against its reference: bitwise equal, finite,
    positive density and pressure."""
    problems = []
    if not bitwise_equal(q, ref_q):
        diff = 0 if np.shape(q) != np.shape(ref_q) else int(
            np.count_nonzero(_bits(q) != _bits(ref_q))
        )
        problems.append(f"state differs from reference ({diff} elements)")
    q = np.asarray(q)
    if not np.all(np.isfinite(q)):
        problems.append("state has non-finite values")
    else:
        rho = q[0]
        p = (gamma - 1.0) * (q[3] - 0.5 * (q[1] ** 2 + q[2] ** 2) / rho)
        if not (np.all(rho > 0) and np.all(p > 0)):
            problems.append("state has non-positive density or pressure")
    return problems


def check_payload(q, t, ref_q, ref_t) -> list[str]:
    """A service payload (or a hit/follower's) against its reference run."""
    problems = []
    if not bitwise_equal(q, ref_q):
        problems.append("payload state differs from reference run")
    if t != ref_t:
        problems.append(f"payload time {t!r} != reference {ref_t!r}")
    return problems


def check_executed(service_executed: int, client_distinct: int) -> list[str]:
    """The service ran exactly one job per distinct new fingerprint sent."""
    if service_executed != client_distinct:
        return [
            f"service executed {service_executed} jobs, client sent "
            f"{client_distinct} distinct new fingerprints"
        ]
    return []


# -- spans ----------------------------------------------------------------------


class Spans:
    """In-memory spans around the benchmark's calls into each layer.

    Every span has a name, start, end, parent and the run's id; the list
    is written once at the end as Chrome trace JSON, which Perfetto opens.
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.records: list[dict] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {
            "id": None,
            "name": name,
            "parent": stack[-1] if stack else None,
            "args": args,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.records.append(rec)  # list.append is atomic across threads
        rec["id"] = id(rec)
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.perf_counter_ns()

    def write_chrome_trace(self, path: str) -> None:
        base = min((r["start"] for r in self.records), default=0)
        events = [
            {
                "name": r["name"],
                "cat": r["name"].split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (r["start"] - base) / 1e3,
                "dur": (r["end"] - r["start"]) / 1e3,
                "args": {
                    "span_id": r["id"],
                    "parent": r["parent"],
                    "run_id": self.run_id,
                    **r["args"],
                },
            }
            for r in self.records
            if r["end"] is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "metadata": {"run_id": self.run_id}},
                fh,
            )


# -- process and host facts -------------------------------------------------------


def process_age_s(fallback_start: float) -> float:
    """Seconds since this process started (``/proc``), else since
    ``fallback_start`` on the ``perf_counter`` clock."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    fallback = time.perf_counter() - fallback_start
    return age if fallback <= age < fallback + 60.0 else fallback


def core_steal_s() -> float:
    """CPU steal so far on the core this process is pinned to (all cores
    when it is not pinned to one), from ``/proc/stat``."""
    cpus = os.sched_getaffinity(0)
    name = f"cpu{min(cpus)}" if len(cpus) == 1 else "cpu"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if parts[0] == name:
                    return int(parts[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cpu_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            parts = fh.readline().split()
    except OSError:
        return None
    ticks = [int(x) for x in parts[1:]]
    steal = ticks[7] if len(ticks) > 7 else 0
    # guest time is already counted in user/nice
    return sum(ticks[:8]), steal


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class HostRecord:
    """CPU model, cores, load and the CPU steal share over one run."""

    def __init__(self) -> None:
        self.start_ticks = _cpu_ticks()
        self.load_start = _loadavg()

    def finish(self) -> dict:
        end = _cpu_ticks()
        steal = None
        if self.start_ticks and end and end[0] > self.start_ticks[0]:
            steal = (end[1] - self.start_ticks[1]) / (end[0] - self.start_ticks[0])
        return {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "loadavg_start": self.load_start,
            "loadavg_end": _loadavg(),
            "steal_share": steal,
        }
