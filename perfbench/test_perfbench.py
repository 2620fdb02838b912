"""The benchmark's own tests: its output checks reject perturbed outputs,
and its percentile code refuses a tail it has too few samples for.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import service_mix  # noqa: E402
from common import Spans, check_executed, check_payload, check_state, p90  # noqa: E402


def _state(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q = np.empty((4, 6, 5))
    q[0] = 1.0 + 0.1 * rng.random((6, 5))
    q[1] = 0.3 * rng.random((6, 5))
    q[2] = 0.1 * rng.random((6, 5))
    q[3] = 2.5 + rng.random((6, 5))
    return q


def test_state_check_accepts_identical_state():
    q = _state()
    assert check_state(q.copy(), q) == []


def test_state_check_rejects_one_changed_element():
    q = _state()
    bad = q.copy()
    bad[1, 3, 2] = np.nextafter(bad[1, 3, 2], 1.0)
    problems = check_state(bad, q)
    assert problems and "1 elements" in problems[0]


def test_state_check_rejects_nonphysical_state():
    q = _state()
    q[0, 0, 0] = -1.0
    assert any("density" in p for p in check_state(q, q))


def _records(states):
    """A primary cold job, then a hit and a follower of the same request."""
    req_a = service_mix._request(service_mix.COLD_KW, service_mix.COLD_STEPS, 1e-3)
    fp = req_a.fingerprint()
    rows = [("cold", "cold", "job-1"), ("hit", "hit", "job-2"),
            ("follower", "follower", "job-3")]
    return fp, [
        {"planned": planned, "kind": kind, "id": job, "fp": fp, "req": req_a,
         "q": q, "t": 0.5}
        for (planned, kind, job), q in zip(rows, states)
    ]


def test_mix_verify_accepts_consistent_payloads():
    q = _state()
    fp, records = _records([q, q.copy(), q.copy()])
    direct = {fp: (records[0]["req"], q, 0.5)}
    assert service_mix.verify(records, direct, 1) == (0, [])


def test_mix_verify_rejects_hit_payload_of_another_request():
    q, other = _state(0), _state(1)
    fp, records = _records([q, other, q.copy()])
    direct = {fp: (records[0]["req"], q, 0.5)}
    failed, problems = service_mix.verify(records, direct, 1)
    assert failed == 1 and "job-2" in problems[0]


def test_mix_verify_rejects_executed_count_off_by_one():
    q = _state()
    fp, records = _records([q, q.copy(), q.copy()])
    direct = {fp: (records[0]["req"], q, 0.5)}
    for executed in (0, 2):
        _failed, problems = service_mix.verify(records, direct, executed)
        assert problems and "executed" in problems[0]
    assert check_executed(4, 5) and check_executed(5, 4)


def test_payload_check_compares_time_too():
    q = _state()
    assert check_payload(q, 0.5, q, 0.5) == []
    assert check_payload(q, 0.5, q, 0.25)


@pytest.mark.parametrize("n", [2, 50, 99, 100])
def test_p90_needs_ten_samples_beyond_it(n):
    values = [float(i) for i in range(n)]
    cut = p90(values)
    if n < 100:
        assert cut is None
    else:
        assert sum(v > cut for v in values) >= 10


def test_p90_with_ties_reports_none():
    assert p90([1.0] * 200) is None


def test_spans_write_a_perfetto_trace(tmp_path):
    spans = Spans("run-1")
    with spans.span("outer"):
        with spans.span("inner", n=3):
            pass
    path = tmp_path / "t.json"
    spans.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    inner = next(e for e in events if e["name"] == "inner")
    outer = next(e for e in events if e["name"] == "outer")
    assert inner["args"]["parent"] == outer["args"]["span_id"]
    assert {e["args"]["run_id"] for e in events} == {"run-1"}

