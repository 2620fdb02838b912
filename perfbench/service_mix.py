"""``service-mix``: one client in a closed loop against ``repro serve``.

The service runs two workers on a fresh store pre-filled with genuine
small runs.  The client keeps at most two requests in flight and sends
whole rounds of a fixed mix (``ROUND``): cold small jet runs, repeats of
completed requests (cache hits) and duplicates of a request still in
flight (dedupe followers).  The seed picks every request's excitation
amplitude and which completed request each repeat names.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import check_executed, check_payload, median, p90

PREFILL = 300
PREFILL_KW = {"nx": 16, "nr": 8}
PREFILL_STEPS = 2
COLD_KW = {"nx": 32, "nr": 16}
COLD_STEPS = 5
#: One round: groups of requests sent together.  Only a dedupe follower
#: is sent beside its primary (two in flight); every other request goes
#: alone, so requests do not time-share the core with each other.
#: 9 cold jobs, 4 hits and 2 followers per round.
ROUND = (
    ("cold",),
    ("hit",),
    ("cold", "follower"),
    ("cold",),
    ("cold",),
    ("hit",),
    ("cold",),
    ("cold", "follower"),
    ("hit",),
    ("cold",),
    ("cold",),
    ("hit",),
    ("cold",),
)
CALL_TIMEOUT = 60.0


def _request(kw: dict, steps: int, eps: float):
    from repro.request import RunRequest

    return RunRequest("jet", steps=steps, scenario_kw={**kw, "epsilon": eps})


class Mix:
    """The seeded request generator of one run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"mix-{seed}")
        self._used: set[float] = set()

    def _eps(self) -> float:
        while True:
            eps = 1e-3 * (0.5 + self.rng.random())
            if eps not in self._used:
                self._used.add(eps)
                return eps

    def prefill_request(self):
        return _request(PREFILL_KW, PREFILL_STEPS, self._eps())

    def cold_request(self):
        return _request(COLD_KW, COLD_STEPS, self._eps())

    def pick(self, known: list):
        return known[self.rng.randrange(len(known))]


def prefill(mix: Mix, store) -> dict:
    """Fill ``store`` with ``PREFILL`` genuine runs, written the way a
    service worker writes them; returns ``fingerprint -> (request, q, t)``."""
    from repro.api import run_request
    from repro.request import ObservabilityConfig

    direct = {}
    for _ in range(PREFILL):
        req = mix.prefill_request()
        res = run_request(req.replace(observability=ObservabilityConfig(metrics=True)))
        res.request = None
        fp = req.fingerprint()
        store.put(fp, res, kind="run", request=req.to_dict(), report=res.perf.to_dict())
        direct[fp] = (req, res.state.q, res.t)
    return direct


class Server:
    """``python -m repro serve`` in a child process, closed on every path."""

    def __init__(self, root: str, socket_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.socket_path = socket_path
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--socket", socket_path],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    def client(self, timeout: float = 60.0):
        """A connected client, once the server answers ``ping``."""
        from repro.service import ServiceClient, ServiceUnavailable

        client = ServiceClient(self.socket_path, timeout=CALL_TIMEOUT)
        deadline = time.monotonic() + timeout
        while True:
            try:
                client.ping()
                return client
            except (ServiceUnavailable, ConnectionError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up") from None
                time.sleep(0.02)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                from repro.service import ServiceClient

                ServiceClient(self.socket_path, timeout=5.0).shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall through to terminate
                pass
        for stop in (self.proc.terminate, self.proc.kill):
            if self.proc.poll() is not None:
                break
            stop()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


def _send(client, spans, planned, req, fp, before=None, after=None) -> dict:
    """Submit one request and fetch its result; the latency runs from the
    submit call to the unpickled payload."""
    if before is not None and not before.wait(CALL_TIMEOUT):
        raise TimeoutError("primary was never submitted")
    t0 = time.perf_counter()
    try:
        with spans.span("service.submit", planned=planned):
            job = client.submit(req)
    finally:
        if after is not None:
            after.set()
    t1 = time.perf_counter()
    with spans.span("service.result", planned=planned):
        payload = client.result(job["id"], timeout=CALL_TIMEOUT)
    t2 = time.perf_counter()
    if job["status"] == "cached":
        kind = "hit"
    elif job["attached_to"]:
        kind = "follower"
    else:
        kind = "cold"
    return {
        "planned": planned,
        "kind": kind,
        "id": job["id"],
        "fp": fp,
        "req": req,
        "latency_s": t2 - t0,
        "submit_s": t1 - t0,
        "result_s": t2 - t1,
        "q": payload.state.q,
        "t": payload.t,
    }


def run_mix(client, mix: Mix, known: list, seconds: float, spans,
            min_rounds: int = 0) -> tuple[list[dict], list[float]]:
    """Whole rounds until ``seconds`` (and ``min_rounds``) have passed.

    ``known`` holds ``(request, fingerprint)`` of completed requests that
    repeats may name; cold jobs are appended as they complete.  Returns
    the per-request records (errors included) and each round's completed
    jobs per second.
    """
    records: list[dict] = []
    round_rates: list[float] = []
    start = time.perf_counter()
    rounds = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        while True:
            t_round, done = time.perf_counter(), len(records)
            with spans.span("mix.round", round=rounds):
                for group in ROUND:
                    calls = []
                    submitted = None
                    for planned in group:
                        if planned == "hit":
                            req, fp = mix.pick(known)
                            calls.append((planned, req, fp, None, None))
                            continue
                        if planned == "follower":
                            _, req, fp, _, _ = calls[0]
                            calls.append((planned, req, fp, submitted, None))
                            continue
                        req = mix.cold_request()
                        submitted = threading.Event()
                        calls.append((planned, req, req.fingerprint(), None, submitted))
                    futures = [
                        (c, pool.submit(_send, client, spans, *c)) for c in calls
                    ]
                    for (planned, req, fp, _, _), fut in futures:
                        try:
                            rec = fut.result(timeout=3 * CALL_TIMEOUT)
                        except Exception as exc:  # noqa: BLE001 - counted as failed
                            records.append({"planned": planned, "req": req,
                                            "fp": fp, "error": repr(exc)})
                            continue
                        records.append(rec)
                        if rec["kind"] == "cold":
                            known.append((req, fp))
            ok = sum(1 for r in records[done:] if "error" not in r)
            round_rates.append(ok / (time.perf_counter() - t_round))
            rounds += 1
            if time.perf_counter() - start >= seconds and rounds >= min_rounds:
                return records, round_rates


def verify(records: list[dict], direct: dict, service_executed: int):
    """``(failed, problems)``: every cold payload against a direct
    in-process run of its request, every hit and follower against its
    primary's result, and the service's executed-job count against the
    distinct new fingerprints the client sent.  A request that raised is
    failed but is no wrong output, so it adds no problem."""
    from repro.api import run_request

    failed, problems = 0, []
    new_fps = {r["fp"] for r in records if r["planned"] not in ("hit", "follower")}
    for r in records:
        if "error" in r:
            failed += 1
            print(f"{r['planned']} request failed: {r['error']}", file=sys.stderr)
            continue
        if r["fp"] not in direct:
            res = run_request(r["req"])
            direct[r["fp"]] = (r["req"], res.state.q, res.t)
        _, ref_q, ref_t = direct[r["fp"]]
        found = check_payload(r["q"], r["t"], ref_q, ref_t)
        if found:
            failed += 1
            problems += [f"{r['id']} ({r['kind']}): {p}" for p in found]
    problems += check_executed(service_executed, len(new_fps))
    return failed, problems


def job_times(client, records) -> dict:
    """Service-side timestamps of the run's jobs, by job id."""
    ids = {r["id"] for r in records if "id" in r}
    return {j["id"]: j for j in client.jobs() if j["id"] in ids}


def end_to_end(records: list[dict], jobs: dict, round_rates: list[float]) -> dict:
    """Latency medians; throughput is the median round's, since a few
    stalls of several hundred milliseconds (seen in some runs, not in
    others) move a whole-run mean by 20% and a median round not at all."""
    ok = [r for r in records if "error" not in r]
    cold = [r for r in ok if r["kind"] == "cold"]
    hits = [r for r in ok if r["kind"] == "hit"]
    exec_s = [jobs[r["id"]]["finished"] - jobs[r["id"]]["started"] for r in cold]
    return {
        "step_ms": 1e3 * median(exec_s) / COLD_STEPS,
        "job_ms": 1e3 * median([r["latency_s"] for r in cold]),
        "hit_ms": 1e3 * median([r["latency_s"] for r in hits]),
        "jobs_per_s": median(round_rates),
    }


def layer_metrics(records: list[dict], jobs: dict) -> dict:
    """The ``service.*`` per-layer numbers of one mix."""
    ok = [r for r in records if "error" not in r]
    cold = [r for r in ok if r["kind"] == "cold"]
    hits = [r for r in ok if r["kind"] == "hit"]
    tail = p90([r["latency_s"] for r in cold])
    return {
        "service.submit_ms": 1e3 * median([r["submit_s"] for r in ok]),
        "service.queue_ms": 1e3 * median(
            [jobs[r["id"]]["started"] - jobs[r["id"]]["submitted"] for r in cold]
        ),
        "service.exec_ms": 1e3 * median(
            [jobs[r["id"]]["finished"] - jobs[r["id"]]["started"] for r in cold]
        ),
        "service.result_ms": 1e3 * median([r["result_s"] for r in hits]),
        "service.job_ms_p90": None if tail is None else 1e3 * tail,
    }


def session(root: str, run_dir: str, seed: int, seconds: float, spans,
            min_rounds: int = 0, ready=None) -> dict:
    """Pre-fill a fresh store, start the service, run the mix, stop the
    service.  ``ready`` is called once the service answers (set-up ends)."""
    from repro.service import ResultStore

    mix = Mix(seed)
    store = ResultStore()  # under $REPRO_DATA_DIR, fresh for this run
    direct = prefill(mix, store)
    server = Server(root, os.path.relpath(os.path.join(run_dir, "s.sock")))
    try:
        client = server.client()
        if ready is not None:
            ready()
        known = [(req, fp) for fp, (req, _, _) in direct.items()]
        records, round_rates = run_mix(client, mix, known, seconds, spans, min_rounds)
        jobs = job_times(client, records)
        executed = client.ping()["executed"]
    finally:
        server.close()
    return {
        "records": records,
        "round_rates": round_rates,
        "jobs": jobs,
        "executed": executed,
        "direct": direct,
        "store_root": str(store.root),
    }
