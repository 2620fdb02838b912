"""``jet-serial`` and ``jet-p2``: the paper's 250x100 Navier-Stokes jet.

Both workloads repeat one seeded solve request through
:func:`repro.api.run_request` until the run's time is up.  The seed sets
the jet's excitation amplitude; everything else is the paper's
configuration with compiled kernels.  ``jet-p2`` runs it on two
process-substrate ranks, split axially, with Version 5's grouped blocking
exchange.
"""

from __future__ import annotations

import dataclasses
import random
import time

from common import check_state, core_steal_s, median

NX, NR = 250, 100
STEPS = 300


def epsilon_for(seed: int) -> float:
    """Excitation amplitude: 0.5x to 1.5x the paper's level, from the seed."""
    return 1e-3 * (0.5 + random.Random(f"jet-{seed}").random())


def jet_request(seed: int, nprocs: int, steps: int = STEPS, backend="compiled"):
    from repro.request import ExecutionConfig, RunRequest

    return RunRequest(
        "jet",
        steps=steps,
        scenario_kw={"nx": NX, "nr": NR, "epsilon": epsilon_for(seed)},
        execution=ExecutionConfig(
            nprocs=nprocs,
            substrate="process" if nprocs > 1 else "virtual",
            decomposition="axial",
            version=5,
            backend=backend,
        ),
    )


def with_execution(req, **changes):
    return req.replace(execution=dataclasses.replace(req.execution, **changes))


def setup(seed: int, nprocs: int):
    """Everything before the first timed solve: the request, its scenario
    and initial state, and the loaded compiled kernels."""
    from repro.numerics.kernels import get_backend

    get_backend("compiled").ops()
    req = jet_request(seed, nprocs)
    req.resolve_scenario()
    return req


def measure(req, seconds: float, spans) -> list[dict]:
    """Solve ``req`` repeatedly for ``seconds``; one record per solve,
    with the CPU steal the run's core suffered during it."""
    from repro.api import run_request

    solves = []
    start = time.perf_counter()
    while True:
        steal0 = core_steal_s()
        t0 = time.perf_counter()
        with spans.span("api.run_request", nprocs=req.execution.nprocs):
            res = run_request(req)
        wall = time.perf_counter() - t0
        solves.append({
            "wall_s": wall,
            "steal_s": core_steal_s() - steal0,
            "steps": res.steps,
            "q": res.state.q,
        })
        if time.perf_counter() - start >= seconds:
            return solves


def reference_state(req):
    """The state the timed solves must reproduce bit for bit, computed
    apart from the timed path: the numpy ``fused`` backend for a serial
    request, an undecomposed serial run for a distributed one."""
    from repro.api import run_request

    if req.execution.nprocs == 1:
        ref = with_execution(req, backend="fused")
    else:
        ref = with_execution(req, nprocs=1, substrate="virtual")
    return run_request(ref).state.q


def verify(req, solves) -> tuple[int, list[str]]:
    """``(failed_steps, problems)`` of the timed solves."""
    ref_q = reference_state(req)
    failed, problems = 0, []
    for i, s in enumerate(solves):
        found = check_state(s["q"], ref_q)
        if s["steps"] != req.steps:
            found.append(f"ran {s['steps']} steps, asked {req.steps}")
        if found:
            failed += req.steps
            problems += [f"solve {i}: {p}" for p in found]
    return failed, problems


def end_to_end(solves) -> dict:
    """Per-solve numbers: a solve is this workload's job; every solve after
    the first repeats the same request, which re-executes (no cache).

    Each solve's wall time is taken net of the CPU steal its core
    suffered meanwhile: on a shared host steal follows other tenants'
    load and moved the raw wall time of identical runs by 20%.
    """
    walls = [s["wall_s"] - s["steal_s"] for s in solves]
    steps = solves[0]["steps"]
    repeats = walls[1:] or walls
    return {
        "step_ms": 1e3 * median(walls) / steps,
        "job_ms": 1e3 * median(walls),
        "hit_ms": 1e3 * median(repeats),
        "jobs_per_s": 1.0 / median(walls),
    }
