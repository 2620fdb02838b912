"""Per-layer numbers for the traced run.

Every function here times calls into one layer's public functions from
the benchmark's own code, inside spans, on the shapes the workloads use:
the 250x100 grid, one rank's 125x100 block, the halo messages ``jet-p2``
sends, and the store ``service-mix`` builds.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter

import numpy as np

import jets
from common import median

#: Calls per timed batch and batches per kernel.
KERNEL_CALLS, KERNEL_BATCHES = 10, 15
#: Serial steps timed one by one (>= 1000, so p99 has 10 samples past it).
SOLVER_STEPS = 1100
#: Step counts of the two-rank runs whose difference gives the exact
#: per-step message counts.
SHORT_STEPS, LONG_STEPS, PARALLEL_REPS = 20, 120, 2
#: Ping-pong round trips per batch and batches per message size.
PING_ITERS, PING_BATCHES = 100, 5


# -- numerics.kernels ---------------------------------------------------------------


def _evolved_state(seed: int, steps: int = 20):
    """The 250x100 jet scenario and its state after ``steps`` steps."""
    from repro.api import run_request

    req = jets.jet_request(seed, 1, steps=steps)
    sc = req.resolve_scenario()
    return sc, run_request(req).state.q


def _counting_backend():
    """A compiled backend whose kernel calls add up their operand bytes."""
    from repro.numerics.kernels import CompiledBackend, CompiledWorkspace

    class CountingOps:
        def __init__(self, ops):
            self._ops = ops
            self.bytes = 0
            self.calls = Counter()

        def __getattr__(self, name):
            fn = getattr(self._ops, name)
            if name.startswith("_") or not callable(fn):
                return fn

            def counted(*args, **kw):
                args = args + tuple(kw.values())
                arrays = [a for a in args if isinstance(a, np.ndarray)]
                arrays += [
                    getattr(a, f) for a in args if isinstance(a, CompiledWorkspace)
                    for f in ("u", "v", "T")
                ]
                self.calls[name] += 1
                self.bytes += sum(a.nbytes for a in arrays)
                return fn(*args[: len(args) - len(kw)], **kw)

            return counted

    class CountingBackend(CompiledBackend):
        name = "perfbench-counting"

        def step_workspace(self, solver):
            ws = super().step_workspace(solver)
            self.ops_proxy = CountingOps(ws.ops)
            ws.ops = ws.sweep_x.ops = ws.sweep_r.ops = self.ops_proxy
            return ws

    return CountingBackend()


def _bytes_per_cell(sc) -> float:
    """Operand bytes of every compiled-kernel call in one serial step, per
    cell (computed from array sizes, so cache reuse is not seen)."""
    from repro.numerics.kernels import register_backend
    from repro.physics.state import FlowState

    backend = _counting_backend()
    register_backend(backend.name, backend)
    config = dataclasses.replace(sc.solver.config, backend=backend.name)
    solver = type(sc.solver)(
        FlowState(sc.grid, sc.state.q.copy(), config.gamma), config
    )
    solver.step()
    backend.ops_proxy.bytes = 0
    solver.step()
    return backend.ops_proxy.bytes / (sc.grid.nx * sc.grid.nr)


def kernel_metrics(seed: int, spans) -> dict:
    from repro import constants
    from repro.numerics.kernels import CompiledWorkspace, get_backend
    from repro.numerics.opcount import navier_stokes_ops
    from repro.numerics.solver import FluxModel
    from repro.physics import eos

    ops = get_backend("compiled").ops()
    sc, q = _evolved_state(seed)
    fm = sc.solver.fm
    nx, nr = sc.grid.nx, sc.grid.nr
    gamma, dt, dx = fm.gamma, 1e-3, fm.dx
    ws = CompiledWorkspace(q.shape, True, False, ops)
    mu = fm.mu
    k = eos.conductivity(mu, gamma, constants.PRANDTL)
    ops.prim(q, gamma, ws.inv_rho, ws.u, ws.v, ws.p, ws.T)
    F = ws.axial_flux(fm, q).copy()
    ops.rate(F, None, None, 1, dx, True, None, 1.0, ws.rate)
    ghosts = np.ascontiguousarray(np.stack([F[:, -1, :], F[:, -2, :]]))
    filtered = q.copy()

    # One rank's block of the axial split, with the uvT ghost lines every
    # distributed rank passes (the subdomain-edge viscous path).
    lo_col, hi_col = nx // 4, nx // 4 + nx // 2
    qb = np.ascontiguousarray(q[:, lo_col:hi_col])
    fmb = FluxModel(fm.r, fm.dx, fm.dr, fm.config)
    wsb = CompiledWorkspace(qb.shape, True, False, ops)
    u, v, T = fm.primitives(q)
    halo = (
        np.stack([u[lo_col - 1], v[lo_col - 1], T[lo_col - 1]]),
        np.stack([u[hi_col], v[hi_col], T[hi_col]]),
    )

    full, block, strip = nx * nr, qb.shape[1] * nr, 2 * nr
    kernels = {
        "prim": (full, lambda: ops.prim(q, gamma, ws.inv_rho, ws.u, ws.v, ws.p, ws.T)),
        "ax_inv": (full, lambda: ops.ax_inv(q, ws.u, ws.v, ws.p, ws.F)),
        "rad_inv": (full, lambda: ops.rad_inv(q, ws.u, ws.v, ws.p, ws.F)),
        "visc": (full, lambda: ops.visc(ws.F, None, ws, fm.r, mu, k, fm.dx, fm.dr, False)),
        "rate": (full, lambda: ops.rate(F, None, None, 1, dx, True, None, 1.0, ws.rate)),
        "predictor": (full, lambda: ops.predictor(q, ws.rate, dt, ws.q_star)),
        "corrector": (full, lambda: ops.corrector(q, ws.q_star, ws.rate, dt, ws.tmp3)),
        "filter": (full, lambda: ops.filter_apply(filtered, None, None, 1, 1e-3, ws.rate[0])),
        "rate_edges": (strip, lambda: ops.rate_edges(F, ghosts, 1, dx, True, None, 1.0, ws.rate)),
        "axial_flux": (full, lambda: ws.axial_flux(fm, q)),
        "radial_flux": (full, lambda: ws.radial_flux(fm, q)),
        "axial_flux_halo": (block, lambda: wsb.axial_flux(fmb, qb, uvT_halo=halo)),
        "radial_flux_halo": (block, lambda: wsb.radial_flux(fmb, qb, uvT_halo=halo)),
    }
    per_call = {name: [] for name in kernels}
    for _ in range(KERNEL_BATCHES):  # round-robin, so drift hits all alike
        for name, (_cells, call) in kernels.items():
            with spans.span(f"kernels.{name}", calls=KERNEL_CALLS) as rec:
                for _ in range(KERNEL_CALLS):
                    call()
            per_call[name].append((rec["end"] - rec["start"]) / KERNEL_CALLS)
    out = {
        f"kernels.{name}_ns_per_cell": median(per_call[name]) / cells
        for name, (cells, _call) in kernels.items()
    }
    out["kernels.flops_per_cell"] = float(navier_stokes_ops().per_cell_step)
    out["kernels.bytes_per_cell"] = _bytes_per_cell(sc)
    return out


# -- numerics.solver -------------------------------------------------------------------


def solver_metrics(seed: int, spans) -> dict:
    from repro.physics.state import FlowState

    sc = jets.jet_request(seed, 1).resolve_scenario()
    config = dataclasses.replace(sc.solver.config, backend="compiled")
    solver = type(sc.solver)(
        FlowState(sc.grid, sc.state.q.copy(), config.gamma), config
    )
    times = []
    for _ in range(SOLVER_STEPS):
        with spans.span("solver.step") as rec:
            solver.step()
        times.append((rec["end"] - rec["start"]) * 1e-6)
    cut = sorted(times)[int(0.99 * len(times))]
    beyond = sum(1 for t in times if t > cut)
    return {
        "solver.step_ms": median(times),
        "solver.step_ms_p99": cut if beyond >= 10 else None,
    }


# -- parallel ----------------------------------------------------------------------------


def parallel_metrics(seed: int, spans) -> dict:
    """Two-rank runs at two step counts: exact per-step message counts
    from the runs' ``CommStats`` (the difference cancels the one-off
    scatter and gather), the rank compute/communication split from the
    program's own ``PerfReport``, and the runner's fixed cost: the run's
    wall time less the slowest rank's time inside its steps (fork,
    scatter, gather).  A wall-time-against-steps intercept came out
    negative on a host with 30% CPU steal, so it is not used."""
    from repro.api import run_request
    from repro.request import ObservabilityConfig

    runs = {SHORT_STEPS: [], LONG_STEPS: []}
    for _ in range(PARALLEL_REPS):
        for steps in (SHORT_STEPS, LONG_STEPS):
            req = jets.jet_request(seed, 2, steps=steps)
            req = req.replace(observability=ObservabilityConfig(metrics=True))
            t0 = time.perf_counter()
            with spans.span("api.run_request", nprocs=2, steps=steps):
                res = run_request(req)
            runs[steps].append((time.perf_counter() - t0, res))
    dsteps = LONG_STEPS - SHORT_STEPS
    short, long_ = runs[SHORT_STEPS][0][1], runs[LONG_STEPS][0][1]
    fixed = [
        wall - max(res.timings.per_rank_wall) for steps in runs for wall, res in runs[steps]
    ]
    comp, comm, imbalance = [], [], []
    for _, res in runs[LONG_STEPS]:
        rows = res.perf.per_rank
        comp.append(np.mean([r["comp_seconds"] for r in rows]) / LONG_STEPS)
        comm.append(np.mean([r["comm_seconds"] for r in rows]) / LONG_STEPS)
        walls = res.timings.per_rank_wall
        imbalance.append(max(walls) / (sum(walls) / len(walls)))
    return {
        "halo.msgs_per_step": (long_.total_stats.sends - short.total_stats.sends) / dsteps,
        "halo.bytes_per_step": (
            long_.total_stats.bytes_sent - short.total_stats.bytes_sent
        ) / dsteps,
        "rank.compute_ms_per_step": 1e3 * median(comp),
        "rank.comm_ms_per_step": 1e3 * median(comm),
        "rank.wall_imbalance": median(imbalance),
        "runner.fixed_ms": 1e3 * median(fixed),
    }


# -- msglib --------------------------------------------------------------------------------


def _pingpong(comm, nbytes: int, iters: int, batches: int) -> list[float]:
    """Round-trip batches between ranks 0 and 1 (run on every rank)."""
    buf = np.zeros(max(nbytes // 8, 1))
    peer = 1 - comm.rank
    times = []
    for _ in range(batches + 1):  # the first batch warms the channel
        t0 = time.perf_counter()
        for _ in range(iters):
            if comm.rank == 0:
                comm.send(peer, "pp", buf)
                comm.recv(peer, "pp")
            else:
                comm.recv(peer, "pp")
                comm.send(peer, "pp", buf)
        times.append(time.perf_counter() - t0)
    return times[1:]


def _one_way_s(cluster_cls, spans, nbytes: int, iters: int = PING_ITERS) -> float:
    with spans.span(f"msglib.{cluster_cls.__name__}.pingpong", nbytes=nbytes):
        with cluster_cls(2, timeout=60.0) as cluster:
            times = cluster.run(_pingpong, nbytes, iters, PING_BATCHES)[0]
    return median(times) / iters / 2


def halo_sizes() -> dict:
    """The message sizes ``jet-p2`` sends each step (Version 5, axial):
    uvT lines (3 doubles per radial point) and grouped flux ghost pairs
    (2 planes x 4 variables per radial point)."""
    return {"uvT": 3 * jets.NR * 8, "flux": 2 * 4 * jets.NR * 8}


def msglib_metrics(spans) -> dict:
    from repro.msglib.process import DEFAULT_SLOT_BYTES, ProcessCluster
    from repro.msglib.virtual import VirtualCluster

    class _Virtual(VirtualCluster):  # context-manager shape of ProcessCluster
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    out = {"msglib.process.latency_us": 1e6 * _one_way_s(ProcessCluster, spans, 8)}
    for role, nbytes in halo_sizes().items():
        out[f"msglib.process.halo_{role}_us"] = 1e6 * _one_way_s(
            ProcessCluster, spans, nbytes
        )
    in_slot = DEFAULT_SLOT_BYTES // 2
    oversized = 16 * DEFAULT_SLOT_BYTES
    out["msglib.process.bandwidth_mb_s"] = in_slot / _one_way_s(
        ProcessCluster, spans, in_slot, iters=PING_ITERS // 4
    ) / 1e6
    out["msglib.process.bandwidth_oversized_mb_s"] = oversized / _one_way_s(
        ProcessCluster, spans, oversized, iters=PING_ITERS // 10
    ) / 1e6
    out["msglib.virtual.latency_us"] = 1e6 * _one_way_s(_Virtual, spans, 8)
    return out


# -- service.store, request, obs ------------------------------------------------------


def store_metrics(store_root: str, scratch_dir: str, fingerprints: list, spans) -> dict:
    """The run's store after its mix: index parse, payload read, and a
    payload write + index append into a scratch store."""
    from repro.service import ResultStore

    store = ResultStore(store_root)
    refresh, load, write = [], [], []
    for _ in range(10):
        with spans.span("store.refresh") as rec:
            store.refresh()
        refresh.append(rec)
    sample = fingerprints[:: max(len(fingerprints) // 20, 1)][:20]
    payload = None
    for fp in sample:
        with spans.span("store.load_result") as rec:
            payload = store.load_result(fp)
        load.append(rec)
    entry = store.get(sample[0])
    scratch = ResultStore(scratch_dir)
    for i in range(20):
        with spans.span("store.write") as rec:
            rel = scratch.write_payload(f"w{i:04d}", payload)
            scratch.commit(f"w{i:04d}", kind="run", request=entry.request,
                           report=entry.report, payload=rel)
        write.append(rec)

    def ms(recs):
        return 1e-6 * median([r["end"] - r["start"] for r in recs])

    return {
        "store.refresh_ms": ms(refresh),
        "store.index_entries": float(len(store)),
        "store.index_bytes": float(os.path.getsize(store.index_path)),
        "store.load_ms": ms(load),
        "store.write_ms": ms(write),
    }


def fingerprint_metrics(requests: list, spans) -> dict:
    batch = requests[:100]
    times = []
    for _ in range(10):
        with spans.span("request.fingerprint", calls=len(batch)) as rec:
            for req in batch:
                req.fingerprint()
        times.append((rec["end"] - rec["start"]) / len(batch))
    return {"request.fingerprint_us": median(times) / 1e3}


def telemetry_metrics(requests: list, ledger_path: str, spans, pairs: int = 15) -> dict:
    """Extra run time of what the service turns on for every job: metrics,
    the step stream, the flight recorder and the ledger append."""
    from repro.api import run_request
    from repro.request import ObservabilityConfig

    forced = ObservabilityConfig(metrics=True, stream=True, flight=True,
                                 ledger=ledger_path)
    plain, full = [], []
    for i in range(pairs):
        req = requests[i % len(requests)]
        for obs, out in ((ObservabilityConfig(), plain), (forced, full)):
            with spans.span("api.run_request", telemetry=obs is forced) as rec:
                run_request(req.replace(observability=obs))
            out.append(rec["end"] - rec["start"])
    return {"obs.forced_telemetry_pct": 100.0 * (median(full) / median(plain) - 1.0)}

