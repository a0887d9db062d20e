"""The pickle-based snapshot engine: determinism, coverage and loud failures.

* Capturing the same seeded run twice in one process yields byte-identical
  payloads (AXI transaction tags come from the design's own counter, which
  the snapshot carries, so a restored run continues the tag sequence).
* Kill-and-resume beyond memcpy: a MachSuite Fig. 6 kernel whose design
  declares scratchpads is captured mid-run, restored into a rebuilt and
  replayed design, and run to completion under both schedules.
* The runtime server's host commands are plain records: a server holding
  work in every container (client queues, mid-dispatch, waiter, retry heap)
  resumes bit-identically, and a replay whose ``call()``s do not line up
  with the captured run's fails restore naming the future.
* Structure parked inside state is a loud error naming the component,
  unless the field is listed in ``_snapshot_exclude``; so is restoring into
  a registry whose metrics are missing or have different histogram buckets.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.build import BeethovenBuild
from repro.faults import FaultPlan
from repro.faults.chaos import build_memcpy
from repro.kernels.machsuite import stencil2d_config
from repro.kernels.machsuite.reference import stencil2d
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle, WatchdogConfig
from repro.sim import SCHEDULING_MODES, Component, Simulator
from repro.snapshot import SnapshotError, capture, restore
from repro.snapshot.scenario import CHUNK, _build_memcpy


def _shutdown(build) -> None:
    getattr(build.design.sim, "shutdown", lambda: None)()


# ------------------------------------------------------------- determinism
def test_identical_runs_capture_identical_bytes():
    """Two identical runs in one process capture the same bytes, and a
    restored run resumes the design's tag sequence where it left off."""
    snaps = []
    for _ in range(2):
        build, handle, _futs, _dsts, _pattern = _build_memcpy(3, "selective")
        build.design.sim.run(2 * CHUNK)
        snaps.append(capture(handle))
        tag = build.design.sim.txn_tags.next
        _shutdown(build)
    assert tag > 0, "the run must have issued AXI bursts"
    assert snaps[0].payload == snaps[1].payload

    build, handle, _futs, _dsts, _pattern = _build_memcpy(3, "selective")
    restore(handle, snaps[0])
    assert build.design.sim.txn_tags.next == tag
    _shutdown(build)


# --------------------------------------------- kill-and-resume beyond memcpy
_N = 16


def _stencil_run(scheduling):
    """Build the Fig. 6 Stencil2D design and replay its host-side setup."""
    rng = np.random.default_rng(7)
    grid = rng.integers(-100, 100, (_N, _N)).astype(np.int32)
    coeffs = rng.integers(-4, 5, (3, 3)).astype(np.int32)
    build = BeethovenBuild(stencil2d_config(), SimulationPlatform(), scheduling=scheduling)
    handle = FpgaHandle(build.design)
    ptrs = []
    for data in (grid.tobytes(), coeffs.tobytes()):
        ptr = handle.malloc(max(len(data), 64))
        ptr.write(data)
        handle.copy_to_fpga(ptr)
        ptrs.append(ptr)
    out = handle.malloc(_N * _N * 4)
    fut = handle.call(
        "Stencil2d", "stencil2d", 0,
        grid_addr=ptrs[0].fpga_addr, coeff_addr=ptrs[1].fpga_addr,
        out_addr=out.fpga_addr, n=_N,
    )
    return build, handle, fut, out, stencil2d(grid, coeffs)


def _finish(build, handle, fut, out):
    fut.get()
    handle.copy_from_fpga(out)
    result = (
        build.design.sim.cycle,
        build.design.metrics(stable_only=True),
        np.frombuffer(out.read(), dtype=np.int32).reshape(_N, _N),
    )
    _shutdown(build)
    return result


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_fig6_stencil_kill_and_resume(mode):
    build, handle, fut, out, expected = _stencil_run(mode)
    assert build.design.systems[0].cores[0].ctx.scratchpads, "design must declare scratchpads"
    ref_cycles, ref_metrics, ref_out = _finish(build, handle, fut, out)
    assert (ref_out == expected).all()

    build, handle, fut, out, _ = _stencil_run(mode)
    build.design.sim.run((ref_cycles - build.design.sim.cycle) // 2)
    assert not fut.done, "the capture must land mid-run"
    snap = capture(handle)
    _shutdown(build)  # the killed run

    build, handle, fut, out, _ = _stencil_run(mode)
    restore(handle, snap)
    cycles, metrics, data = _finish(build, handle, fut, out)
    assert cycles == ref_cycles
    assert metrics == ref_metrics
    assert (data == ref_out).all()


# ------------------------------------------------- host command records
_BUSY_SIZE = 512


def _busy_server(scheduling, drive=True, n_calls=5):
    """Issue ``n_calls`` memcpy commands so that, when ``drive`` runs the
    simulation between them, the server holds work in every container:

    1. core 0: its response is the one MMIO drop, so after the watchdog
       deadline the command sits in the retry heap;
    2. core 1: dispatched, in the waiter FIFO;
    3-5. two clients' commands: one mid-dispatch, two queued behind it.

    Without ``drive`` this is the host replay a restore needs.
    """
    plan = FaultPlan(seed=1, mmio_resp_drop_rate=1.0, max_faults_per_site=1)
    wd = WatchdogConfig(timeout_cycles=2_000, backoff_base_cycles=2_000)
    build, handle, src, dsts, pattern = build_memcpy(
        scheduling, _BUSY_SIZE, 2, faults=plan, watchdog=wd
    )
    server = handle.server
    a, b = handle.new_client(), handle.new_client()
    steps = [
        (handle, 0, lambda: server._retry_heap),
        (handle, 1, lambda: any(server._waiters.values())),
        (a, 0, None),
        (a, 1, None),
        (b, 0, lambda: server._current is not None),
        (b, 1, None),
    ]
    futs = []
    for issuer, core, until in steps[:n_calls]:
        dst = handle.malloc(_BUSY_SIZE)
        dsts.append(dst)
        futs.append(
            issuer.call(
                "Memcpy", "memcpy", core,
                src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=_BUSY_SIZE,
            )
        )
        if drive and until is not None:
            handle.run_until(until, max_cycles=100_000)
    return build, handle, futs, dsts[2:], pattern


def _finish_busy(build, handle, futs, dsts, pattern):
    for fut in futs:
        fut.get(max_cycles=200_000)
    data = []
    for dst in dsts:
        handle.copy_from_fpga(dst)
        data.append(dst.read())
    assert data == [pattern] * len(dsts)
    result = (build.design.sim.cycle, build.design.metrics(stable_only=True), data)
    _shutdown(build)
    return result


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_server_with_work_in_every_container_resumes_exactly(mode):
    reference = _finish_busy(*_busy_server(mode))
    assert reference[1]["runtime/server/watchdog/retries"] == 1

    build, handle, futs, dsts, pattern = _busy_server(mode)
    server = handle.server
    assert server._current is not None, "a command must be mid-dispatch"
    assert sum(1 for q in server._queues.values() if q) == 2, "two clients queued"
    assert any(server._waiters.values()) and server._retry_heap
    snap = capture(handle)
    _shutdown(build)  # the killed run

    build, handle, futs, dsts, pattern = _busy_server(mode, drive=False)
    restore(handle, snap)
    assert _finish_busy(build, handle, futs, dsts, pattern) == reference


@pytest.mark.parametrize("n_calls, future", [(4, "('fut', 5)"), (6, "('fut', 6)")])
def test_replay_with_other_calls_fails_restore_naming_future(n_calls, future):
    """A replay that issued fewer (or more) calls than the captured run
    cannot resume it: its futures would never settle."""
    build, handle, *_ = _busy_server("selective")
    snap = capture(handle)
    _shutdown(build)

    build, handle, *_ = _busy_server("selective", drive=False, n_calls=n_calls)
    with pytest.raises(SnapshotError, match=re.escape(future)):
        restore(handle, snap)
    _shutdown(build)


# ------------------------------------------------------- loud-failure rule
class _HookHolder(Component):
    def __init__(self, name):
        super().__init__(name)
        self.counter = 0
        self.hooks = [lambda: None]

    def tick(self, cycle):
        self.counter += 1


class _ExcludedHookHolder(_HookHolder):
    _snapshot_exclude = ("hooks",)


class _Handle:
    """The minimal host surface :func:`capture` needs."""

    def __init__(self, sim):
        self.design = type("Design", (), {"sim": sim})()


def test_callable_in_container_fails_loudly_naming_component():
    sim = Simulator()
    sim.add(_HookHolder("holder"))
    sim.run(3)
    with pytest.raises(SnapshotError, match="holder"):
        capture(_Handle(sim))


def test_excluded_callable_field_captures_cleanly():
    sim = Simulator()
    sim.add(_ExcludedHookHolder("holder"))
    sim.run(3)
    snap = capture(_Handle(sim))

    fresh = Simulator()
    holder = fresh.add(_ExcludedHookHolder("holder"))
    live_hooks = holder.hooks
    restore(_Handle(fresh), snap)
    assert (fresh.cycle, holder.counter) == (3, 3)
    assert holder.hooks is live_hooks  # excluded: the rebuilt field stays


@pytest.mark.parametrize("rebuilt_buckets", [(1, 100), (1, 10, 100), None])
def test_metric_layout_mismatch_fails_loudly(rebuilt_buckets):
    sim = Simulator()
    sim.registry.histogram("lat", buckets=(1, 10)).observe(5)
    snap = capture(_Handle(sim))

    fresh = Simulator()
    if rebuilt_buckets is not None:
        fresh.registry.histogram("lat", buckets=rebuilt_buckets)
    with pytest.raises(SnapshotError, match="'lat'"):
        restore(_Handle(fresh), snap)
