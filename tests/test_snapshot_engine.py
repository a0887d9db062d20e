"""The pickle-based snapshot engine: determinism, coverage and loud failures.

* Capturing the same seeded run twice in one process yields byte-identical
  payloads (AXI transaction tags come from the design's own counter, which
  the snapshot carries, so a restored run continues the tag sequence).
* Kill-and-resume beyond memcpy: a MachSuite Fig. 6 kernel whose design
  declares scratchpads is captured mid-run, restored into a rebuilt and
  replayed design, and run to completion under both schedules.
* Structure parked inside state is a loud error naming the component,
  unless the field is listed in ``_snapshot_exclude``; so is restoring into
  a registry whose metrics are missing or have different histogram buckets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build import BeethovenBuild
from repro.kernels.machsuite import stencil2d_config
from repro.kernels.machsuite.reference import stencil2d
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle
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

    def snapshot_state(self):
        return None

    def restore_state(self, state):
        pass


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
