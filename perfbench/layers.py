"""Per-layer accounting: which ``src/repro`` package did the work, and how long.

Three sources, all read from outside the program:

* **counts** — the design metric registry (``build.metrics()``) of every
  ``BeethovenBuild`` made during a repeat, as deltas over the timed phase.
  They are deterministic and must repeat exactly;
* **component self time** — the simulator's own profiler
  (``Observability(profile=True)``, read through
  :func:`repro.obs.profiler.profile_summary`), rolled up by the package the
  component's class lives in, over the timed phase;
* **call time** — wrappers this file installs around public entry points of
  the runtime, serve, core, obs and snapshot layers, for the whole repeat.
  Each records self time: its duration minus the time of wrapped calls
  nested inside it.

Wrapped calls can run inside profiled component ticks (a response callback
pumping the serve layer), so call times and self times overlap; sum neither
across the two sources.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Tuple

#: ``repro.<package>`` of a component's class -> layer name.
LAYER_OF_PACKAGE = {
    "dram": "dram",
    "noc": "noc",
    "axi": "noc",
    "memory": "memory",
    "command": "command",
    "runtime": "runtime",
    "kernels": "kernels",
    "baselines": "kernels",
}

#: Profiled layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("dram", "noc", "memory", "command", "runtime", "kernels")
#: Of those, the ones also reported as ``<layer>.ns_per_tick``.
NS_PER_TICK_LAYERS = ("dram", "noc", "command")

COMMIT_BUCKET = "(kernel)/commit"

#: Counts that do not repeat within one process, left out of the identity
#: checks and reported from the first untraced repeat.  Snapshot files hold
#: in-flight AXI transactions, whose ids come from a process-wide counter
#: (``repro.axi.types._txn_counter``), so their pickled size grows with
#: everything the process simulated before.
HISTORY_DEPENDENT_COUNTS = ("snapshot.bytes",)

#: Count metric -> regex over registry names, summed (timed-phase delta).
COUNTERS = {
    "sim.ticks_executed": r"/ticks_executed$",
    "sim.ticks_elided": r"/ticks_elided$",
    "sim.cycles_skipped": r"^sim/cycles_skipped$",
    "chan.pushes": r"^chan/.*/pushed$",
    "dram.ticks": r"^dram/[^/]+/ticks_executed$",
    "dram.row_hits": r"^dram/[^/]+/row_hits$",
    "dram.row_misses": r"^dram/[^/]+/row_misses$",
    "dram.activations": r"^dram/[^/]+/activations$",
    "dram.queue_wait_cycles": r"^dram/[^/]+/queue_wait_cycles$",
    "noc.forwarded": r"^noc/.*/forwarded_[a-z]+$",
    "noc.stall_cycles": r"^noc/.*/stall_[a-z]+_cycles$",
    "memory.bytes_delivered": r"^reader/.*/bytes_delivered$",
    "memory.stall_cycles": r"^(reader|writer)/.*/stall_[a-z]+_cycles$",
    "runtime.commands": r"^runtime/server/commands_sent$",
    "runtime.lock_wait_cycles": r"^runtime/server/lock_wait_cycles$",
    "serve.requests": r"^serve/tenant/[^/]+/submitted$",
    "serve.rejected": r"^serve/tenant/[^/]+/rejected_[a-z_]+$",
    "obs.spans": r"^trace/spans$",
}
_COUNTER_RES = [(name, re.compile(rx)) for name, rx in COUNTERS.items()]

#: Call-time metric -> wrapped entry points whose self time it sums.
CALL_TIMES = {
    "runtime.call_s": ("runtime.call",),
    "runtime.dma_s": ("runtime.dma",),
    "serve.submit_s": ("serve.submit",),
    "serve.pump_s": ("serve.pump",),
    "core.build_s": ("core.build",),
    "obs.span_s": ("obs.span",),
    "snapshot.capture_s": ("snapshot.capture", "snapshot.save"),
    "snapshot.restore_s": ("snapshot.load", "snapshot.restore"),
}


def component_layer(component: Any) -> str:
    package = type(component).__module__.split(".")[1]
    return LAYER_OF_PACKAGE.get(package, package)


class CallTimer:
    """Self time of wrapped functions, by label."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self._children: List[float] = []

    def wrap(self, label: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        stack = self._children

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                nested = stack.pop()
                self.self_s[label] = self.self_s.get(label, 0.0) + elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return timed


class Probe:
    """Everything one repeat records beyond the workload's own outputs.

    ``traced=False`` only captures builds and snapshot sizes (the counts);
    ``traced=True`` also turns on the simulator profiler in every build the
    caller did not configure itself and times the layer entry points.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.builds: List[Any] = []
        self.build_calls = 0
        self.snapshot_bytes = 0
        self.timer = CallTimer()
        self._baseline: Dict[int, Tuple[Dict[str, Any], Dict[str, List[float]]]] = {}

    # ------------------------------------------------------------ patching
    @contextmanager
    def installed(self):
        from repro.core.build import BeethovenBuild
        from repro.obs.config import Observability
        from repro.obs.spans import CommandSpanTracker
        from repro.runtime.handle import FpgaHandle
        from repro.serve.service import AcceleratorService
        from repro.snapshot import scenario

        originals: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))

        def build_init(original):
            if self.traced:
                original = self.timer.wrap("core.build", original)

            def init(build, *args, **kwargs):
                self.build_calls += 1
                if self.traced and len(args) < 6 and kwargs.get("observability") is None:
                    kwargs["observability"] = Observability(profile=True)
                original(build, *args, **kwargs)
                self.builds.append(build)

            return init

        def save(original):
            def saved(snap, path):
                original(snap, path)
                self.snapshot_bytes += os.path.getsize(path)

            return self.timer.wrap("snapshot.save", saved) if self.traced else saved

        patch(BeethovenBuild, "__init__", build_init)
        patch(scenario, "save", save)
        if self.traced:
            wrap = self.timer.wrap
            patch(FpgaHandle, "call", lambda f: wrap("runtime.call", f))
            patch(FpgaHandle, "copy_to_fpga", lambda f: wrap("runtime.dma", f))
            patch(FpgaHandle, "copy_from_fpga", lambda f: wrap("runtime.dma", f))
            patch(AcceleratorService, "submit", lambda f: wrap("serve.submit", f))
            patch(AcceleratorService, "pump", lambda f: wrap("serve.pump", f))
            for attr, value in list(vars(CommandSpanTracker).items()):
                if not attr.startswith("_") and callable(value):
                    patch(CommandSpanTracker, attr, lambda f: wrap("obs.span", f))
            patch(scenario, "capture", lambda f: wrap("snapshot.capture", f))
            patch(scenario, "load", lambda f: wrap("snapshot.load", f))
            patch(scenario, "restore", lambda f: wrap("snapshot.restore", f))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ windows
    def start_timed_phase(self) -> None:
        """Remember counters and profile of builds made during set-up."""
        for build in self.builds:
            self._baseline[id(build)] = (
                _numeric(build.metrics()),
                {k: list(v) for k, v in build.design.sim.tick_profile.items()},
            )

    def counts(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Deterministic per-layer counts of the timed phase."""
        totals = {name: 0 for name in COUNTERS}
        metrics_bound = components = 0
        for build in self.builds:
            dump = build.metrics()
            now = _numeric(dump)
            base = self._baseline.get(id(build), ({}, {}))[0]
            metrics_bound += len(dump)
            components += len(build.design.sim._components)
            for name, value in now.items():
                for counter, rx in _COUNTER_RES:
                    if rx.search(name):
                        totals[counter] += value - base.get(name, 0)
        ticks = totals.pop("sim.ticks_executed")
        elided = totals.pop("sim.ticks_elided")
        hits = totals.pop("dram.row_hits")
        misses = totals.pop("dram.row_misses")
        out = dict(totals)
        out["sim.ticks_executed"] = ticks
        out["sim.elided_frac"] = elided / (ticks + elided) if ticks + elided else 0.0
        out["dram.row_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out["core.builds"] = self.build_calls
        out["core.components"] = components
        out["obs.metrics_bound"] = metrics_bound
        out["snapshot.bytes"] = self.snapshot_bytes
        out["faults.injected"] = 0
        out["chaos.runs"] = 0
        out.update(extra)
        return out

    def host_times(self, timed_wall_s: float) -> Dict[str, float]:
        """Per-layer host seconds of a traced repeat."""
        from repro.obs.profiler import profile_summary

        self_ns = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        calls = {layer: 0 for layer in SELF_TIME_LAYERS}
        commit_ns = profiled_ns = 0.0
        for build in self.builds:
            sim = build.design.sim
            base = self._baseline.get(id(build), ({}, {}))[1]
            # The profile is keyed by component name; map names to layers.
            layer_of = {c.name: component_layer(c) for c in sim._components}
            for row in profile_summary(sim):
                ns0, calls0 = base.get(row["name"], (0.0, 0))
                ns, n = row["total_ns"] - ns0, row["calls"] - calls0
                profiled_ns += ns
                if row["name"] == COMMIT_BUCKET:
                    commit_ns += ns
                layer = layer_of.get(row["name"])
                if layer in self_ns:
                    self_ns[layer] += ns
                    calls[layer] += n
        out = {
            "sim.dispatch_s": timed_wall_s - profiled_ns / 1e9,
            "sim.commit_s": commit_ns / 1e9,
        }
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for layer in NS_PER_TICK_LAYERS:
            out[f"{layer}.ns_per_tick"] = self_ns[layer] / calls[layer] if calls[layer] else 0.0
        for metric, labels in CALL_TIMES.items():
            out[metric] = sum(self.timer.self_s.get(label, 0.0) for label in labels)
        return out


def _numeric(metrics: Dict[str, Any]) -> Dict[str, float]:
    return {
        k: v for k, v in metrics.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
