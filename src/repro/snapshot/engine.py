"""Exact capture/restore of live simulation state (the ``repro.snapshot`` core).

A snapshot is *state*, never *structure*: the object graph of a design
(components, channels, registry bindings, tick programs, fault hooks) is
rebuilt deterministically by re-elaborating the same config, and the
snapshot then overwrites every mutable field so that ``restore(snap);
run(N)`` is bit-identical — cycles, stable metric dumps, fault fingerprints
— to the uninterrupted run under both scheduling modes.

The state is one stdlib :mod:`pickle` stream written against a *reference
table*: every object the rebuild recreates — the simulator, its registry and
tracer, the span tracker, the fault state and plan, each registry-owned
Counter/Gauge/Histogram (keyed by metric name), every component and channel
(keyed by index) and what components name through ``snapshot_refs()`` (the
runtime server's host handle and its futures, keyed by call order) — is
written as its key by ``persistent_id`` and resolved against the rebuilt
skeleton by ``persistent_load``.  Everything else (in-flight AXI beats, DRAM
column requests, queued host command records, RNG positions, errors parked
in futures) is pickled by value, so pickle's memo keeps aliases intact — a
DRAM bank reached both through ``controller.banks[i]`` and a scheduler entry
comes back as one object — and restore simply assigns the unpickled fields
onto the live objects.

Two rules follow from restoring by assignment:

* callables are structure.  A component's top-level callable attributes
  (an instance ``tick_program`` patch) are left out of its state; a
  method bound to a table object (a scratchpad memory's
  ``on_activity = owner.request_wake``) pickles as a reference; any other
  callable *below* the top level raises :class:`SnapshotError`, so a model
  that parks structure in a container must name that field in
  ``Component._snapshot_exclude``;
* code outside the captured state must reach model containers through
  their owner (registry bindings read ``self.banks[i]``, never a bank
  captured by identity): restore replaces containers, it does not refill
  them.  Tick programs are rebuilt on the next ``run()``.
"""

from __future__ import annotations

import functools
import io
import pickle
import types
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.registry import Counter, Histogram

#: Bumped on any change to the capture format or captured field set.  A
#: snapshot's version participates in farm checkpoint fingerprints, so a
#: version bump silently invalidates stale checkpoint files instead of
#: restoring garbage into a newer model.
SNAPSHOT_VERSION = 4


class SnapshotError(RuntimeError):
    """Snapshot capture/restore failed (skeleton mismatch, bad payload...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible ``SNAPSHOT_VERSION``."""


#: Callable types: structure recreated by the rebuild, never state.
CALLABLE_TYPES = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    functools.partial,
)

#: Component wiring installed by ``Simulator.add()`` and the scheduler (the
#: selective program's slot/index bookkeeping and wake hook, the shared AXI
#: tag counter whose position the simulator state carries); never captured,
#: so restore leaves the rebuilt wiring in place.
SCHED_ATTRS = ("_sched_index", "_wake_hook", "_cslot", "txn_tags")


def fields_of(obj: Any, skip: tuple = ()) -> Dict[str, Any]:
    """``obj``'s instance attributes minus ``skip`` and top-level callables."""
    return {
        name: value
        for name, value in vars(obj).items()
        if name not in skip and not isinstance(value, CALLABLE_TYPES)
    }


def _state_of(obj: Any) -> Dict[str, Any]:
    """What a snapshot carries for a component or a host object."""
    return fields_of(obj, SCHED_ATTRS + obj._snapshot_exclude)


def _component_refs(sim: Any) -> Dict[Any, Any]:
    """Key -> object for what the components name (the host handle and
    its futures, through the runtime server)."""
    refs: Dict[Any, Any] = {}
    for comp in sim._components:
        refs.update(comp.snapshot_refs())
    return refs


def _assign(obj: Any, fields: Optional[Dict[str, Any]]) -> None:
    if obj is not None and fields is not None:
        vars(obj).update(fields)


# ================================================================ pickling
class _Pickler(pickle.Pickler):
    def __init__(self, file: Any, table: Dict[Any, Any]) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._keys = {id(obj): key for key, obj in table.items()}

    def persistent_id(self, obj: Any) -> Any:
        key = self._keys.get(id(obj))
        if key is None and isinstance(obj, CALLABLE_TYPES):
            owner = self._keys.get(id(getattr(obj, "__self__", None)))
            if owner is None or not isinstance(obj, types.MethodType):
                raise SnapshotError(
                    f"cannot capture callable {obj!r}: list the field holding "
                    "it in the owner's _snapshot_exclude"
                )
            return ("method", owner, obj.__name__)
        return key


class _Unpickler(pickle.Unpickler):
    def __init__(self, file: Any, table: Dict[Any, Any]) -> None:
        super().__init__(file)
        self._table = table

    def persistent_load(self, key: Any) -> Any:
        try:
            if key[0] == "method":
                return getattr(self._table[key[1]], key[2])
            return self._table[key]
        except KeyError:
            raise SnapshotError(
                f"snapshot references unknown {key!r} (skeleton mismatch — "
                "was the design rebuilt with the same config and the same "
                "host calls replayed?)"
            ) from None


def _ref_table(sim: Any, **roots: Any) -> Dict[Any, Any]:
    """Key -> live object for everything the rebuild recreates."""
    table = {name: obj for name, obj in roots.items() if obj is not None}
    table["sim"] = sim
    if sim.tracer is not None:
        table["tracer"] = sim.tracer
    table["registry"] = sim.registry
    for name, metric in sim.registry._metrics.items():
        if isinstance(metric, (Counter, Histogram)):
            table[("metric", name)] = metric
    for i, comp in enumerate(sim._components):
        table[("comp", i)] = comp
    for i, chan in enumerate(sim._channels):
        table[("chan", i)] = chan
    table.update(_component_refs(sim))
    return table


def _pickle(obj: Any, table: Dict[Any, Any]) -> bytes:
    buf = io.BytesIO()
    try:
        _Pickler(buf, table).dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(f"cannot capture state: {exc}") from exc
    return buf.getvalue()


def _dumps(state: Dict[str, Any], table: Dict[Any, Any], sim: Any) -> bytes:
    try:
        return _pickle(state, table)
    except SnapshotError:
        # Name the offending component: re-pickle component states one by one.
        for comp, comp_state in zip(sim._components, state["sim"]["components"]):
            try:
                _pickle(comp_state, table)
            except SnapshotError as exc:
                raise SnapshotError(f"component {comp.name!r}: {exc}") from None
        raise


def _loads(payload: bytes, table: Dict[Any, Any]) -> Any:
    try:
        return _Unpickler(io.BytesIO(payload), table).load()
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise SnapshotError(f"unreadable snapshot payload: {exc}") from exc


# ====================================================================== sim
def _sim_state(sim: Any) -> Dict[str, Any]:
    """One :class:`~repro.sim.Simulator`'s complete mutable state."""
    if getattr(sim._program, "_ready", None) is not None:
        raise SnapshotError("cannot snapshot mid-cycle; capture between run()/step() calls")
    if sim._selective:
        sim._sync_channel_stats()
    # Wake state is not captured: every run() entry wakes every component
    # (a naive tick-everything cycle) and adopts channels with staged
    # traffic, so the restored run rebuilds it exactly.
    return {
        "cycle": sim.cycle,
        "cycles_skipped": sim.cycles_skipped,
        "skip_events": sim.skip_events,
        "txn_tag": sim.txn_tags.next,
        "skeleton": ([c.name for c in sim._components], [c.name for c in sim._channels]),
        "channels": [
            (
                ch._items, ch._staged, ch._pop_count, ch.total_pushed,
                ch.total_popped, ch.occupancy_accum, ch.cycles_observed,
            )
            for ch in sim._channels
        ],
        "components": [_state_of(comp) for comp in sim._components],
        # Each object is written as its table key, so a restore whose
        # replay lacks one fails to resolve it.
        "refs": [(obj, _state_of(obj)) for obj in _component_refs(sim).values()],
        # Bound views are recomputed live; owned metrics carry raw values
        # (the metric objects themselves are table references).
        "metrics": {
            name: metric.value if isinstance(metric, Counter)
            else (metric.buckets, metric.counts, metric.count, metric.total)
            for name, metric in sim.registry._metrics.items()
            if isinstance(metric, (Counter, Histogram))
        },
    }


def _apply_sim_state(sim: Any, state: Dict[str, Any]) -> None:
    comps, chans = state["skeleton"]
    if comps != [c.name for c in sim._components] or chans != [c.name for c in sim._channels]:
        raise SnapshotError(
            f"skeleton mismatch: snapshot has {len(comps)} components and "
            f"{len(chans)} channels, design has {len(sim._components)} and "
            f"{len(sim._channels)} (or names differ) — rebuild with the "
            "identical config before restoring"
        )
    restored = {id(obj) for obj, _ in state["refs"]}
    extra = [key for key, obj in _component_refs(sim).items() if id(obj) not in restored]
    if extra:
        raise SnapshotError(
            f"the snapshot lacks {extra}: the host issued calls the "
            "captured run had not"
        )
    # Discard the tick program *before* touching component state:
    # invalidation flushes per-slot tick counts into the components, which
    # must not land on top of restored counters.  The next run() rebuilds
    # it, so tick-program closures capture the restored containers.
    sim.invalidate_program()
    for comp, comp_state in zip(sim._components, state["components"]):
        vars(comp).update(comp_state)
    for obj, obj_state in state["refs"]:
        vars(obj).update(obj_state)
    for ch, (items, staged, pops, pushed, popped, occupancy, observed) in zip(
        sim._channels, state["channels"]
    ):
        ch._items[:] = items
        ch._staged[:] = staged
        ch._pop_count = pops
        ch.total_pushed = pushed
        ch.total_popped = popped
        ch.occupancy_accum = occupancy
        ch.cycles_observed = observed
        ch._dirty = False
    sim.cycle = state["cycle"]
    sim.cycles_skipped = state["cycles_skipped"]
    sim.skip_events = state["skip_events"]
    sim.txn_tags.next = state["txn_tag"]
    del sim._dirty_channels[:]
    if sim._selective:
        for ch in sim._channels:
            # Re-anchor lazy occupancy crediting at the restored cycle, the
            # same invariant register_channel() establishes.
            ch._anchor = sim.cycle - ch.cycles_observed
    metrics = sim.registry._metrics
    for name, value in state["metrics"].items():
        metric = metrics.get(name)
        if isinstance(metric, Counter) and not isinstance(value, tuple):
            metric.value = value
        elif isinstance(metric, Histogram) and value[0] == metric.buckets:
            metric.counts[:], metric.count, metric.total = value[1:]
        else:
            raise SnapshotError(
                f"metric {name!r} is missing or changed kind or histogram "
                "buckets between capture and restore"
            )


# ================================================================ snapshots
@dataclass
class Snapshot:
    """A captured run: version + cycle + pickled payload + free-form metadata."""

    version: int
    cycle: int
    payload: bytes
    meta: Dict[str, Any] = field(default_factory=dict)


def _design_table(handle: Any) -> Dict[Any, Any]:
    design = handle.design
    faults = getattr(design, "faults", None)
    return _ref_table(
        design.sim,
        spans=getattr(design, "span_tracker", None),
        faults=faults,
        plan=faults.plan if faults is not None else None,
    )


def capture(handle: Any) -> Snapshot:
    """Snapshot a full single-process run (simulator + host interface).

    ``handle`` is the :class:`~repro.runtime.FpgaHandle` driving the design.
    Distributed designs checkpoint through ``DistConfig(
    checkpoint_every_slices=...)`` instead — their state spans worker
    processes and is collected at slice barriers by the engine itself.
    """
    design = handle.design
    sim = design.sim
    if hasattr(sim, "_children"):
        raise SnapshotError(
            "disk snapshots cover single-process simulators; distributed runs "
            "use DistConfig(checkpoint_every_slices=...) barrier checkpoints"
        )
    spans = getattr(design, "span_tracker", None)
    faults = getattr(design, "faults", None)
    state = {
        "sim": _sim_state(sim),
        "spans": fields_of(spans) if spans is not None else None,
        "faults": fields_of(faults) if faults is not None else None,
        "tracer": fields_of(sim.tracer) if sim.tracer is not None else None,
    }
    payload = _dumps(state, _design_table(handle), sim)
    return Snapshot(SNAPSHOT_VERSION, sim.cycle, payload, {"scheduling": sim.scheduling})


def restore(handle: Any, snap: Snapshot) -> None:
    """Restore a :func:`capture` snapshot into a freshly rebuilt + replayed run.

    The caller must have rebuilt the design with the identical config and
    replayed the host-side setup (allocations, writes, ``call()``
    submissions) so its futures line up with the captured run's; the
    snapshot then overwrites every mutable field, after which ``run(N)``
    continues bit-identically to the uninterrupted execution.
    """
    if snap.version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot version {snap.version} != supported {SNAPSHOT_VERSION}"
        )
    design = handle.design
    sim = design.sim
    state = _loads(snap.payload, _design_table(handle))
    _apply_sim_state(sim, state["sim"])
    _assign(getattr(design, "faults", None), state["faults"])
    _assign(getattr(design, "span_tracker", None), state["spans"])
    _assign(sim.tracer, state["tracer"])


# ============================================================== dist workers
def _partition_table(sim: Any, fault_state: Any) -> Dict[Any, Any]:
    if fault_state is None:
        return _ref_table(sim)
    # A worker partition's simulator has no tracer; its fault state still
    # points at the design's.
    return _ref_table(
        sim, faults=fault_state, plan=fault_state.plan, tracer=fault_state.tracer
    )


def capture_partition_state(sim: Any, fault_state: Any = None) -> bytes:
    """Pickle one partition (worker or root) for a barrier checkpoint.

    The payload is bytes, fully decoupled from the live objects, so worker
    processes ship it over the barrier pipe and the supervisor can hold the
    root's payload without aliasing state that keeps advancing.
    """
    state = {
        "sim": _sim_state(sim),
        "faults": fields_of(fault_state) if fault_state is not None else None,
    }
    return _dumps(state, _partition_table(sim, fault_state), sim)


def restore_partition_state(sim: Any, payload: bytes, fault_state: Any = None) -> None:
    state = _loads(payload, _partition_table(sim, fault_state))
    _apply_sim_state(sim, state["sim"])
    _assign(fault_state, state["faults"])
