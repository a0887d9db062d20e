"""Deterministic cycle-level simulation kernel.

The kernel models synchronous hardware as a set of :class:`Component` objects
exchanging tokens over registered :class:`ChannelQueue` channels.  Every
channel behaves like a FIFO whose occupancy is sampled at the start of the
cycle: pushes performed during a cycle become visible at the next cycle, and
pops performed during a cycle do not free space until the next cycle.  This
makes simulation results independent of the order in which components are
ticked, which is the property that lets us compose large systems without
worrying about evaluation order (the same property latency-insensitive
ready/valid design gives real hardware).

Each component contributes exactly one behaviour, the ``(tick, next_event)``
pair returned by :meth:`Component.tick_program`, and two cycle- and
statistic-identical schedules run it:

* ``"naive"`` — the reference oracle: tick every component and commit every
  channel each cycle.  It never consults ``next_event`` and never jumps.
* ``"selective"`` — the event-driven backend (:mod:`repro.sim.selective`):
  a component is ticked only when one of its wake channels saw a push or pop,
  when its ``next_event`` hint matures, or when it asked through
  :meth:`Component.request_wake`; only dirty channels commit, with lazy
  occupancy crediting; contiguous components with identical wake sets are
  fused into one scheduling slot; and the clock jumps over cycles in which
  nothing is woken.

Cycles, channel statistics and stable metrics are bit-identical between the
two; only the wall clock and volatile tick/skip accounting differ.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Generic, Iterable, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Sentinel a :meth:`Component.next_event` may return meaning "I have no
#: self-scheduled future work; only new channel traffic can wake me".
NEVER = float("inf")

#: Valid ``Simulator(scheduling=...)`` values.
SCHEDULING_MODES = ("naive", "selective")


class SimulationError(RuntimeError):
    """Raised for illegal channel usage or a wedged simulation."""


class DeadlockError(SimulationError):
    """A ``run()`` budget expired with its predicate still pending.

    Subclasses :class:`SimulationError` so existing ``except`` clauses keep
    working, but additionally carries ``dump`` — the structured state
    snapshot from :meth:`Simulator.state_dump` (channel occupancies,
    component debug states, wake-heap contents) taken at the moment the
    budget ran out.  ``repro.sim.trace.render_deadlock_report`` renders it.
    """

    def __init__(self, message: str, dump: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.dump = dump if dump is not None else {}


class PartitionSyncTimeout(DeadlockError):
    """A distributed partition worker missed its slice barrier.

    Raised by :class:`repro.dist.DistSimulator` when a worker process dies,
    aborts with an error, or fails to reach the exchange barrier within the
    configured wall-clock budget.  Subclasses :class:`DeadlockError` so the
    runtime's existing watchdog/deadlock handling (``ResponseHandle.get``,
    chaos classification) sees a typed, catchable stall instead of a hung
    exchange loop.  ``dump`` carries the supervisor partition's
    ``state_dump`` plus whatever the stalled partition could provide
    (its own ``state_dump`` on a clean abort, stderr tail / exit code on a
    crash) under ``dump["partitions"]``; ``partition`` is the id of the
    partition that missed the barrier.
    """

    def __init__(
        self,
        message: str,
        dump: Optional[Dict[str, Any]] = None,
        partition: Optional[int] = None,
    ) -> None:
        super().__init__(message, dump)
        self.partition = partition


class ChannelQueue(Generic[T]):
    """A registered FIFO channel with start-of-cycle visibility semantics.

    ``can_push``/``push`` are the producer interface and ``can_pop``/``peek``/
    ``pop`` the consumer interface.  Capacity admission uses the occupancy at
    the start of the cycle plus anything staged this cycle, so a full queue
    does not accept a push in the same cycle one of its items is popped.
    """

    # Slotted: channels are the hottest objects in the kernel (every guard in
    # every tick probes one), and fixed-offset attribute access measurably
    # beats dict lookup in the tick bodies and the commit drain.
    __slots__ = (
        "capacity",
        "name",
        "_items",
        "_staged",
        "_pop_count",
        "total_pushed",
        "total_popped",
        "occupancy_accum",
        "cycles_observed",
        "_sink",
        "_dirty",
        "_anchor",
        "_csubs",
    )

    def __init__(self, capacity: int = 2, name: str = "chan") -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: List[T] = []
        self._staged: List[T] = []
        self._pop_count = 0
        # Statistics, useful for NoC link utilisation reporting.
        self.total_pushed = 0
        self.total_popped = 0
        self.occupancy_accum = 0
        self.cycles_observed = 0
        # Selective-scheduling hooks, installed by Simulator.register_channel:
        # ``_sink`` is the simulator's dirty list (None under naive
        # scheduling), ``_dirty`` marks membership in it, and ``_anchor`` is
        # the registration offset that lets sparse commits credit elided
        # observations lazily.
        self._sink: Optional[List["ChannelQueue[Any]"]] = None
        self._dirty = False
        self._anchor = 0
        # Subscriber array, installed by SelectiveProgram: the scheduling
        # slots woken when this channel commits activity.
        self._csubs: Tuple[int, ...] = ()

    # -- producer side ----------------------------------------------------
    def can_push(self, n: int = 1) -> bool:
        return len(self._items) + len(self._staged) + n <= self.capacity

    def push(self, item: T) -> None:
        if not self.can_push():
            raise SimulationError(f"push to full channel {self.name!r}")
        self._staged.append(item)
        self.total_pushed += 1
        if not self._dirty and self._sink is not None:
            self._dirty = True
            self._sink.append(self)

    # -- consumer side -----------------------------------------------------
    def can_pop(self) -> bool:
        return self._pop_count < len(self._items)

    def peek(self, offset: int = 0) -> T:
        # The visible window is [_pop_count, len(_items)): items popped this
        # cycle are already spoken for, items staged this cycle are not yet
        # visible.  A negative offset would reach back into staged pops, so
        # peek enforces the same window ``__len__``/``can_pop`` advertise.
        if offset < 0 or offset >= len(self):
            raise SimulationError(f"peek outside visible window of channel {self.name!r}")
        return self._items[self._pop_count + offset]

    def pop(self) -> T:
        if not self.can_pop():
            raise SimulationError(f"pop from empty channel {self.name!r}")
        item = self._items[self._pop_count]
        self._pop_count += 1
        self.total_popped += 1
        if not self._dirty and self._sink is not None:
            self._dirty = True
            self._sink.append(self)
        return item

    # -- kernel interface ----------------------------------------------------
    def commit(self) -> None:
        """Apply this cycle's pops and pushes; called once per cycle."""
        self.occupancy_accum += len(self._items)
        self.cycles_observed += 1
        if self._pop_count:
            del self._items[: self._pop_count]
            self._pop_count = 0
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()

    def sync_observations(self, cycle: int) -> None:
        """Credit every observation elided since the last commit/sync.

        Under sparse commit a channel is only committed on cycles it saw a
        push or pop; its occupancy was constant in between, so the elided
        commits are reconstructed exactly: at ``cycle`` the channel should
        have been observed ``cycle - _anchor`` times in total.
        """
        lag = cycle - self._anchor - self.cycles_observed
        if lag > 0:
            self.occupancy_accum += len(self._items) * lag
            self.cycles_observed += lag

    def register_metrics(self, scope) -> None:
        """Bind this channel's statistics into a metric registry scope.

        The stats themselves stay plain int fields — ``commit`` runs once per
        channel per cycle and is the kernel's hottest statistic — so the
        registry holds lazy views that read the live values at dump time.
        """
        scope.bind("pushed", lambda: self.total_pushed)
        scope.bind("popped", lambda: self.total_popped)
        scope.bind("occupancy_accum", lambda: self.occupancy_accum)
        scope.bind("cycles_observed", lambda: self.cycles_observed)
        scope.bind("mean_occupancy", lambda: self.mean_occupancy)
        scope.bind("capacity", lambda: self.capacity)

    def __len__(self) -> int:
        """Occupancy visible to consumers this cycle."""
        return len(self._items) - self._pop_count

    @property
    def mean_occupancy(self) -> float:
        if not self.cycles_observed:
            return 0.0
        return self.occupancy_accum / self.cycles_observed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelQueue({self.name!r}, {len(self._items)}/{self.capacity})"


class TxnTags:
    """A design's AXI transaction tag counter.

    One instance per simulator, handed to every component by
    :meth:`Simulator.add`; AXI masters tag each burst with :meth:`draw`.
    Its position is snapshot state, so two identical runs issue identical
    tags and a restored run continues the sequence.
    """

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next = 0

    def draw(self) -> int:
        tag = self.next
        self.next = tag + 1
        return tag


class Component:
    """Base class for everything that acts on each clock edge."""

    # Selective-scheduling bookkeeping, installed by SelectiveProgram; class
    # attributes so existing subclasses need no __init__ changes.
    _sched_index = -1
    _wake_hook: Optional[Callable[["Component"], None]] = None
    _ticks_executed = 0
    _cslot = -1
    #: The owning simulator's :class:`TxnTags`, installed by Simulator.add().
    txn_tags: Optional[TxnTags] = None

    #: Declares ``next_event`` constant at :data:`NEVER`: the component only
    #: ever progresses on channel traffic (pure dataflow elements such as the
    #: MMIO frontend).  The default :meth:`tick_program` then reports no hint
    #: at all, so the selective scheduler skips the post-tick hint call.
    wake_only = False

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__

    def tick(self, cycle: int) -> None:
        """Advance one cycle; read channel state, stage pushes/pops."""
        raise NotImplementedError

    def next_event(self, cycle: int) -> Optional[float]:
        """Earliest cycle >= ``cycle`` at which this component can make
        progress assuming no new channel traffic arrives, or :data:`NEVER`
        if only channel traffic can wake it, or ``None`` (the safe default)
        for "tick me every cycle".

        The contract backing selective scheduling: when a component returns
        a hint ``h``, ticking it at any cycle in ``[cycle, h)`` in which none
        of its :meth:`wake_channels` saw a committed push or pop since its
        previous tick must be a no-op (no pushes, no pops, no state or
        statistics change).  A hint may be early (the extra ticks are no-ops)
        but never late.  Components whose ``tick`` mutates state
        unconditionally (countdowns, pipelines) must either return ``None``
        or keep their timing in absolute cycles.
        """
        return None

    def tick_program(
        self,
    ) -> Tuple[Callable[[int], None], Optional[Callable[[int], Optional[float]]]]:
        """The ``(tick, next_event)`` callables both schedulers run.

        This is the one behaviour of the component: ``naive`` calls ``tick``
        every cycle, ``selective`` calls ``tick`` when woken and ``next_event``
        after each tick.  A ``next_event`` of ``None`` means constant
        :data:`NEVER` (wake on channel traffic only).  The default returns the
        bound methods; hot models override this to return closures with their
        channel endpoints, counters and constants captured as locals.

        Called whenever the simulator (re)builds its tick program — on the
        first ``run()`` and after components are added or a snapshot is
        restored — so closures may capture model containers by identity.
        Wrapping the returned pair is the single hook for altering a
        component's behaviour (fault hang injection wraps it per instance).
        """
        return self.tick, (None if self.wake_only else self.next_event)

    def channels(self) -> Iterable[ChannelQueue[Any]]:
        """Channels owned by this component (auto-registered)."""
        return [v for v in vars(self).values() if isinstance(v, ChannelQueue)]

    def wake_channels(self) -> Iterable[ChannelQueue[Any]]:
        """Channels whose push/pop activity may let this component progress.

        The selective scheduler subscribes the component to each of these:
        any committed push or pop on one wakes it the next cycle.  The set
        must cover every channel the component's ``tick`` reads *or* probes
        for space (``can_push``) — a full output channel is part of the wake
        set because only a pop on it can unblock the producer.

        The default — the component's own :meth:`channels` — is correct for
        components that only touch channels they own.  Components that touch
        foreign channels (NoC nodes forwarding between ports, the command
        router pushing into adapters, cores driving Reader/Writer queues)
        must override this with the complete set; a superset is always safe
        (spurious wakes cost time, never correctness).  Waking only on the
        "foreign" edge (pushes for inputs, pops for outputs) is unsound: a
        component that consumes one of several pending items per tick relies
        on its *own* activity re-waking it to drain the rest.
        """
        return self.channels()

    def request_wake(self) -> None:
        """Ask the selective scheduler to tick this component again.

        Escape hatch for progress enabled by *non-channel* coupling: e.g. a
        core calling :meth:`repro.memory.scratchpad.Memory.read` directly on
        another component's memory.  Safe to call from any mode (a no-op
        outside selective scheduling) and from inside a tick.
        """
        hook = self._wake_hook
        if hook is not None:
            hook(self)

    @property
    def metric_path(self) -> str:
        """Namespace path for this component's metrics.

        Component names already encode the design hierarchy with dots
        (``reader.Memcpy.c0.copy_in0``); the default maps them to registry
        paths (``reader/Memcpy/c0/copy_in0``).  Subclasses override to place
        themselves under a subsystem root (``dram/``, ``runtime/``...).
        """
        return self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        """Attach/bind this component's metrics under ``scope``.

        Called by :meth:`Simulator.add`; the default registers nothing
        (channel statistics are bound separately by the simulator).
        """

    def debug_state(self) -> Optional[Dict[str, Any]]:
        """Structured snapshot for deadlock dumps, or ``None`` when idle.

        Components with interesting blocking state (the runtime server's
        waiters, the memory controller's in-flight transactions) override
        this; :meth:`Simulator.state_dump` collects every non-``None`` result
        into the :class:`DeadlockError` payload.
        """
        return None

    #: Attribute names a snapshot skips, on top of the scheduler wiring
    #: (``repro.snapshot.engine.SCHED_ATTRS``) and top-level callables.
    #: Subclasses list configuration and structural fields below the top
    #: level (containers of callables, references into another partition)
    #: that the rebuild recreates and a checkpoint must neither capture nor
    #: overwrite.
    _snapshot_exclude: Tuple[str, ...] = ()

    def snapshot_refs(self) -> Dict[Any, Any]:
        """Objects outside the simulator that this component's state points
        at and the rebuild recreates, keyed for the snapshot reference
        table; a snapshot captures and restores their fields too.  The
        default names none; the runtime server names its host handle and
        the handle's futures."""
        return {}


class Simulator:
    """Owns the clock; ticks components and commits channels.

    ``scheduling`` selects one of the two cycle-identical schedules (see the
    module docstring): ``"naive"`` (the default) ticks everything every
    cycle, ``"selective"`` runs the event-driven program built by
    :class:`repro.sim.selective.SelectiveProgram`.  Every clock advance —
    :meth:`run`, :meth:`run_slice` and :meth:`step` — goes through the chosen
    schedule.

    A component returning ``None`` from :meth:`Component.next_event` (the
    default) is ticked every cycle under both schedules, so unhinted user
    cores are always safe.
    """

    def __init__(
        self,
        name: str = "sim",
        tracer: Optional["Tracer"] = None,
        registry=None,
        profile: bool = False,
        scheduling: Optional[str] = None,
    ) -> None:
        from repro.obs.registry import MetricRegistry  # lazy: avoid import cycle

        if scheduling is None:
            scheduling = "naive"
        if scheduling not in SCHEDULING_MODES:
            raise ValueError(
                f"unknown scheduling mode {scheduling!r}; pick one of {SCHEDULING_MODES}"
            )
        self.name = name
        self.cycle = 0
        self.scheduling = scheduling
        self.tracer = tracer
        self._components: List[Component] = []
        self._channels: List[ChannelQueue[Any]] = []
        self._channel_ids = set()
        # Quiescent-jump accounting, surfaced by
        # :func:`repro.sim.trace.skip_summary` (always zero under naive).
        self.cycles_skipped = 0
        self.skip_events = 0
        self._selective = scheduling == "selective"
        # The tick program, built from every component's tick_program() at
        # run() entry and dropped whenever a component or channel joins:
        # a list of tick callables under naive, a SelectiveProgram otherwise.
        self._program: Any = None
        self._dirty_channels: List[ChannelQueue[Any]] = []
        # Unified metrics: every added component/channel is adopted here.
        self.registry = registry if registry is not None else MetricRegistry()
        self.txn_tags = TxnTags()
        self._bind_own_metrics()
        # Wall-clock self-time profile: component name -> [ns_total, calls].
        self.profile_enabled = profile
        self.tick_profile: Dict[str, List[float]] = {}

    def _bind_own_metrics(self) -> None:
        scope = self.registry.scope("sim")
        scope.bind("cycles_total", lambda: self.cycle)
        # Skip accounting depends on the schedule that ran, so it is
        # volatile: excluded from the stable dump the differential
        # harness compares bit-for-bit across scheduling modes.
        scope.bind("cycles_skipped", lambda: self.cycles_skipped, volatile=True)
        scope.bind(
            "cycles_stepped", lambda: self.cycle - self.cycles_skipped, volatile=True
        )
        scope.bind("skip_events", lambda: self.skip_events, volatile=True)
        if self.tracer is not None:
            tracer = self.tracer
            tscope = self.registry.scope("trace")
            # Event counts are volatile: quiescent jumps log a trace event
            # per skip, so they legitimately differ from a naive run.
            tscope.bind("events", lambda: len(tracer.events), volatile=True)
            tscope.bind("spans", lambda: len(getattr(tracer, "span_log", ())))
            tscope.bind(
                "dropped_events", lambda: tracer.dropped_events, volatile=True
            )
            tscope.bind("dropped_spans", lambda: tracer.dropped_spans)

    def add(self, component: Component) -> Component:
        self._components.append(component)
        component.txn_tags = self.txn_tags
        self.invalidate_program()
        for chan in component.channels():
            self.register_channel(chan)
        scope = self.registry.scope(component.metric_path)
        component.register_metrics(scope)
        # Per-component scheduling effectiveness, for wake-set reporting.
        scope.bind(
            "ticks_executed",
            lambda c=component: self.component_ticks(c),
            volatile=True,
        )
        scope.bind(
            "ticks_elided",
            lambda c=component: self.cycle - self.component_ticks(c),
            volatile=True,
        )
        return component

    def register_channel(self, chan: ChannelQueue[Any]) -> ChannelQueue[Any]:
        if id(chan) not in self._channel_ids:
            self._channel_ids.add(id(chan))
            self._channels.append(chan)
            self.invalidate_program()
            if self._selective:
                chan._sink = self._dirty_channels
                # Anchor so that a fully synced channel always satisfies
                # cycles_observed == sim.cycle - _anchor, exactly as if it
                # had been committed on every cycle since registration.
                chan._anchor = self.cycle - chan.cycles_observed
            chan.register_metrics(
                self.registry.scope("chan/" + chan.name.replace(".", "/"))
            )
        return chan

    def invalidate_program(self) -> None:
        """Drop the tick program; the next ``run()`` rebuilds it.

        Called when the component graph changes and before a snapshot
        restore, so closures returned by :meth:`Component.tick_program` are
        always rebuilt over the live model state.
        """
        program = self._program
        if program is not None:
            if self._selective:
                program.invalidate()
            self._program = None

    def component_ticks(self, component: Component) -> int:
        """Cycles in which ``component.tick`` actually ran.

        Exact per-component counts are maintained by the selective scheduler;
        under naive scheduling every cycle ticks every component, so the
        count is derived.
        """
        if self._selective:
            return component._ticks_executed
        return self.cycle

    # -- stepping ------------------------------------------------------------
    def step(self) -> None:
        """Advance exactly one cycle through the chosen schedule.

        The first cycle of every selective run wakes every component, so a
        step is a tick-everything cycle under both schedules.
        """
        self.run(1)

    def run(
        self,
        max_cycles: int,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until ``until()`` is true (checked between cycles) or the cycle
        budget is exhausted.  Returns the cycle count reached.  Raises
        :class:`DeadlockError` when the budget runs out while a predicate is
        pending, because that almost always means the model deadlocked.

        Under selective scheduling ``until`` must be a function of model
        state (channel/component contents), not of the raw cycle counter:
        skipped cycles are exactly the ones in which no model state changes,
        so a state predicate is evaluated at every cycle where its value
        could flip — but a predicate on ``sim.cycle`` itself could fire
        inside a skipped window and be missed.  The predicate is evaluated
        exactly once per advanced cycle.
        """
        deadline = self.cycle + max_cycles
        if self._selective:
            program = self._program
            if program is None:
                from repro.sim.selective import SelectiveProgram  # lazy: avoid cycle

                program = self._program = SelectiveProgram(self)
            return program.run(deadline, max_cycles, until)
        return self._run_naive(deadline, max_cycles, until)

    def run_slice(self, n_cycles: int) -> int:
        """Advance exactly ``n_cycles`` cycles with no completion predicate.

        The unit of execution for clock advances that wait on nothing: a
        distributed partition's lookahead slice between barriers, or the
        host's DMA set-up time.  Semantically just ``run(n_cycles,
        until=None)`` — which can never raise :class:`DeadlockError` — but
        named so call sites read as slice-bounded execution rather than
        budgeted completion waits.
        """
        if n_cycles <= 0:
            return self.cycle
        return self.run(n_cycles, until=None)

    def _run_naive(
        self, deadline: int, max_cycles: int, until: Optional[Callable[[], bool]]
    ) -> int:
        channels = self._channels
        pred = bool(until()) if until is not None else False
        while self.cycle < deadline:
            if pred:
                break
            ticks = self._program
            if ticks is None:
                ticks = self._program = [
                    comp.tick_program()[0] for comp in self._components
                ]
            cycle = self.cycle
            if self.profile_enabled:
                self._naive_cycle_profiled(ticks, cycle)
            else:
                for tick in ticks:
                    tick(cycle)
                for chan in channels:
                    chan.commit()
            self.cycle = cycle + 1
            pred = bool(until()) if until is not None else False
        if until is not None and not pred:
            self._raise_deadlock(max_cycles)
        return self.cycle

    def _naive_cycle_profiled(self, ticks: List[Callable[[int], None]], cycle: int) -> None:
        """One naive cycle with per-component wall-clock attribution.

        Self-time only: each component's tick is timed individually, and the
        channel-commit sweep is booked under ``(kernel)/commit`` so simulator
        overhead is distinguishable from model cost.
        """
        profile = self.tick_profile
        clock = time.perf_counter_ns
        for component, tick in zip(self._components, ticks):
            t0 = clock()
            tick(cycle)
            _book(profile, component.name, clock() - t0)
        t0 = clock()
        for chan in self._channels:
            chan.commit()
        _book(profile, "(kernel)/commit", clock() - t0)

    def _sync_channel_stats(self) -> None:
        cycle = self.cycle
        for chan in self._channels:
            chan.sync_observations(cycle)

    # -- deadlock diagnosis ---------------------------------------------------
    def state_dump(self) -> Dict[str, Any]:
        """Structured snapshot of everything that could explain a stall.

        Collected when a ``run()`` budget expires with its predicate pending:
        non-empty channel occupancies, each component's
        :meth:`Component.debug_state`, and (under selective scheduling) the
        wake heap and woken set.  Cheap enough to also call ad hoc while
        debugging a live simulation.
        """
        channels: Dict[str, Dict[str, int]] = {}
        for chan in self._channels:
            occ = len(chan)
            staged = len(chan._staged)
            if occ or staged or chan._pop_count:
                channels[chan.name] = {
                    "occupancy": occ,
                    "staged": staged,
                    "pending_pops": chan._pop_count,
                    "capacity": chan.capacity,
                }
        components: Dict[str, Dict[str, Any]] = {}
        for comp in self._components:
            try:
                state = comp.debug_state()
            except Exception:  # noqa: BLE001 — diagnosis must never mask the stall
                state = {"debug_state": "unavailable"}
            if state:
                components[comp.name] = state
        dump: Dict[str, Any] = {
            "sim": self.name,
            "cycle": self.cycle,
            "scheduling": self.scheduling,
            "channels": channels,
            "components": components,
        }
        if self._selective and self._program is not None:
            dump["wake_heap"], dump["woken"] = self._program.wake_dump()
        return dump

    def _raise_deadlock(self, max_cycles: int) -> None:
        from repro.sim.trace import compact_state_dump, render_deadlock_report

        # Cap the attached dump: a 64-core/4-die config otherwise produces a
        # multi-megabyte exception that drowns the diagnosis (the full dump
        # stays available via state_dump() / tools' --export-state-dump).
        dump = compact_state_dump(self.state_dump())
        raise DeadlockError(
            f"simulation {self.name!r} did not converge in {max_cycles} cycles\n"
            + render_deadlock_report(dump),
            dump,
        )


def _book(profile: Dict[str, List[float]], label: str, dt: int) -> None:
    """Add one ``dt``-nanosecond sample to ``profile[label]``."""
    entry = profile.get(label)
    if entry is None:
        profile[label] = [dt, 1]
    else:
        entry[0] += dt
        entry[1] += 1
