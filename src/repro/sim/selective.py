"""The event-driven program behind ``Simulator(scheduling="selective")``.

Built from every component's :meth:`~repro.sim.kernel.Component.tick_program`
at the first ``run()`` and rebuilt whenever the component graph changes, the
program executes the same cycles as the naive tick-everything schedule while
ticking only what can make progress:

* **Wake sets** — a component is ticked when one of its ``wake_channels()``
  committed a push *or* pop in the previous cycle, when its ``next_event``
  hint matures, or when it called ``request_wake``.  Waking only on the
  "foreign" edge (pushes for inputs, pops for outputs) is unsound: a
  component that consumes one of several pending items per tick (an
  :class:`~repro.noc.axi_node.AxiBufferNode` forwarding one AR per cycle) is
  re-woken by its *own* pop/push, and that self-re-wake is what lets it
  drain the backlog on schedule.

* **Chain fusion** — runs of *consecutively registered*, hinted components
  with *identical* wake sets are fused into one scheduling slot: one heap
  entry, one wake subscription, one dispatch.  Identical sets mean the
  members are always co-woken, so group dispatch adds zero spurious ticks by
  construction (overlap-based fusion was measured a net loss: members woken
  through unshared channels dragged the whole group awake).  Fused members
  tick in registration order, and because the run is contiguous the global
  tick order — and therefore the order channels first become dirty, i.e.
  the channel-commit order — is exactly the naive order.  A spurious member
  tick (e.g. from a ``request_wake`` aimed at one member) is safe by the
  ``next_event`` no-op contract.

* **Flat commit drain** — only dirty channels commit, through an inlined
  loop that fuses ``sync_observations`` + ``commit`` into direct attribute
  arithmetic and wakes subscriber slots from a tuple stored on the channel
  (``_csubs``).  Channels that stay clean are credited their elided
  observations lazily, so every channel statistic equals naive stepping.

* **Quiescent jumps** — when no slot is woken the clock jumps straight to
  the earliest matured hint (or the run deadline): model state, and with it
  the ``until`` predicate, is provably frozen in between.

Determinism contract: a selective run produces the same cycle count, the
same channel statistics (``total_pushed``/``total_popped``/
``occupancy_accum``/``cycles_observed``) and the same stable metric dump as
the naive schedule.  Only volatile metrics (tick/skip accounting, trace
event counts) and the wall clock differ.  ``tests/test_differential.py`` and
``tests/test_selective_scheduling.py`` enforce this bit-for-bit.

``Component.request_wake`` wakes a slot later in the dispatch order that
has not ticked this cycle in the current cycle (naive would have ticked it
after the requester); anything else — including a member of the currently
executing fused slot that already ticked — is woken next cycle.  This is
how non-channel coupling such as :class:`repro.memory.scratchpad.Memory`'s
``on_activity`` hook stays honoured.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.kernel import NEVER, Component, _book

#: Cap on members merged into one fused scheduling slot.  Fused members are
#: always co-woken (identical wake signatures), so the cap is a safety bound
#: on dispatch-group size, not a spurious-tick tradeoff.
MAX_FUSED = 8


def _fused_hint(hint_fns):
    """One slot hint over its members' hints (``None``: all wake-only)."""
    if not hint_fns:
        return None
    if len(hint_fns) == 1:
        return hint_fns[0]

    def hint(cycle, hint_fns=hint_fns):
        best = NEVER
        for fn in hint_fns:
            h = fn(cycle)
            if h is None:
                return None
            if h < best:
                best = h
        return best

    return hint


class SelectiveProgram:
    """A tick program compiled from a :class:`~repro.sim.kernel.Simulator`.

    Built lazily at ``run()`` and dropped by
    :meth:`~repro.sim.kernel.Simulator.invalidate_program` whenever
    components or channels are added (post-elaboration additions such as
    the runtime server) or a snapshot is restored.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        components: List[Component] = list(sim._components)
        self.components = components

        # -- per-component behaviour and wake membership --------------------
        # wake_chans[i]: channels whose commit (push *or* pop) wakes
        # component i.  Hinted components (any hint but the default
        # tick-every-cycle ``None``) may fuse.
        programs = []
        wake_chans: List[List[Any]] = []
        fusable: List[bool] = []
        for idx, comp in enumerate(components):
            comp._sched_index = idx
            comp._wake_hook = self._request_wake
            tick, hint = comp.tick_program()
            programs.append((tick, hint))
            chans = list(comp.wake_channels())
            wake_chans.append(chans)
            unhinted = getattr(hint, "__func__", None) is Component.next_event
            fusable.append(not unhinted and bool(chans))

        # -- fusion: partition into contiguous scheduling slots ------------
        # Fuse a component into the preceding slot only when its wake
        # subscription signature is *identical* to that slot's.  Profiled
        # runs disable fusion entirely: a fused slot is one dispatch, so its
        # wall-clock sample could not be split among members.  The profiler
        # is volatile instrumentation — cycle results are identical either
        # way — so trading fusion for correct per-component attribution is
        # free in model terms.
        signatures = [frozenset(id(c) for c in chans) for chans in wake_chans]
        fuse_ok = not sim.profile_enabled
        index_groups: List[List[int]] = []
        for idx in range(len(components)):
            if (
                index_groups
                and fuse_ok
                and fusable[idx]
                and fusable[index_groups[-1][-1]]
                and len(index_groups[-1]) < MAX_FUSED
                and signatures[idx] == signatures[index_groups[-1][-1]]
            ):
                index_groups[-1].append(idx)
            else:
                index_groups.append([idx])
        self.groups: List[List[Component]] = [
            [components[i] for i in g] for g in index_groups
        ]
        for slot, group in enumerate(self.groups):
            for comp in group:
                comp._cslot = slot

        # -- channel subscriptions ------------------------------------------
        # One flat tuple of subscriber slots per channel, stored on the
        # channel itself so the commit drain wakes without a dict lookup.
        sub_map: dict = {}
        chan_by_id: dict = {}
        for idx, comp in enumerate(components):
            slot = comp._cslot
            for chan in wake_chans[idx]:
                chan_by_id[id(chan)] = chan
                sub_map.setdefault(id(chan), set()).add(slot)
        for chan in sim._channels:
            chan._csubs = ()
        for cid, slots in sub_map.items():
            chan_by_id[cid]._csubs = tuple(sorted(slots))

        # -- per-slot tick and hint callables ------------------------------
        tick_fns: List[Callable[[int], None]] = []
        hint_fns: List[Optional[Callable[[int], Optional[float]]]] = []
        labels: List[str] = []
        for group, idxs in zip(self.groups, index_groups):
            if len(group) == 1:
                tick, hint = programs[idxs[0]]
                tick_fns.append(tick)
                hint_fns.append(hint)
                labels.append(group[0].name)
            else:
                members = [programs[i] for i in idxs]
                tick_fns.append(self._fused_tick(idxs, [t for t, _ in members]))
                hint_fns.append(_fused_hint([h for _, h in members if h is not None]))
                labels.append(f"(fused)/{group[0].name}(+{len(group) - 1})")
        self._tick_fns = tick_fns
        self._hint_fns = hint_fns
        self._labels = labels

        # -- scheduler state ------------------------------------------------
        n_slots = len(self.groups)
        self._slot_ticks = [0] * n_slots
        self._wake_heap: List[Tuple[int, int]] = []
        self._woken: set = set()
        self._ready: Optional[List[int]] = None
        self._ready_pos = 0
        self._cmember = -1

    # -- fused slot helpers -------------------------------------------------
    def _fused_tick(self, idxs, fns):
        pairs = tuple(zip(idxs, fns))

        def tick(cycle, self=self, pairs=pairs):
            for idx, fn in pairs:
                self._cmember = idx
                fn(cycle)

        return tick

    # -- wake plumbing -------------------------------------------------------
    def _request_wake(self, comp: Component) -> None:
        """Wake ``comp`` at the earliest cycle that matches naive order."""
        slot = comp._cslot
        if slot < 0:
            return
        ready = self._ready
        if ready is None:
            self._woken.add(slot)
            return
        pos = self._ready_pos
        cur = ready[pos - 1]
        if slot > cur:
            # Not yet ticked this cycle (the dispatch order is sorted and
            # fully visited up to ``cur``): inject into the unvisited tail,
            # keeping it sorted and free of duplicates.
            at = bisect_left(ready, slot, pos)
            if at == len(ready) or ready[at] != slot:
                ready.insert(at, slot)
        elif (
            slot == cur
            and len(self.groups[slot]) > 1
            and comp._sched_index > self._cmember
        ):
            pass  # later member of the currently executing fused slot: it
            # ticks this cycle anyway, in naive order, after the requester
        else:
            self._woken.add(slot)

    def flush_ticks(self) -> None:
        """Fold per-slot tick counts into ``Component._ticks_executed``.

        The hot loop counts ticks per slot (a list-index increment); the
        per-component counters the registry and wake reports read are only
        reconciled here, at run exit.
        """
        slot_ticks = self._slot_ticks
        for slot, group in enumerate(self.groups):
            count = slot_ticks[slot]
            if count:
                slot_ticks[slot] = 0
                for comp in group:
                    comp._ticks_executed += count

    def invalidate(self) -> None:
        """Called before this program is replaced by a rebuild."""
        self.flush_ticks()

    def wake_dump(self):
        """(wake_heap, woken) with slot labels, for deadlock dumps."""
        heap = sorted((cyc, self._labels[slot]) for cyc, slot in self._wake_heap)
        woken = sorted(self._labels[slot] for slot in self._woken)
        return heap, woken

    def prepare(self) -> None:
        """Wake everything and adopt pre-staged channels at ``run()`` entry.

        Anything may have mutated between runs (host command submission,
        a snapshot restore, test pushes into registered ports), so the first
        cycle ticks every slot — exactly a naive tick-everything cycle — and
        channels carrying uncommitted traffic join the dirty list.
        """
        sim = self.sim
        self._woken.update(range(len(self.groups)))
        dirty = sim._dirty_channels
        for chan in sim._channels:
            if not chan._dirty and (chan._staged or chan._pop_count):
                chan._dirty = True
                dirty.append(chan)

    # -- the main loop -------------------------------------------------------
    def run(
        self, deadline: int, max_cycles: int, until: Optional[Callable[[], bool]]
    ) -> int:
        sim = self.sim
        self.prepare()
        tick_fns = self._tick_fns
        hint_fns = self._hint_fns
        slot_ticks = self._slot_ticks
        wake_heap = self._wake_heap
        woken = self._woken
        woken_add = woken.add
        woken_update = woken.update
        dirty = sim._dirty_channels
        tracer = sim.tracer
        profile = sim.profile_enabled
        tick_profile = sim.tick_profile
        labels = self._labels
        clock = time.perf_counter_ns
        pred = bool(until()) if until is not None else False
        cycle = sim.cycle
        try:
            while cycle < deadline:
                if pred:
                    break
                while wake_heap and wake_heap[0][0] <= cycle:
                    woken_add(heappop(wake_heap)[1])
                if not woken:
                    # Nothing can act before the earliest scheduled wake:
                    # model state (and the predicate) is provably frozen.
                    target = wake_heap[0][0] if wake_heap else deadline
                    if target > deadline:
                        target = deadline
                    skipped = target - cycle
                    sim.cycles_skipped += skipped
                    sim.skip_events += 1
                    if tracer is not None:
                        tracer.record(cycle, "sim", "skip", skipped)
                    sim.cycle = cycle = target
                    continue
                order = sorted(woken)
                woken.clear()
                self._ready = order
                cy1 = cycle + 1
                i = 0
                # Walk the sorted dispatch order by index; same-cycle wakes
                # (request_wake) insort into the unvisited tail, so the loop
                # bound is re-read each iteration.
                while i < len(order):
                    slot = order[i]
                    i += 1
                    self._ready_pos = i
                    if profile:
                        t0 = clock()
                        tick_fns[slot](cycle)
                        _book(tick_profile, labels[slot], clock() - t0)
                    else:
                        tick_fns[slot](cycle)
                    slot_ticks[slot] += 1
                    hint_fn = hint_fns[slot]
                    if hint_fn is not None:
                        hint = hint_fn(cy1)
                        if hint is None or hint <= cy1:
                            woken_add(slot)
                        elif hint != NEVER:
                            heappush(wake_heap, (int(hint), slot))
                self._ready = None
                if dirty:
                    if profile:
                        t0 = clock()
                    for chan in dirty:
                        # sync_observations + commit, fused and inlined.
                        items = chan._items
                        lag = cycle - chan._anchor - chan.cycles_observed
                        if lag > 0:
                            chan.occupancy_accum += len(items) * (lag + 1)
                            chan.cycles_observed += lag + 1
                        else:
                            chan.occupancy_accum += len(items)
                            chan.cycles_observed += 1
                        if chan._pop_count:
                            del items[: chan._pop_count]
                            chan._pop_count = 0
                        staged = chan._staged
                        if staged:
                            items += staged
                            staged.clear()
                        # A dirty channel had activity by definition; wake
                        # every subscriber (selective's membership rule).
                        woken_update(chan._csubs)
                        chan._dirty = False
                    dirty.clear()
                    if profile:
                        _book(tick_profile, "(kernel)/commit", clock() - t0)
                sim.cycle = cycle = cycle + 1
                pred = bool(until()) if until is not None else False
        finally:
            self.flush_ticks()
        sim._sync_channel_stats()
        if cycle >= deadline and until is not None and not pred:
            sim._raise_deadlock(max_cycles)
        return cycle
