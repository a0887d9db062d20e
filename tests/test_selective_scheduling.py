"""Property tests for selective-scheduling correctness.

Randomised pipelines of producers, relay stages and sinks are run twice —
naive stepping and selective scheduling — and every observable must be
bit-identical: per-component event logs (which include the *cycle* each
event happened on), channel statistics including the sparse-commit
occupancy integrals, and the final simulation cycle.

All randomness is drawn up front from seeded generators so the two runs
construct identical workloads; service delays are pure functions of the item
value so the schedules cannot diverge through hidden state.
"""

import random

import pytest

from repro.sim import NEVER, ChannelQueue, Component, Simulator


def _service_delay(value: int) -> int:
    """Deterministic pseudo-random per-item service time, 0..6 cycles."""
    return (value * 2654435761) % 7


class ScheduledProducer(Component):
    """Pushes a precomputed (cycle, value) schedule, honouring backpressure.

    The ``next_event`` hint points at the next scheduled push; when the
    output is full the producer stalls and relies on the freeing pop waking
    it (the output channel is in its wake set via ``channels``).
    """

    def __init__(self, name, out, schedule):
        super().__init__(name)
        self.out = out
        self.schedule = sorted(schedule)  # [(cycle, value), ...]
        self._next = 0
        self.log = []

    def channels(self):
        return [self.out]

    def tick(self, cycle):
        while (
            self._next < len(self.schedule)
            and self.schedule[self._next][0] <= cycle
            and self.out.can_push()
        ):
            value = self.schedule[self._next][1]
            self.out.push(value)
            self.log.append((cycle, "push", value))
            self._next += 1

    def next_event(self, cycle):
        if self._next >= len(self.schedule):
            return NEVER
        due = self.schedule[self._next][0]
        if due > cycle:
            return due
        # An overdue item with free output space must wake immediately; if
        # the output is full the freeing pop provides the wake (claiming
        # NEVER while the output has room would break the hint contract —
        # the committed drain since our last tick makes the next tick a
        # push, not a no-op).
        return NEVER if not self.out.can_push() else cycle

    def done(self):
        return self._next >= len(self.schedule)


class RelayStage(Component):
    """Pops an item, services it for ``_service_delay(value)`` cycles, then
    pushes it downstream (blocking on backpressure)."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self._item = None
        self._ready_at = 0
        self.log = []

    def channels(self):
        return [self.inp, self.out]

    def tick(self, cycle):
        if self._item is not None and cycle >= self._ready_at:
            if self.out.can_push():
                self.out.push(self._item)
                self.log.append((cycle, "emit", self._item))
                self._item = None
            else:
                return  # blocked; wake on downstream pop
        if self._item is None and self.inp.can_pop():
            self._item = self.inp.pop()
            self._ready_at = cycle + _service_delay(self._item)
            self.log.append((cycle, "take", self._item))

    def next_event(self, cycle):
        if self._item is not None:
            return max(self._ready_at, cycle)
        return NEVER

    def done(self):
        return self._item is None


class Sink(Component):
    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = inp
        self.log = []

    def channels(self):
        return [self.inp]

    def tick(self, cycle):
        while self.inp.can_pop():
            self.log.append((cycle, "sink", self.inp.pop()))

    def next_event(self, cycle):
        return NEVER


def _build_pipeline(seed, scheduling):
    """A randomised fan-out of relay chains sharing one producer schedule."""
    rng = random.Random(seed)
    n_chains = rng.randint(1, 4)
    sim = Simulator(scheduling=scheduling)
    chains = []
    for c in range(n_chains):
        depth = rng.randint(1, 3)
        n_items = rng.randint(5, 40)
        # Bursty schedule: clusters of same-cycle pushes + long gaps, so
        # both backpressure and long-idle windows occur.
        schedule, cycle = [], 0
        for _ in range(n_items):
            cycle += rng.choice([0, 0, 1, 2, 3, rng.randint(20, 200)])
            schedule.append((cycle, rng.randrange(1, 1 << 16)))
        n_stages = rng.randint(1, 3)
        links = [
            ChannelQueue(rng.randint(1, 3), f"c{c}.l{i}")
            for i in range(n_stages + 1)
        ]
        prod = sim.add(ScheduledProducer(f"c{c}.prod", links[0], schedule))
        stages = [
            sim.add(RelayStage(f"c{c}.s{i}", links[i], links[i + 1]))
            for i in range(n_stages)
        ]
        sink = sim.add(Sink(f"c{c}.sink", links[-1]))
        for link in links:
            sim.register_channel(link)
        chains.append((prod, stages, sink, n_items))
    return sim, chains


def _drained(chains):
    def pred():
        return all(
            prod.done()
            and all(s.done() for s in stages)
            and len(sink.log) == n_items
            for prod, stages, sink, n_items in chains
        )

    return pred


def _observe(sim, chains):
    logs = {}
    for prod, stages, sink, _ in chains:
        for comp in [prod, *stages, sink]:
            logs[comp.name] = list(comp.log)
    stats = [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum,
         c.cycles_observed, c.mean_occupancy)
        for c in sim._channels
    ]
    return {"cycle": sim.cycle, "logs": logs, "channel_stats": stats}


def _run(seed, scheduling, settle=500):
    sim, chains = _build_pipeline(seed, scheduling)
    sim.run(200_000, until=_drained(chains))
    # Run past the drain point too: idle-tail statistics (occupancy
    # integrals over empty channels) must also match under sparse commit.
    sim.run(settle)
    return _observe(sim, chains), sim


@pytest.mark.parametrize("seed", range(12))
def test_selective_matches_naive(seed):
    naive, _ = _run(seed, "naive")
    selective, sel_sim = _run(seed, "selective")
    assert selective == naive
    # Non-vacuous: selective must have elided ticks somewhere.
    total_ticks = sum(
        sel_sim.component_ticks(c) for c in sel_sim._components
    )
    assert total_ticks < sel_sim.cycle * len(sel_sim._components)


def test_request_wake_same_cycle_or_next():
    """request_wake from an earlier-indexed component ticks the target this
    cycle (matching naive order); from a later-indexed one, next cycle."""

    class Poker(Component):
        def __init__(self, name, target, poke_cycle):
            super().__init__(name)
            self.target = target
            self.poke_cycle = poke_cycle

        def tick(self, cycle):
            if cycle == self.poke_cycle:
                self.target.value = cycle  # direct mutation, no channel
                self.target.request_wake()

        def next_event(self, cycle):
            return self.poke_cycle if self.poke_cycle >= cycle else NEVER

    class Watcher(Component):
        def __init__(self, name):
            super().__init__(name)
            self.value = None
            self.seen = []

        def tick(self, cycle):
            if self.value is not None:
                self.seen.append((cycle, self.value))
                self.value = None

        def next_event(self, cycle):
            return NEVER

    def run_order(poker_first):
        sim = Simulator(scheduling="selective")
        watcher = Watcher("watcher")
        poker = Poker("poker", watcher, 10)
        if poker_first:
            sim.add(poker), sim.add(watcher)
        else:
            sim.add(watcher), sim.add(poker)
        sim.run(20)
        return watcher.seen

    # Poker before watcher: naive would deliver the same cycle.
    assert run_order(True) == [(10, 10)]
    # Watcher before poker: naive delivers next cycle.
    assert run_order(False) == [(11, 10)]


def test_sparse_commit_occupancy_integral():
    """A channel left non-empty across a long idle gap accrues occupancy for
    every elided cycle (the anchor lag-credit path)."""
    sim = Simulator(scheduling="selective")
    chan = ChannelQueue(4, "gap")
    prod = ScheduledProducer("prod", chan, [(0, 7), (1, 9)])
    sink_chan = ChannelQueue(4, "out")
    stage = RelayStage("stage", chan, sink_chan)
    sink = Sink("sink", sink_chan)
    for c in (prod, stage, sink):
        sim.add(c)
    sim.register_channel(chan)
    sim.register_channel(sink_chan)
    sim.run(until=lambda: len(sink.log) == 2, max_cycles=1000)
    sim.run(10_000)  # long fully-idle tail
    for c in (chan, sink_chan):
        assert c.cycles_observed == sim.cycle
        # Empty throughout the tail: integral fixed, mean decays.
        assert c.total_pushed == c.total_popped == 2
