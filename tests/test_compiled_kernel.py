"""Property and unit tests for the compiled tick program behind selective
scheduling (:class:`repro.sim.selective.SelectiveProgram`).

Three layers of evidence that the program executes the naive schedule:

* **Randomised relay pipelines** — seeded topologies, burst schedules and
  backpressure stalls, run under both schedules and compared log-for-log
  (every event carries its cycle) and channel-statistic-for-statistic, both
  in one shot and in lockstep chunks.
* **Tick-program units** — the default :meth:`Component.tick_program`
  elides the hint of ``wake_only`` components.
* **Chain fusion units** — components with identical wake signatures fuse
  into one slot; the fused program must produce the *same channel-commit
  order* as the unfused one (checked by recording the dirty-list append
  sequence), not just the same final state.

Plus the ``request_wake`` escape hatch: non-channel coupling (a foreign
component poking a shared :class:`repro.memory.scratchpad.Memory`) must
re-wake the clocking component under selective exactly as under naive.
"""

import random

import pytest

import repro.sim.selective as selective_mod
from repro.axi.types import AxiParams
from repro.memory.scratchpad import Memory, Scratchpad, SpReq
from repro.sim import NEVER, ChannelQueue, Component, Simulator

from test_selective_scheduling import (
    RelayStage,
    _build_pipeline,
    _drained,
    _observe,
)

# ---------------------------------------------------------------------------
# Randomised relay-pipeline property tests
# ---------------------------------------------------------------------------


def _run_to_drain(seed, scheduling, settle=500):
    sim, chains = _build_pipeline(seed, scheduling)
    sim.run(200_000, until=_drained(chains))
    sim.run(settle)
    return _observe(sim, chains), sim


@pytest.mark.parametrize("seed", range(12))
def test_compiled_matches_naive(seed):
    naive, _ = _run_to_drain(seed, "naive")
    selective, sim = _run_to_drain(seed, "selective")
    assert selective == naive
    # Non-vacuous: the selective schedule elided ticks somewhere.
    total = sum(sim.component_ticks(c) for c in sim._components)
    assert total < sim.cycle * len(sim._components)


@pytest.mark.parametrize("seed", range(6))
def test_compiled_lockstep_with_selective(seed):
    """Step the selective program and the naive oracle in odd-sized chunks
    and compare the observable state at every boundary — divergence is
    caught the cycle window it happens in, not just at the end.  Chunked
    runs also exercise program re-entry (``prepare()`` wakes everything,
    which must be a no-op for decisions by the hint contract)."""
    sim_n, chains_n = _build_pipeline(seed, "naive")
    sim_s, chains_s = _build_pipeline(seed, "selective")
    rng = random.Random(seed ^ 0xC0FFEE)
    for _ in range(200):
        chunk = rng.choice([1, 3, 7, 23, 97])
        sim_n.run(chunk)
        sim_s.run(chunk)
        assert _observe(sim_s, chains_s) == _observe(sim_n, chains_n)
        if _drained(chains_n)():
            break
    assert _drained(chains_s)()


# ---------------------------------------------------------------------------
# request_wake: same-cycle/next-cycle semantics and the Memory.on_activity
# escape hatch (satellite: non-channel coupling must stay honoured).
# ---------------------------------------------------------------------------


class _Poker(Component):
    """Mutates a foreign component directly (no channel) and requests a wake."""

    def __init__(self, name, target, poke_cycle):
        super().__init__(name)
        self.target = target
        self.poke_cycle = poke_cycle

    def tick(self, cycle):
        if cycle == self.poke_cycle:
            self.target.value = cycle
            self.target.request_wake()

    def next_event(self, cycle):
        return self.poke_cycle if self.poke_cycle >= cycle else NEVER


class _Watcher(Component):
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


@pytest.mark.parametrize("scheduling", ("selective",))
def test_request_wake_order_semantics(scheduling):
    """A wake requested by an earlier-indexed component lands the same
    cycle (naive would have ticked the target afterwards); from a
    later-indexed component it lands next cycle."""

    def run_order(poker_first):
        sim = Simulator(scheduling=scheduling)
        watcher = _Watcher("watcher")
        poker = _Poker("poker", watcher, 10)
        if poker_first:
            sim.add(poker), sim.add(watcher)
        else:
            sim.add(watcher), sim.add(poker)
        sim.run(20)
        return watcher.seen

    assert run_order(True) == [(10, 10)]
    assert run_order(False) == [(11, 10)]


class _MemClocker(Component):
    """Owns a shared :class:`Memory`, clocks it, logs matured read data.

    Models an intra-core memory whose ports are driven *directly* by a
    foreign component — coupling the wake subscriptions cannot see.  The
    ``on_activity -> request_wake`` hatch provides the initial wake; the
    hint keeps the component awake while the read pipeline holds data.
    """

    def __init__(self, name, mem):
        super().__init__(name)
        self.mem = mem
        mem.on_activity = self.request_wake
        self.delivered = []

    def channels(self):
        return []

    def _pipeline_busy(self):
        return any(
            v is not None for pipe in self.mem._pipes for v in pipe
        ) or any(v is not None for v in self.mem._out)

    def tick(self, cycle):
        data = self.mem.rdata(0)
        if data is not None:
            self.delivered.append((cycle, data))
        self.mem.clock()

    def next_event(self, cycle):
        return cycle if self._pipeline_busy() else NEVER


class _MemDriver(Component):
    """Issues scheduled direct reads/writes against a foreign Memory."""

    def __init__(self, name, mem, schedule):
        super().__init__(name)
        self.mem = mem
        self.schedule = sorted(schedule)  # [(cycle, "r"|"w", row, value)]
        self._next = 0

    def channels(self):
        return []

    def tick(self, cycle):
        while self._next < len(self.schedule) and self.schedule[self._next][0] == cycle:
            _, kind, row, value = self.schedule[self._next]
            if kind == "w":
                self.mem.write(0, row, value)
            else:
                self.mem.read(0, row)
            self._next += 1

    def next_event(self, cycle):
        if self._next >= len(self.schedule):
            return NEVER
        return max(self.schedule[self._next][0], cycle)


def _run_mem_coupling(scheduling, driver_first):
    mem = Memory(latency=3, data_width=32, n_rows=8, name="shared")
    sim = Simulator(scheduling=scheduling)
    clocker = _MemClocker("clocker", mem)
    schedule = [
        (5, "w", 2, 0xAB),
        (40, "r", 2, 0),
        (41, "w", 3, 0xCD),
        (200, "r", 3, 0),
        (201, "r", 2, 0),
    ]
    driver = _MemDriver("driver", mem, schedule)
    if driver_first:
        sim.add(driver), sim.add(clocker)
    else:
        sim.add(clocker), sim.add(driver)
    sim.run(400)
    return clocker.delivered, list(mem._cells)


@pytest.mark.parametrize("driver_first", (True, False))
def test_memory_on_activity_escape_hatch(driver_first):
    """Direct Memory accesses from a foreign component (no channels at all)
    produce identical delivery cycles and final contents under every
    schedule: the ``on_activity`` hatch wakes the sleeping clocker."""
    baseline = _run_mem_coupling("naive", driver_first)
    assert _run_mem_coupling("selective", driver_first) == baseline
    delivered, cells = baseline
    assert [v for _, v in delivered] == [0xAB, 0xCD, 0xAB]
    assert cells[2] == 0xAB and cells[3] == 0xCD


class _ScratchpadDriver(Component):
    """Exercises a Scratchpad port with a scheduled mix of reads/writes."""

    def __init__(self, name, port, schedule):
        super().__init__(name)
        self.port = port
        self.schedule = sorted(schedule, key=lambda e: e[0])  # [(cycle, SpReq)]
        self._next = 0
        self.responses = []

    def channels(self):
        return [self.port.req, self.port.resp]

    def tick(self, cycle):
        while self.port.resp.can_pop():
            self.responses.append((cycle, self.port.resp.pop()))
        while (
            self._next < len(self.schedule)
            and self.schedule[self._next][0] <= cycle
            and self.port.req.can_push()
        ):
            self.port.req.push(self.schedule[self._next][1])
            self._next += 1

    def next_event(self, cycle):
        if self._next >= len(self.schedule):
            return NEVER
        due = self.schedule[self._next][0]
        if due > cycle:
            return due
        return cycle if self.port.req.can_push() else NEVER


def _run_scratchpad(scheduling):
    sim = Simulator(scheduling=scheduling)
    sp = Scratchpad(
        "sp", data_width_bits=32, n_datas=16, axi_params=AxiParams(),
        with_init=False,
    )
    rng = random.Random(99)
    schedule, cycle = [], 0
    written = {}
    for _ in range(30):
        cycle += rng.choice([0, 1, 2, rng.randint(30, 90)])
        row = rng.randrange(16)
        if written and rng.random() < 0.5:
            schedule.append((cycle, SpReq(row=rng.choice(list(written)))))
        else:
            value = rng.randrange(1 << 32)
            written[row] = value
            schedule.append((cycle, SpReq(row=row, write=True, wdata=value)))
    driver = _ScratchpadDriver("driver", sp.ports[0], schedule)
    sim.add(sp)
    sim.add(driver)
    sim.run(2000)
    return driver.responses, sp.reads_served, sp.writes_served, list(sp.mem._cells)


def test_scratchpad_parity_across_schedules():
    """The real Scratchpad (request_wake-wired Memory + credit-ruled ports)
    behaves identically under both schedules."""
    baseline = _run_scratchpad("naive")
    responses, reads, writes, _cells = baseline
    assert reads > 0 and writes > 0 and responses
    assert _run_scratchpad("selective") == baseline


# ---------------------------------------------------------------------------
# Tick-program units
# ---------------------------------------------------------------------------


def test_wake_only_hint_elided():
    class _Reactive(Component):
        wake_only = True

        def __init__(self, name, chan):
            super().__init__(name)
            self.chan = chan

        def channels(self):
            return [self.chan]

        def tick(self, cycle):
            if self.chan.can_pop():
                self.chan.pop()

        def next_event(self, cycle):
            return NEVER

    comp = _Reactive("r", ChannelQueue(2, "c"))
    tick, hint = comp.tick_program()
    assert hint is None
    assert tick == comp.tick
    # Without the declaration the bound next_event is evaluated.
    comp.wake_only = False
    assert comp.tick_program()[1](0) == NEVER


# ---------------------------------------------------------------------------
# Chain-fusion units
# ---------------------------------------------------------------------------


class _SharedWakeStage(RelayStage):
    """A relay stage advertising the whole chain's channel set, so every
    stage has an identical wake signature and the chain is fusable."""

    def wake_channels(self):
        return list(self.all_links)


class _LoggingDirtyList(list):
    """Stands in for ``sim._dirty_channels`` and records the order channels
    first turn dirty each cycle — i.e. the channel-commit order."""

    def __init__(self):
        super().__init__()
        self.events = []

    def append(self, chan):
        self.events.append(chan.name)
        super().append(chan)


def _build_fusable_chain(scheduling, n_stages=4):
    rng = random.Random(1234)
    sim = Simulator(scheduling=scheduling)
    links = [ChannelQueue(2, f"l{i}") for i in range(n_stages + 1)]
    stages = []
    for i in range(n_stages):
        stage = _SharedWakeStage(f"s{i}", links[i], links[i + 1])
        stage.all_links = links
        stages.append(sim.add(stage))
    for link in links:
        sim.register_channel(link)
    # Record commit order from the very first cycle.
    spy = _LoggingDirtyList()
    sim._dirty_channels = spy
    for chan in sim._channels:
        chan._sink = spy
    feed = [rng.randrange(1, 1 << 16) for _ in range(25)]
    return sim, links, stages, feed, spy


def _drive_chain(sim, links, stages, feed):
    """Push items into the head link between runs; collect from the tail."""
    out = []
    i = 0
    while i < len(feed) or any(s._item is not None for s in stages) or any(
        len(l) or l._staged for l in links
    ):
        while i < len(feed) and links[0].can_push():
            links[0].push(feed[i])
            i += 1
        sim.run(10)
        while links[-1].can_pop():
            out.append((sim.cycle, links[-1].pop()))
        if sim.cycle > 100_000:
            raise AssertionError("chain failed to drain")
    return out


def test_identical_signature_chain_fuses():
    sim, links, stages, feed, _spy = _build_fusable_chain("selective")
    sim.run(1)  # force program build
    prog = sim._program
    assert len(prog.groups) < len(prog.components)
    assert any(label.startswith("(fused)/") for label in prog._labels)
    # All four stages share one signature: one fused slot of size 4.
    sizes = sorted(len(g) for g in prog.groups)
    assert sizes[-1] == len(stages)


def test_fused_chain_same_commit_order_as_unfused(monkeypatch):
    fused = _build_fusable_chain("selective")
    out_fused = _drive_chain(fused[0], fused[1], fused[2], fused[3])

    monkeypatch.setattr(selective_mod, "MAX_FUSED", 1)
    unfused = _build_fusable_chain("selective")
    out_unfused = _drive_chain(unfused[0], unfused[1], unfused[2], unfused[3])
    assert all(len(g) == 1 for g in unfused[0]._program.groups)

    assert out_fused == out_unfused
    # The order channels turn dirty — the channel-commit order — must be
    # identical event-for-event, not merely produce the same final state.
    assert fused[4].events == unfused[4].events
    # And the fused run really did fuse.
    assert any(len(g) > 1 for g in fused[0]._program.groups)


def test_fused_chain_matches_naive_timing():
    selective = _build_fusable_chain("selective")
    naive = _build_fusable_chain("naive")
    out_s = _drive_chain(selective[0], selective[1], selective[2], selective[3])
    out_n = _drive_chain(naive[0], naive[1], naive[2], naive[3])
    assert out_s == out_n
    stats_s = [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum,
         c.cycles_observed)
        for c in selective[0]._channels
    ]
    stats_n = [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum,
         c.cycles_observed)
        for c in naive[0]._channels
    ]
    assert stats_s == stats_n
