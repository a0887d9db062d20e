"""Command/response routing fabric and the per-core command adapter.

The MMIO frontend turns host register writes into RoCC instructions; the
router delivers them to the addressed (system, core) with an SLR-aware
latency; the per-core adapter reassembles multi-chunk custom commands,
presents decoded commands on the core's ``BeethovenIO`` queues and packs core
responses back into RoCC responses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.command.packing import CommandSpec, ResponseSpec
from repro.command.rocc import RoccInstruction, RoccResponse
from repro.sim import NEVER, ChannelQueue, Component, SimulationError


class BeethovenIO:
    """One named command/response interface of a core (paper Figure 2).

    The core pops decoded commands (dicts of field values) from ``req`` and
    pushes response dicts into ``resp``.
    """

    def __init__(
        self,
        command: CommandSpec,
        response: ResponseSpec,
        depth: int = 2,
        owner: str = "",
    ) -> None:
        self.command_spec = command
        self.response_spec = response
        # The owner prefix keeps channel (and metric) names unique per core;
        # without it every core's "io.<cmd>.req" would collide in the registry.
        stem = f"io.{owner}.{command.name}" if owner else f"io.{command.name}"
        self.req: ChannelQueue[dict] = ChannelQueue(depth, f"{stem}.req")
        self.resp: ChannelQueue[dict] = ChannelQueue(depth, f"{stem}.resp")


class CoreCommandAdapter(Component):
    """Command unpacker + response packer sitting next to one core."""

    def __init__(
        self,
        system_id: int,
        core_id: int,
        ios: List[BeethovenIO],
        addr_bits: int,
        name: str = "cmdadapt",
    ) -> None:
        super().__init__(f"{name}.{system_id}.{core_id}")
        self.system_id = system_id
        self.core_id = core_id
        self.ios = ios
        self.addr_bits = addr_bits
        self.cmd_in: ChannelQueue[RoccInstruction] = ChannelQueue(4, f"{self.name}.in")
        self.resp_out: ChannelQueue[RoccResponse] = ChannelQueue(4, f"{self.name}.out")
        self._chunks: Dict[int, List[Tuple[int, int]]] = {}
        self._pending_rd: List[Deque[int]] = [deque() for _ in ios]
        self.commands_delivered = 0
        self.responses_packed = 0
        # Optional CommandSpanTracker: delivery/response are the lifecycle
        # hooks that bracket a command's "execute" span.
        self.spans = None

    @property
    def metric_path(self) -> str:
        return "cmd/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("commands_delivered", lambda: self.commands_delivered)
        scope.bind("responses_packed", lambda: self.responses_packed)

    def channels(self):
        chans = [self.cmd_in, self.resp_out]
        for io in self.ios:
            chans += [io.req, io.resp]
        return chans

    def tick_program(self):
        """Tick closure that unpacks commands and packs responses; no hint,
        because both phases pop channel items.  The phase guards are inlined
        so an idle adapter wake (the common case — commands are rare events)
        costs two comparisons."""
        cmd_in = self.cmd_in
        resp_out = self.resp_out
        ios = self.ios
        pending = self._pending_rd
        unpack = self._unpack
        pack = self._pack_responses

        def tick(cycle):
            if cmd_in._pop_count < len(cmd_in._items):
                unpack(cycle)
            if len(resp_out._items) + len(resp_out._staged) < resp_out.capacity:
                for idx, io in enumerate(ios):
                    resp = io.resp
                    if resp._pop_count < len(resp._items) and pending[idx]:
                        pack(cycle)
                        break

        return tick, None

    def _unpack(self, cycle: int) -> None:
        if not self.cmd_in.can_pop():
            return
        inst = self.cmd_in.peek()
        io_idx = inst.funct7
        if io_idx >= len(self.ios):
            raise SimulationError(
                f"{self.name}: command for unknown IO index {io_idx}"
            )
        io = self.ios[io_idx]
        expected = io.command_spec.n_chunks(self.addr_bits)
        got = self._chunks.setdefault(io_idx, [])
        if len(got) + 1 < expected:
            self.cmd_in.pop()
            got.append((inst.rs1, inst.rs2))
            return
        # Final chunk: only consume when the core can accept the command.
        if not io.req.can_push():
            return
        self.cmd_in.pop()
        got.append((inst.rs1, inst.rs2))
        values = io.command_spec.unpack(got, self.addr_bits)
        self._chunks[io_idx] = []
        io.req.push(values)
        self.commands_delivered += 1
        if self.spans is not None:
            self.spans.delivered(cycle, (self.system_id, self.core_id))
        if inst.xd:
            self._pending_rd[io_idx].append(inst.rd)

    def _pack_responses(self, cycle: int) -> None:
        if not self.resp_out.can_push():
            return
        for idx, io in enumerate(self.ios):
            if io.resp.can_pop() and self._pending_rd[idx]:
                values = io.resp.pop()
                rd = self._pending_rd[idx].popleft()
                data = io.response_spec.pack(values) if io.response_spec.fields else 0
                self.resp_out.push(
                    RoccResponse(self.system_id, self.core_id, rd, data)
                )
                self.responses_packed += 1
                if self.spans is not None:
                    self.spans.response_sent(
                        cycle, (self.system_id, self.core_id)
                    )
                return


@dataclass
class _RouteEntry:
    adapter: CoreCommandAdapter
    latency: int


class CommandRouter(Component):
    """Routes RoCC instructions to core adapters and responses back.

    Beethoven builds SLR-aware command networks; we model the network's
    *effect* — per-destination pipeline latency proportional to SLR distance
    plus tree depth — while the structural cost is priced by the FPGA
    resource model.
    """

    def __init__(self, name: str = "cmdrouter") -> None:
        super().__init__(name)
        self.cmd_in: ChannelQueue[RoccInstruction] = ChannelQueue(4, f"{name}.cmd")
        self.resp_out: ChannelQueue[RoccResponse] = ChannelQueue(4, f"{name}.resp")
        self._routes: Dict[Tuple[int, int], _RouteEntry] = {}
        self._cmd_delay: Deque[Tuple[int, RoccInstruction]] = deque()
        self._resp_delay: Deque[Tuple[int, RoccResponse]] = deque()
        self._resp_rr = 0
        self.commands_routed = 0
        self.responses_routed = 0

    @property
    def metric_path(self) -> str:
        return "cmd/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("commands_routed", lambda: self.commands_routed)
        scope.bind("responses_routed", lambda: self.responses_routed)
        scope.bind("cmd_delay_depth", lambda: len(self._cmd_delay))
        scope.bind("resp_delay_depth", lambda: len(self._resp_delay))

    def attach(self, adapter: CoreCommandAdapter, latency: int = 2) -> None:
        key = (adapter.system_id, adapter.core_id)
        if key in self._routes:
            raise ValueError(f"duplicate route for {key}")
        self._routes[key] = _RouteEntry(adapter, latency)

    def next_event(self, cycle: int) -> float:
        """Sleep until the head of either delay line matures; ingest and
        response collection are channel-reactive."""
        nxt = NEVER
        if self._cmd_delay:
            nxt = min(nxt, max(cycle, self._cmd_delay[0][0]))
        if self._resp_delay:
            nxt = min(nxt, max(cycle, self._resp_delay[0][0]))
        return nxt

    def wake_channels(self):
        # Besides its own queues, the router pushes into every adapter's
        # cmd_in (freed space there unblocks delivery) and pops every
        # adapter's resp_out (new responses there need collecting).
        chans = [self.cmd_in, self.resp_out]
        for entry in self._routes.values():
            chans.append(entry.adapter.cmd_in)
            chans.append(entry.adapter.resp_out)
        return chans

    def tick_program(self):
        """Tick closure plus :meth:`next_event`.

        Each tick ingests one command into the delay line, delivers a
        matured command to its adapter, collects one response round-robin
        over the adapters, and forwards a matured response.  The adapter
        list is cached and rebuilt only when a route is attached."""
        cmd_in = self.cmd_in
        resp_out = self.resp_out
        routes = self._routes
        cmd_delay = self._cmd_delay
        resp_delay = self._resp_delay
        state = {"n": len(routes), "adapters": list(routes.values())}

        def tick(cycle, self=self):
            if len(routes) != state["n"]:
                state["n"] = len(routes)
                state["adapters"] = list(routes.values())
            if cmd_in._pop_count < len(cmd_in._items):
                inst = cmd_in._items[cmd_in._pop_count]
                entry = routes.get((inst.system_id, inst.core_id))
                if entry is None:
                    raise SimulationError(
                        f"{self.name}: command for unknown core "
                        f"({inst.system_id}, {inst.core_id})"
                    )
                cmd_in.pop()
                cmd_delay.append((cycle + entry.latency, inst))
            if cmd_delay:
                ready_at, inst = cmd_delay[0]
                entry = routes[(inst.system_id, inst.core_id)]
                target = entry.adapter.cmd_in
                if ready_at <= cycle and (
                    len(target._items) + len(target._staged) < target.capacity
                ):
                    cmd_delay.popleft()
                    target.push(inst)
                    self.commands_routed += 1
            adapters = state["adapters"]
            n = len(adapters)
            if n:
                rr = self._resp_rr
                for k in range(n):
                    i = rr + k
                    if i >= n:
                        i -= n
                    entry = adapters[i]
                    source = entry.adapter.resp_out
                    if source._pop_count < len(source._items):
                        resp = source.pop()
                        resp_delay.append((cycle + entry.latency, resp))
                        self._resp_rr = (rr + k + 1) % n
                        break
            if resp_delay and resp_delay[0][0] <= cycle and (
                len(resp_out._items) + len(resp_out._staged) < resp_out.capacity
            ):
                resp_out.push(resp_delay.popleft()[1])
                self.responses_routed += 1

        return tick, self.next_event


class MmioFrontend(Component):
    """The AXI-MMIO command/response system (paper Figure 1a).

    The host (runtime model) writes 32-bit words into the command FIFO and
    polls the response FIFO; the frontend reassembles RoCC instructions and
    feeds the router.  ``mmio_word_cycles`` models the cost of one MMIO
    register access as seen from the fabric side.
    """

    # Optional fault injector (repro.faults): may eat whole responses off the
    # MMIO path, modelling a lost interrupt/register read on real hardware.
    _fault = None

    def __init__(self, router: CommandRouter, name: str = "mmio") -> None:
        super().__init__(name)
        self.router = router
        self.cmd_words: ChannelQueue[int] = ChannelQueue(16, f"{name}.cmdw")
        self.resp_words: ChannelQueue[int] = ChannelQueue(16, f"{name}.respw")
        self._partial: List[int] = []
        self.commands_forwarded = 0
        self.responses_forwarded = 0

    @property
    def metric_path(self) -> str:
        return "cmd/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("commands_forwarded", lambda: self.commands_forwarded)
        scope.bind("responses_forwarded", lambda: self.responses_forwarded)

    def tick(self, cycle: int) -> None:
        if self.cmd_words.can_pop() and self.router.cmd_in.can_push():
            self._partial.append(self.cmd_words.pop())
            if len(self._partial) == 6:
                self.router.cmd_in.push(RoccInstruction.decode_words(self._partial))
                self._partial.clear()
                self.commands_forwarded += 1
        if self.router.resp_out.can_pop() and self.resp_words.can_push(4):
            resp = self.router.resp_out.pop()
            hook = self._fault
            if hook is not None and hook.drop_response(cycle, resp):
                return  # response lost; the server's watchdog must recover
            for word in resp.encode_words():
                self.resp_words.push(word)
            self.responses_forwarded += 1

    def next_event(self, cycle: int) -> float:
        return NEVER  # purely reactive: word assembly and response encode pop channels

    #: Constant-NEVER hint — lets the selective scheduler skip the hint call.
    wake_only = True

    def wake_channels(self):
        # Bridges its own word FIFOs to the router's instruction queues.
        return [self.cmd_words, self.resp_words, self.router.cmd_in, self.router.resp_out]
