"""AXI interconnect nodes: arbitration/buffer nodes and pipeline stages.

Beethoven's generated memory network is a tree whose internal nodes are
buffers (Section II-B, Multi-Die Designs).  :class:`AxiBufferNode` is one such
node: it multiplexes N upstream masters onto one downstream port with
round-robin arbitration and ID remapping (upstream index bits are appended
above the master's own ID bits, the standard crossbar technique), and routes
responses back by stripping those bits.  :class:`AxiPipe` is a fixed-latency
register slice used for expensive links such as SLR crossings.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.axi.types import ARReq, AWReq, AxiPort, BResp, RBeat
from repro.noc.links import as_link
from repro.sim import NEVER, Component, SimulationError


def bits_for(n: int) -> int:
    """Bits needed to number ``n`` distinct upstreams (0 for a single one)."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


class AxiBufferNode(Component):
    """N-to-1 AXI mux with per-channel round-robin arbitration.

    ``child_id_bits`` is the ID width upstream masters use; remapped IDs are
    ``(upstream_index << child_id_bits) | upstream_id``.  The downstream port's
    parameterisation must have room for the extra bits — the elaborator checks
    this when it sizes the tree.
    """

    # Optional fault injector (repro.faults): filters R beats (corrupt/drop)
    # and B responses (drop) at this hop.  Class attribute so existing
    # constructions need no changes; a compiled FaultPlan installs instances.
    _fault = None

    def __init__(
        self,
        upstreams: List[AxiPort],
        downstream,
        child_id_bits: int,
        name: str = "axinode",
    ) -> None:
        super().__init__(name)
        if not upstreams:
            raise ValueError("buffer node needs at least one upstream")
        self.upstreams = upstreams
        self.down = as_link(downstream)
        self.child_id_bits = child_id_bits
        self.index_bits = bits_for(len(upstreams))
        total = child_id_bits + self.index_bits
        if total > self.down.port.params.id_bits:
            raise SimulationError(
                f"{name}: needs {total} ID bits downstream, "
                f"only {self.down.port.params.id_bits} available"
            )
        self._ar_rr = 0
        self._aw_rr = 0
        # (upstream_index, beats_remaining) in downstream AW order: AXI4 write
        # data may not interleave, so W is locked to this order.
        self._w_order: Deque[Tuple[int, int]] = deque()
        # Per-upstream count of outstanding W bursts already granted, so we
        # never forward an AW whose W data could deadlock the lock queue.
        self.forwarded = {"ar": 0, "aw": 0, "w": 0, "r": 0, "b": 0}
        # Contention accounting (repro.obs.attribution): cycles each channel
        # spent with an item ready to forward but the receiving side full.
        # ``_stall_since[ch] >= 0`` marks an open stall window; the window is
        # closed (and accrued) at the first tick the blocked side has room
        # again.  Stall windows only open while the blocking channels are
        # non-empty, so every open/close tick is executed under both
        # scheduling modes and the counters are mode-identical.
        self.stall_cycles = {"ar": 0, "aw": 0, "w": 0, "r": 0, "b": 0}
        self._stall_since = {"ar": -1, "aw": -1, "w": -1, "r": -1, "b": -1}

    @property
    def metric_path(self) -> str:
        return "noc/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        for ch in ("ar", "aw", "w", "r", "b"):
            scope.bind(f"forwarded_{ch}", lambda ch=ch: self.forwarded[ch])
            scope.bind(f"stall_{ch}_cycles", lambda ch=ch: self.stall_cycles[ch])
        scope.bind("upstreams", lambda: len(self.upstreams))

    def channels(self):
        return []  # ports are registered by the builder

    def wake_channels(self):
        # Reacts to requests arriving on any upstream port and to response
        # beats (or freed space) on the downstream port.
        chans = []
        for up in self.upstreams:
            chans.extend(up.channels())
        chans.extend(self.down.port.channels())
        return chans

    def tick_program(self):
        """Tick closure over the five channels; no hint, because the node is
        purely reactive (every action pops a visible channel item).

        AR and AW are arbitrated round-robin over the upstreams and remapped
        to ``(upstream_index << child_id_bits) | id``; W follows AW order
        (AXI4 write data may not interleave); R and B are routed back by
        stripping the index bits.  Each channel also accrues the cycles it
        spent with an item ready but the receiving side full.
        """
        ups = self.upstreams
        n = len(ups)
        up_ar = [u.ar for u in ups]
        up_aw = [u.aw for u in ups]
        up_w = [u.w for u in ups]
        up_r = [u.r for u in ups]
        up_b = [u.b for u in ups]
        down = self.down
        d = down.port
        d_ar, d_aw, d_w, d_r, d_b = d.ar, d.aw, d.w, d.r, d.b
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w
        child_bits = self.child_id_bits
        child_mask = (1 << child_bits) - 1
        w_order = self._w_order
        forwarded = self.forwarded
        stall_cycles = self.stall_cycles
        stall_since = self._stall_since
        name = self.name

        def tick(cycle, self=self):
            # -- AR arbitration -------------------------------------------
            if len(d_ar._items) + len(d_ar._staged) < d_ar.capacity:
                since = stall_since["ar"]
                if since >= 0:
                    stall_cycles["ar"] += cycle - since
                    stall_since["ar"] = -1
                rr = self._ar_rr
                for k in range(n):
                    idx = rr + k
                    if idx >= n:
                        idx -= n
                    chan = up_ar[idx]
                    if chan._pop_count < len(chan._items):
                        req = chan.pop()
                        push_ar(
                            cycle,
                            ARReq(
                                (idx << child_bits) | req.axi_id,
                                req.addr,
                                req.length,
                                req.tag,
                            ),
                        )
                        idx += 1
                        self._ar_rr = idx if idx < n else 0
                        forwarded["ar"] += 1
                        break
            elif stall_since["ar"] < 0:
                for chan in up_ar:
                    if chan._pop_count < len(chan._items):
                        stall_since["ar"] = cycle
                        break
            # -- AW arbitration -------------------------------------------
            if len(d_aw._items) + len(d_aw._staged) < d_aw.capacity:
                since = stall_since["aw"]
                if since >= 0:
                    stall_cycles["aw"] += cycle - since
                    stall_since["aw"] = -1
                rr = self._aw_rr
                for k in range(n):
                    idx = rr + k
                    if idx >= n:
                        idx -= n
                    chan = up_aw[idx]
                    if chan._pop_count < len(chan._items):
                        req = chan.pop()
                        push_aw(
                            cycle,
                            AWReq(
                                (idx << child_bits) | req.axi_id,
                                req.addr,
                                req.length,
                                req.tag,
                            ),
                        )
                        w_order.append((idx, req.length))
                        idx += 1
                        self._aw_rr = idx if idx < n else 0
                        forwarded["aw"] += 1
                        break
            elif stall_since["aw"] < 0:
                for chan in up_aw:
                    if chan._pop_count < len(chan._items):
                        stall_since["aw"] = cycle
                        break
            # -- W streaming (locked to AW order) -------------------------
            if w_order:
                idx, remaining = w_order[0]
                chan = up_w[idx]
                if len(d_w._items) + len(d_w._staged) < d_w.capacity:
                    since = stall_since["w"]
                    if since >= 0:
                        stall_cycles["w"] += cycle - since
                        stall_since["w"] = -1
                    if chan._pop_count < len(chan._items):
                        beat = chan.pop()
                        push_w(cycle, beat)
                        remaining -= 1
                        forwarded["w"] += 1
                        if beat.last:
                            if remaining != 0:
                                raise SimulationError(
                                    f"{name}: W burst length mismatch"
                                )
                            w_order.popleft()
                        else:
                            w_order[0] = (idx, remaining)
                elif stall_since["w"] < 0 and chan._pop_count < len(chan._items):
                    stall_since["w"] = cycle
            # -- R routing ------------------------------------------------
            if d_r._pop_count < len(d_r._items):
                beat = d_r._items[d_r._pop_count]
                idx = beat.axi_id >> child_bits
                if idx >= n:
                    raise SimulationError(
                        f"{name}: R beat for unknown upstream {idx}"
                    )
                chan = up_r[idx]
                if len(chan._items) + len(chan._staged) < chan.capacity:
                    since = stall_since["r"]
                    if since >= 0:
                        stall_cycles["r"] += cycle - since
                        stall_since["r"] = -1
                    d_r.pop()
                    data, err = beat.data, beat.err
                    hook = self._fault
                    dropped = False
                    if hook is not None:
                        verdict, data, err = hook.filter_r(cycle, beat)
                        dropped = verdict == "drop"
                    if not dropped:
                        chan.push(
                            RBeat(beat.axi_id & child_mask, data, beat.last,
                                  beat.tag, err)
                        )
                        forwarded["r"] += 1
                elif stall_since["r"] < 0:
                    stall_since["r"] = cycle
            # -- B routing ------------------------------------------------
            if d_b._pop_count < len(d_b._items):
                resp = d_b._items[d_b._pop_count]
                idx = resp.axi_id >> child_bits
                if idx >= n:
                    raise SimulationError(
                        f"{name}: B resp for unknown upstream {idx}"
                    )
                chan = up_b[idx]
                if len(chan._items) + len(chan._staged) < chan.capacity:
                    since = stall_since["b"]
                    if since >= 0:
                        stall_cycles["b"] += cycle - since
                        stall_since["b"] = -1
                    d_b.pop()
                    hook = self._fault
                    if not (hook is not None and hook.drop_b(cycle, resp)):
                        chan.push(BResp(resp.axi_id & child_mask, resp.okay,
                                        resp.tag))
                        forwarded["b"] += 1
                elif stall_since["b"] < 0:
                    stall_since["b"] = cycle

        return tick, None


class AxiPipe(Component):
    """A fixed extra-latency register slice on every AXI channel.

    Models the deep buffering Beethoven inserts on SLR crossings.  Items
    popped from the upstream port become pushable downstream ``latency``
    cycles later (on top of the usual one-cycle channel registration).
    """

    def __init__(self, upstream: AxiPort, downstream, latency: int, name: str = "axipipe") -> None:
        super().__init__(name)
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.up = upstream
        self.down = as_link(downstream)
        self.latency = latency
        self._delay: dict = {ch: deque() for ch in ("ar", "aw", "w", "r", "b")}

    @property
    def metric_path(self) -> str:
        return "noc/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("latency", lambda: self.latency)
        for ch in ("ar", "aw", "w", "r", "b"):
            scope.bind(f"in_flight_{ch}", lambda ch=ch: len(self._delay[ch]))

    def wake_channels(self):
        # Ingests from both port faces and drains into both, so traffic (or
        # freed space) on either side is a wake condition.
        return list(self.up.channels()) + list(self.down.port.channels())

    def tick_program(self):
        """Tick and hint closures over the five delay lines.

        Each tick ingests every visible item on the five channels into its
        delay line (due ``latency`` cycles later), then drains each line's
        matured head into its destination if it has room.  The hint sleeps
        until the oldest in-flight item matures; ingest is channel-reactive.
        """
        up = self.up
        down = self.down
        d = down.port
        latency = self.latency
        delay = self._delay
        q_ar, q_aw, q_w, q_r, q_b = (
            delay["ar"], delay["aw"], delay["w"], delay["r"], delay["b"]
        )
        u_ar, u_aw, u_w, u_r, u_b = up.ar, up.aw, up.w, up.r, up.b
        d_ar, d_aw, d_w, d_r, d_b = d.ar, d.aw, d.w, d.r, d.b
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w

        def tick(cycle):
            due = cycle + latency
            if u_ar._pop_count < len(u_ar._items):
                q_ar.append((due, u_ar.pop()))
            if u_aw._pop_count < len(u_aw._items):
                q_aw.append((due, u_aw.pop()))
            if u_w._pop_count < len(u_w._items):
                q_w.append((due, u_w.pop()))
            if d_r._pop_count < len(d_r._items):
                q_r.append((due, d_r.pop()))
            if d_b._pop_count < len(d_b._items):
                q_b.append((due, d_b.pop()))
            if q_ar and q_ar[0][0] <= cycle and (
                len(d_ar._items) + len(d_ar._staged) < d_ar.capacity
            ):
                push_ar(cycle, q_ar.popleft()[1])
            if q_aw and q_aw[0][0] <= cycle and (
                len(d_aw._items) + len(d_aw._staged) < d_aw.capacity
            ):
                push_aw(cycle, q_aw.popleft()[1])
            if q_w and q_w[0][0] <= cycle and (
                len(d_w._items) + len(d_w._staged) < d_w.capacity
            ):
                push_w(cycle, q_w.popleft()[1])
            if q_r and q_r[0][0] <= cycle and (
                len(u_r._items) + len(u_r._staged) < u_r.capacity
            ):
                u_r.push(q_r.popleft()[1])
            if q_b and q_b[0][0] <= cycle and (
                len(u_b._items) + len(u_b._staged) < u_b.capacity
            ):
                u_b.push(q_b.popleft()[1])

        queues = (q_ar, q_aw, q_w, q_r, q_b)

        def next_event(cycle):
            best = NEVER
            for q in queues:
                if q:
                    due = q[0][0]
                    if due < best:
                        best = due
            if best < cycle:
                return cycle
            return best

        return tick, next_event
