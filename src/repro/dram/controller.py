"""AXI4 memory controller over the bank-level DRAM model.

This is the slave every Beethoven memory subsystem ultimately talks to.  It
implements the mechanisms the paper's microbenchmark analysis hinges on:

* **Per-ID transaction serialisation** — transactions sharing an AXI ID are
  scheduled strictly in order (the behaviour of the Xilinx DDR controller the
  paper cites); transactions on *different* IDs are scheduled out of order by
  an FR-FCFS column scheduler.  This is why Beethoven's transaction-level
  parallelism (TLP, splitting one logical transfer over several IDs) wins and
  why HLS's single-ID streams suffer under load.
* **Row-buffer locality** — banks pay precharge+activate to switch rows, so
  fine-grained interleaving of many streams costs bandwidth.
* **Data-bus direction grouping** — the shared data bus pays a turnaround
  penalty when switching between reads and writes; the scheduler groups
  same-direction columns like real controllers do.
* **In-order per-ID return** — read data and write responses are returned in
  issue order within an ID (an AXI requirement), so a slow transaction blocks
  later same-ID transactions' data even when their columns already completed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import BResp, RBeat
from repro.dram.bank import Bank
from repro.dram.store import MemoryStore
from repro.dram.timing import DramTiming
from repro.obs.registry import Counter
from repro.sim import Component


@dataclass(slots=True)
class _ReadTxn:
    tag: int
    axi_id: int
    addr: int
    length: int
    accept_cycle: int
    cols_enqueued: int = 0
    cols_done: int = 0
    beats_sent: int = 0
    # (ready_cycle, data, err) per beat; err marks a modeled ECC failure.
    beats: List[Optional[Tuple[int, bytes, bool]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.beats = [None] * self.length


@dataclass(slots=True)
class _WriteTxn:
    tag: int
    axi_id: int
    addr: int
    length: int
    accept_cycle: int
    wbeats: List = field(default_factory=list)
    data_complete: bool = False
    cols_enqueued: int = 0
    cols_done: int = 0


@dataclass(slots=True)
class _ColReq:
    txn: object
    beat_idx: int
    addr: int
    bank: int
    row: int
    is_write: bool
    enqueued_cycle: int


class MemoryController(Component):
    """FR-FCFS DDR controller with an AXI4 slave frontend."""

    # Optional fault injector (repro.faults): filters column reads, flipping
    # bits and marking the beat ``err`` (the modeled ECC detects the flip).
    _fault = None

    def __init__(
        self,
        mport: MonitoredAxiPort,
        timing: DramTiming,
        store: Optional[MemoryStore] = None,
        name: str = "mc",
    ) -> None:
        super().__init__(name)
        self.mport = mport
        self.port = mport.port
        self.timing = timing
        if self.port.params.beat_bytes != timing.col_bytes:
            raise ValueError(
                "AXI beat width must match the DRAM column width "
                f"({self.port.params.beat_bytes} != {timing.col_bytes})"
            )
        self.store = store if store is not None else MemoryStore(timing.col_bytes)
        self.banks = [Bank(timing) for _ in range(timing.n_banks)]

        self._read_txns: Dict[int, _ReadTxn] = {}
        self._write_txns: Dict[int, _WriteTxn] = {}
        self._id_read_issue: Dict[int, Deque[_ReadTxn]] = {}
        self._id_read_return: Dict[int, Deque[_ReadTxn]] = {}
        self._id_write_issue: Dict[int, Deque[_WriteTxn]] = {}
        self._id_write_return: Dict[int, Deque[_WriteTxn]] = {}
        self._writes_awaiting_data: Deque[_WriteTxn] = deque()
        # Per-ID, per-direction transaction pipelines: AXI orders same-ID
        # transactions within each direction (reads with reads, writes with
        # writes), and the controller processes at most ``per_id_txn_limit``
        # of each in order.  Short-burst single-ID masters (HLS) therefore
        # expose serialisation bubbles and fine-grained read/write bus
        # turnaround that multi-ID masters hide.
        self._id_read_pipe: Dict[int, Deque[object]] = {}
        self._id_write_pipe: Dict[int, Deque[object]] = {}
        self._sched: List[_ColReq] = []
        self._bus_free_at = 0
        self._bus_dir_write = False
        self._dir_streak = 0
        self._return_rr: List[int] = []  # round-robin order of IDs for R channel
        self._return_rr_pos = 0

        # Statistics: typed counters (int-like), adopted by the metric
        # registry when this controller joins a simulator.
        self.stats = {
            "bus_cycles": Counter(),
            "read_cols": Counter(),
            "write_cols": Counter(),
            "turnarounds": Counter(),
            "row_hits": Counter(),
            "row_misses": Counter(),
            "refreshes": Counter(),
            # Contention accounting (repro.obs.attribution): activations that
            # had to close an already-open row, and the total cycles column
            # commands sat in the scheduler window before winning the bus.
            "row_conflicts": Counter(),
            "queue_wait_cycles": Counter(),
        }

    @property
    def metric_path(self) -> str:
        return "dram/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        for key, ctr in self.stats.items():
            scope.attach(key, ctr)
        scope.bind("outstanding_txns", self._outstanding)
        scope.bind("sched_queue_depth", lambda: len(self._sched))
        scope.bind(
            "activations", lambda: sum(b.activations for b in self.banks)
        )
        # Per-bank row-buffer outcomes, for the contention accounter.  Read
        # through self: a snapshot restore replaces the bank objects.
        for i in range(len(self.banks)):
            scope.bind(f"bank{i}/activations", lambda i=i: self.banks[i].activations)
            scope.bind(f"bank{i}/row_hits", lambda i=i: self.banks[i].row_hits)
            scope.bind(f"bank{i}/row_misses", lambda i=i: self.banks[i].row_misses)

    # ------------------------------------------------------------------ helpers
    def _outstanding(self) -> int:
        return len(self._read_txns) + len(self._write_txns)

    def _note_id(self, axi_id: int) -> None:
        if axi_id not in self._return_rr:
            self._return_rr.append(axi_id)

    def _may_start(self, pipes: Dict[int, Deque[object]], axi_id: int, txn: object) -> bool:
        """A transaction enters the DRAM pipeline only when it is among the
        first ``per_id_txn_limit`` unretired same-ID, same-direction
        transactions (the controller's in-order processing window)."""
        pipeline = pipes.get(axi_id)
        if pipeline is None:
            return True
        limit = self.timing.per_id_txn_limit
        for i, entry in enumerate(pipeline):
            if i >= limit:
                return False
            if entry is txn:
                return True
        return True  # not tracked (should not happen) — fail open

    def _retire(self, pipes: Dict[int, Deque[object]], axi_id: int, txn: object) -> None:
        pipeline = pipes.get(axi_id)
        if pipeline is not None:
            try:
                pipeline.remove(txn)
            except ValueError:
                pass

    # ------------------------------------------------------------- behaviour
    def wake_channels(self):
        # The AXI slave port channels belong to the monitor wrapper, not this
        # component; request arrivals (and freed R/B space) on them are the
        # only external events that unblock the controller.
        return self.port.channels()

    def tick_program(self):
        """The controller's tick and wake hint, as closures.

        One tick runs seven phases in order: refresh, request accept,
        per-ID column enqueue, bank prep fused with the FR-FCFS column pick,
        column issue, then round-robin read-data and write-response return.
        Channel endpoints, bank objects, timing constants and stat counters
        are captured as locals.
        """
        timing = self.timing
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        t_cl = timing.t_cl
        t_ras = timing.t_ras
        t_rcd = timing.t_rcd
        t_rp = timing.t_rp
        t_bus_turn = timing.t_bus_turn
        streak_limit = timing.direction_streak
        sched_depth = timing.sched_queue_depth
        max_txns = timing.max_outstanding_txns
        beat_bytes = timing.col_bytes
        decompose = timing.decompose
        banks = self.banks
        port = self.port
        ar, aw, w, r, b = port.ar, port.aw, port.w, port.r, port.b
        push_r, push_b = self.mport.push_r, self.mport.push_b
        sched = self._sched
        read_txns, write_txns = self._read_txns, self._write_txns
        id_read_issue = self._id_read_issue
        id_write_issue = self._id_write_issue
        id_read_return = self._id_read_return
        id_write_return = self._id_write_return
        id_read_pipe = self._id_read_pipe
        id_write_pipe = self._id_write_pipe
        awaiting = self._writes_awaiting_data
        store_read, store_write = self.store.read, self.store.write
        may_start, retire, note_id = self._may_start, self._retire, self._note_id
        rr = self._return_rr
        # [n_rr_ids, n_read_return_keys, n_write_return_keys, read_qs, write_qs]
        rr_cache: list = [0, -1, -1, (), ()]
        stats = self.stats
        s_bus = stats["bus_cycles"]
        s_rcols = stats["read_cols"]
        s_wcols = stats["write_cols"]
        s_turn = stats["turnarounds"]
        s_hits = stats["row_hits"]
        s_miss = stats["row_misses"]
        s_refresh = stats["refreshes"]
        s_conflict = stats["row_conflicts"]
        s_qwait = stats["queue_wait_cycles"]

        def tick(cycle, self=self):
            # -- refresh --------------------------------------------------
            if cycle and not cycle % t_refi:
                blocked = cycle + t_rfc
                for bank in banks:
                    if bank.ready_at < blocked:
                        bank.ready_at = blocked
                    bank.open_row = None
                s_refresh.value += 1
            # -- accept ---------------------------------------------------
            if ar._pop_count < len(ar._items) and (
                len(read_txns) + len(write_txns) < max_txns
            ):
                req = ar.pop()
                txn = _ReadTxn(req.tag, req.axi_id, req.addr, req.length, cycle)
                read_txns[req.tag] = txn
                id_read_issue.setdefault(req.axi_id, deque()).append(txn)
                id_read_return.setdefault(req.axi_id, deque()).append(txn)
                id_read_pipe.setdefault(req.axi_id, deque()).append(txn)
                note_id(req.axi_id)
            if aw._pop_count < len(aw._items) and (
                len(read_txns) + len(write_txns) < max_txns
            ):
                req = aw.pop()
                wtxn = _WriteTxn(req.tag, req.axi_id, req.addr, req.length, cycle)
                write_txns[req.tag] = wtxn
                id_write_issue.setdefault(req.axi_id, deque()).append(wtxn)
                id_write_return.setdefault(req.axi_id, deque()).append(wtxn)
                id_write_pipe.setdefault(req.axi_id, deque()).append(wtxn)
                awaiting.append(wtxn)
                note_id(req.axi_id)
            if awaiting and w._pop_count < len(w._items):
                head = awaiting[0]
                beat = w.pop()
                head.wbeats.append(beat)
                if beat.last:
                    head.data_complete = True
                    awaiting.popleft()
            # -- enqueue columns ------------------------------------------
            budget = 8
            n_sched = len(sched)
            if n_sched < sched_depth:
                for axi_id, q in id_read_issue.items():
                    while q:
                        txn = q[0]
                        enq = txn.cols_enqueued
                        if enq >= txn.length:
                            q.popleft()
                            continue
                        if enq == 0 and not may_start(id_read_pipe, axi_id, txn):
                            break
                        addr = txn.addr + enq * beat_bytes
                        bank_i, row, _col = decompose(addr)
                        sched.append(_ColReq(txn, enq, addr, bank_i, row, False, cycle))
                        n_sched += 1
                        enq += 1
                        txn.cols_enqueued = enq
                        budget -= 1
                        if enq >= txn.length:
                            q.popleft()
                            break
                        if not budget or n_sched >= sched_depth:
                            break
                    if not budget or n_sched >= sched_depth:
                        break
            if budget and n_sched < sched_depth:
                for axi_id, q in id_write_issue.items():
                    while q:
                        txn = q[0]
                        enq = txn.cols_enqueued
                        if enq >= txn.length:
                            q.popleft()
                            continue
                        if enq >= len(txn.wbeats):
                            break  # cut-through: wait for the W beat
                        if enq == 0 and not may_start(id_write_pipe, axi_id, txn):
                            break
                        addr = txn.addr + enq * beat_bytes
                        bank_i, row, _col = decompose(addr)
                        sched.append(_ColReq(txn, enq, addr, bank_i, row, True, cycle))
                        n_sched += 1
                        enq += 1
                        txn.cols_enqueued = enq
                        budget -= 1
                        if enq >= txn.length:
                            q.popleft()
                            break
                        if not budget or n_sched >= sched_depth:
                            break
                    if not budget or n_sched >= sched_depth:
                        break
            if sched:
                # -- prep banks + FR-FCFS pick, one fused walk ------------
                # Oldest-first per bank, at most two precharge+activate
                # commands per cycle: a bank's prep decision happens at its
                # first occurrence in ``sched``, which precedes (or is) any
                # entry of that bank the issue check visits, so every
                # readiness test sees post-prep bank state.  Switching rows
                # costs t_rp + t_rcd and waits out t_ras.  The pick is the
                # oldest ready column in the current bus direction (while
                # the direction streak allows), else the oldest ready one;
                # the walk stops once the pick is settled and prep can do
                # no more.
                preps = 2
                seen = 0
                full_mask = (1 << len(banks)) - 1
                can_issue = cycle >= self._bus_free_at
                dir_write = self._bus_dir_write
                want_same = self._dir_streak < streak_limit
                pick = -1
                first_ready = -1
                for i, req in enumerate(sched):
                    bank = banks[req.bank]
                    row = req.row
                    bit = 1 << req.bank
                    if not seen & bit:
                        seen |= bit
                        if preps and bank.open_row != row and cycle >= bank.ready_at:
                            prev_row = bank.open_row
                            if prev_row is None:
                                cost = t_rcd
                                can_prep = True
                            elif cycle >= bank.activated_at + t_ras:
                                cost = t_rcd + t_rp
                                can_prep = True
                            else:
                                can_prep = False  # t_ras not yet satisfied
                            if can_prep:
                                if prev_row is not None:
                                    s_conflict.value += 1
                                bank.open_row = row
                                bank.ready_at = cycle + cost
                                bank.activated_at = cycle + cost - t_rcd
                                bank.activations += 1
                                bank.row_misses += 1
                                s_miss.value += 1
                                preps -= 1
                    if (
                        can_issue
                        and pick < 0
                        and bank.open_row == row
                        and cycle >= bank.ready_at
                    ):
                        if first_ready < 0:
                            first_ready = i
                            if not want_same:
                                pick = i
                        if pick < 0 and req.is_write == dir_write:
                            pick = i
                    if (pick >= 0 or not can_issue) and (
                        not preps or seen == full_mask
                    ):
                        break
                if can_issue:
                    if pick < 0:
                        pick = first_ready  # no same-direction column ready
                    if pick >= 0:
                        req = sched[pick]
                        is_write = req.is_write
                        if is_write != dir_write:
                            self._bus_dir_write = is_write
                            self._dir_streak = 1
                            s_turn.value += 1
                            self._bus_free_at = cycle + 1 + t_bus_turn
                        else:
                            self._dir_streak += 1
                            self._bus_free_at = cycle + 1
                        s_bus.value += 1
                        s_qwait.value += cycle - req.enqueued_cycle
                        del sched[pick]
                        bank = banks[req.bank]
                        bank.row_hits += 1
                        s_hits.value += 1
                        txn = req.txn
                        if is_write:
                            beat = txn.wbeats[req.beat_idx]
                            store_write(req.addr, beat.data, beat.strb)
                            txn.cols_done += 1
                            s_wcols.value += 1
                        else:
                            data = store_read(req.addr, beat_bytes)
                            err = False
                            hook = self._fault
                            if hook is not None:
                                data, err = hook.filter_read(cycle, req.addr, data)
                            txn.beats[req.beat_idx] = (cycle + t_cl, data, err)
                            txn.cols_done += 1
                            s_rcols.value += 1
            # -- return read data -----------------------------------------
            # ``rr`` only grows (note_id) and the per-ID return deques are
            # created once and never deleted, so the rr-aligned queue lists
            # are rebuilt only when one of those key counts changes.
            n_ids = len(rr)
            if n_ids:
                if (
                    rr_cache[0] != n_ids
                    or rr_cache[1] != len(id_read_return)
                    or rr_cache[2] != len(id_write_return)
                ):
                    rr_cache[0] = n_ids
                    rr_cache[1] = len(id_read_return)
                    rr_cache[2] = len(id_write_return)
                    rr_cache[3] = [id_read_return.get(i) for i in rr]
                    rr_cache[4] = [id_write_return.get(i) for i in rr]
                rr_read_qs = rr_cache[3]
                rr_write_qs = rr_cache[4]
            if n_ids and len(r._items) + len(r._staged) < r.capacity:
                pos = self._return_rr_pos % n_ids
                for _ in range(n_ids):
                    axi_id = rr[pos]
                    q = rr_read_qs[pos]
                    pos += 1
                    if pos == n_ids:
                        pos = 0
                    if not q:
                        continue
                    txn = q[0]
                    sent = txn.beats_sent
                    entry = txn.beats[sent]
                    if entry is None or entry[0] > cycle:
                        continue
                    last = sent == txn.length - 1
                    push_r(
                        cycle,
                        RBeat(
                            axi_id=axi_id,
                            data=entry[1],
                            last=last,
                            tag=txn.tag,
                            err=entry[2],
                        ),
                    )
                    txn.beats_sent = sent + 1
                    if last:
                        q.popleft()
                        del read_txns[txn.tag]
                        retire(id_read_pipe, axi_id, txn)
                    self._return_rr_pos += 1
                    break
            # -- return write responses -----------------------------------
            if n_ids and len(b._items) + len(b._staged) < b.capacity:
                pos = self._return_rr_pos % n_ids
                for _ in range(n_ids):
                    axi_id = rr[pos]
                    q = rr_write_qs[pos]
                    pos += 1
                    if pos == n_ids:
                        pos = 0
                    if not q:
                        continue
                    txn = q[0]
                    if txn.cols_done < txn.length:
                        continue
                    push_b(cycle, BResp(axi_id=axi_id, okay=True, tag=txn.tag))
                    q.popleft()
                    del write_txns[txn.tag]
                    retire(id_write_pipe, axi_id, txn)
                    break

        def next_event(cycle):
            # Conservative: wake every cycle while any transaction is
            # outstanding (an exact walk of the transaction tables costs
            # more than the no-op ticks it saves), else sleep to the next
            # refresh edge, which fires whether or not traffic is pending.
            if read_txns or write_txns or sched:
                return cycle
            return cycle if (cycle and not cycle % t_refi) else (cycle // t_refi + 1) * t_refi

        return tick, next_event

    def debug_state(self):
        if not self._read_txns and not self._write_txns and not self._sched:
            return None
        reads = [
            {"tag": t.tag, "axi_id": t.axi_id, "addr": hex(t.addr),
             "beats_sent": t.beats_sent, "length": t.length}
            for t in list(self._read_txns.values())[:8]
        ]
        writes = [
            {"tag": t.tag, "axi_id": t.axi_id, "addr": hex(t.addr),
             "cols_done": t.cols_done, "length": t.length,
             "data_complete": t.data_complete}
            for t in list(self._write_txns.values())[:8]
        ]
        return {
            "reads_in_flight": len(self._read_txns),
            "writes_in_flight": len(self._write_txns),
            "sched_queue": len(self._sched),
            "awaiting_w_data": len(self._writes_awaiting_data),
            "bus_free_at": self._bus_free_at,
            "reads": reads,
            "writes": writes,
        }

    # ------------------------------------------------------------------ analysis
    def idle(self) -> bool:
        return (
            not self._read_txns
            and not self._write_txns
            and not self._sched
            and not len(self.port.ar)
            and not len(self.port.aw)
            and not len(self.port.w)
        )

    def bus_utilisation(self, cycles: int) -> float:
        return self.stats["bus_cycles"] / max(cycles, 1)

    def report(self, cycles: int, clock_mhz: float = 250.0) -> Dict[str, float]:
        """DRAMsim3-style channel summary over ``cycles`` of simulation."""
        beat = self.timing.col_bytes
        seconds = cycles / (clock_mhz * 1e6) if cycles else 1.0
        total_accesses = self.stats["read_cols"] + self.stats["write_cols"]
        activations = sum(b.activations for b in self.banks)
        return {
            "read_bytes": self.stats["read_cols"] * beat,
            "write_bytes": self.stats["write_cols"] * beat,
            "bandwidth_gbps": total_accesses * beat / seconds / 1e9,
            "bus_utilisation": self.bus_utilisation(cycles),
            "row_hit_rate": (
                1.0 - activations / total_accesses if total_accesses else 0.0
            ),
            "activations": float(activations),
            "turnarounds": float(self.stats["turnarounds"]),
            "refresh_overhead": self.stats["refreshes"]
            * self.timing.t_rfc
            / max(cycles, 1),
        }
