"""The FPGA management runtime server (paper Section II-C1).

A userspace server arbitrates fair access to the command/response bus: every
host command acquires the server lock, is serialised through the MMIO
interface one 32-bit word at a time, and the server polls the MMIO response
registers while commands are in flight.  All three costs are platform
parameters, and their serialisation is what produces the ideal-vs-measured
gap for low-latency kernels in the paper's Figure 6 ("low-latency operations
have much higher contention for the runtime server lock").

The server also hosts the *command watchdog* (repro.faults): when a
:class:`WatchdogConfig` with a deadline is installed, every in-flight command
carries a deadline; commands past it are timed out, retried with capped
exponential backoff when idempotent, and cores that keep missing deadlines
are quarantined so the host can degrade gracefully instead of hanging.  With
the default (disabled) config the watchdog adds no behaviour and no cost.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.command.rocc import RoccInstruction, RoccResponse
from repro.command.router import MmioFrontend
from repro.faults.errors import CommandTimeout, FaultedResponse
from repro.obs.registry import Counter, Histogram
from repro.platforms.base import HostInterface
from repro.sim import NEVER, Component


@dataclass
class WatchdogConfig:
    """Deadline/retry/quarantine policy for in-flight commands.

    ``timeout_cycles=None`` (the default) disables the watchdog entirely —
    the server then behaves exactly as before this layer existed.
    """

    #: Cycles a dispatched command may stay un-responded before timing out.
    timeout_cycles: Optional[int] = None
    #: Retries per command (beyond the first attempt) before giving up.
    max_retries: int = 3
    #: First retry waits this long; each further retry doubles it.
    backoff_base_cycles: int = 256
    #: Exponential backoff is capped here.
    backoff_cap_cycles: int = 16384
    #: Timeouts a core may accumulate before it is quarantined.
    quarantine_strikes: int = 3

    @property
    def enabled(self) -> bool:
        return self.timeout_cycles is not None and self.timeout_cycles > 0

    def backoff_cycles(self, attempts: int) -> int:
        """Backoff before attempt ``attempts + 1`` (attempts >= 1)."""
        return min(self.backoff_base_cycles << (attempts - 1), self.backoff_cap_cycles)


@dataclass
class CommandContext:
    """One logical host command, as plain data.

    :meth:`FpgaHandle.call` creates one per command and the server carries
    it through its queues, waiter FIFOs and retry heap.  It holds no
    callables: the issuing handle and the command's future are objects the
    snapshot reference table names, so a server holding commands pickles
    as it is.  ``key`` is the core the command was last routed to;
    ``core_idx`` is the core the caller asked for, where rerouting restarts.
    """

    handle: Any  # the issuing FpgaHandle
    future: Any  # the command's ResponseHandle
    key: Tuple[int, int]
    label: str = ""
    retryable: bool = True
    attempts: int = 1
    #: Position of ``future`` in the handle's call order (1-based).
    uid: int = 0
    system_id: int = 0
    io_index: int = 0
    core_idx: int = 0
    #: The command fields packed into (rs1, rs2) chunks.
    chunks: List[Tuple[int, int]] = field(default_factory=list)
    client: int = 0
    tenant: str = ""
    batch: Optional[int] = None

    def resubmit(self) -> None:
        """Re-issue the command onto the next healthy core."""
        self.handle._submit_command(self)

    def fail(self, exc: Exception) -> None:
        """Settle the future with a terminal typed error."""
        self.future._fail(exc)

    def respond(self, resp: RoccResponse) -> None:
        """Settle the command with its response.

        A response whose data the fault layer poisoned (detected
        corruption) is retried while the watchdog's retry budget lasts and
        fails typed after that, never returning suspect data.
        """
        handle = self.handle
        faults = handle.faults
        if faults is not None:
            poison = faults.take_poison(self.key)
            if poison:
                if self.retryable and self.attempts - 1 < handle.server.watchdog.max_retries:
                    self.attempts += 1
                    handle.server.retries += 1
                    try:
                        self.resubmit()
                    except Exception as exc:
                        self.fail(exc)
                    return
                self.fail(
                    FaultedResponse(
                        f"command {self.label!r} on core {self.key} completed "
                        f"with {len(poison)} detected data fault(s)",
                        key=self.key,
                        attempts=self.attempts,
                        events=poison,
                    )
                )
                return
            if self.attempts > 1:
                faults.note_recovery(
                    handle.design.sim.cycle,
                    "runtime/handle",
                    f"{self.label} ok after {self.attempts} attempts",
                )
        self.future._note_completion_cycle(handle.design.sim.cycle)
        self.future._complete(resp)


@dataclass
class _Waiter:
    """One in-flight command awaiting its response."""

    ctx: CommandContext
    span_id: int = 0
    deadline: float = NEVER


@dataclass
class PendingCommand:
    words: List[int]
    key: Tuple[int, int]  # (system_id, core_id)
    enqueue_cycle: int = 0
    client: int = 0
    dispatch_start: Optional[int] = None
    dispatch_end: Optional[int] = None
    span_id: int = 0  # observability root span (0 = untracked)
    #: The command record; only the completing chunk of a multi-chunk
    #: command carries it (and expects a response).
    ctx: Optional[CommandContext] = None
    #: Per-client submission sequence number (FIFO-per-client guarantee).
    seq: int = 0
    #: Batch id from the serving layer's scheduler; consecutive commands of
    #: one (client, batch) pair skip the lock re-acquisition cost.
    batch: Optional[int] = None


class RuntimeServer(Component):
    """Serialises host commands onto the MMIO frontend and polls responses."""

    #: Platform and watchdog configuration: set by the rebuild, not state.
    _snapshot_exclude = ("host", "watchdog")

    def __init__(
        self,
        mmio: MmioFrontend,
        host: HostInterface,
        handle,
        name: str = "server",
        spans=None,
        watchdog: Optional[WatchdogConfig] = None,
        tracer=None,
    ) -> None:
        super().__init__(name)
        self.mmio = mmio
        self.host = host
        #: The FpgaHandle this server runs for: quarantined cores join its
        #: degraded set, and its futures are named in snapshots.
        self.handle = handle
        # Optional CommandSpanTracker: assigns IDs to host commands here and
        # follows them through dispatch, delivery, execution, and response.
        self.spans = spans
        self.watchdog = watchdog if watchdog is not None else WatchdogConfig()
        self.tracer = tracer
        # Fair arbitration: one command queue per client process, served
        # round-robin (the "arbitrating fair access to the command-response
        # bus" of Section II-C1).  Within one client, dispatch order is a
        # *guaranteed* FIFO: each submission is stamped with a per-client
        # sequence number and `_dispatch` checks monotonicity on every pop
        # (`fifo_violations` must stay 0 — tests assert it).
        self._queues: Dict[int, Deque[PendingCommand]] = {}
        self._client_rr: List[int] = []
        self._rr_pos = 0
        self._client_seq: Dict[int, int] = {}
        self._dispatched_seq: Dict[int, int] = {}
        # (client, batch) of the last fully dispatched batched command; the
        # next command continues the batch iff it matches.
        self._last_batch: Optional[Tuple[int, int]] = None
        self._current: Optional[PendingCommand] = None
        self._words_left: List[int] = []
        self._next_word_cycle = 0
        self._lock_until = 0
        self._next_poll = 0
        self._resp_words: List[int] = []
        # key -> FIFO of in-flight waiters (per-core responses are ordered).
        self._waiters: Dict[Tuple[int, int], Deque[_Waiter]] = {}
        # Matured-retry min-heap of (ready_cycle, seq, ctx).
        self._retry_heap: List[Tuple[int, int, CommandContext]] = []
        self._retry_seq = 0
        self._strikes: Dict[Tuple[int, int], int] = {}
        #: Cores the watchdog has given up on; the handle reroutes around them.
        self.quarantined: Set[Tuple[int, int]] = set()
        # Statistics for the contention analysis.  Typed metrics compare and
        # accumulate like ints, so call sites and tests read them unchanged.
        self.commands_sent = Counter()
        self.responses_received = Counter()
        self.lock_wait_cycles = Counter()
        self.busy_cycles = Counter()
        self.lock_wait_hist = Histogram()
        # Watchdog statistics: always attached (zero when disabled) so metric
        # dumps have a config-independent key set.
        self.timeouts = Counter()
        self.retries = Counter()
        self.quarantines = Counter()
        self.late_responses = Counter()
        self.rerouted = Counter()  # incremented by the handle's router
        # Serving-layer batching: lock acquisitions skipped because the
        # command continued the previous command's batch, and the cycles
        # that amortisation saved.
        self.batch_lock_skips = Counter()
        self.batch_cycles_saved = Counter()
        self.fifo_violations = Counter()
        # Per-client lock-wait samples (enqueue -> dispatch), for fairness
        # analysis of the round-robin arbiter.
        self.client_lock_waits: Dict[int, List[int]] = {}

    @property
    def metric_path(self) -> str:
        return "runtime/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.attach("commands_sent", self.commands_sent)
        scope.attach("responses_received", self.responses_received)
        scope.attach("lock_wait_cycles", self.lock_wait_cycles)
        scope.attach("busy_cycles", self.busy_cycles)
        scope.attach("lock_wait", self.lock_wait_hist)
        scope.attach("batch_lock_skips", self.batch_lock_skips)
        scope.attach("batch_cycles_saved", self.batch_cycles_saved)
        scope.attach("fifo_violations", self.fifo_violations)
        scope.bind("in_flight", lambda: self.in_flight)
        wd = scope.scope("watchdog")
        wd.attach("timeouts", self.timeouts)
        wd.attach("retries", self.retries)
        wd.attach("quarantines", self.quarantines)
        wd.attach("late_responses", self.late_responses)
        wd.attach("rerouted", self.rerouted)
        wd.bind("pending_retries", lambda: len(self._retry_heap))
        wd.bind("quarantined_cores", lambda: len(self.quarantined))
        if self.spans is not None:
            self.spans.register_metrics(scope)

    def snapshot_refs(self) -> Dict[Any, Any]:
        """The handle and its futures, which command records point at."""
        refs: Dict[Any, Any] = {
            ("fut", i): fut for i, fut in enumerate(self.handle.futures, 1)
        }
        refs["handle"] = self.handle
        return refs

    # ------------------------------------------------------------- host API
    def submit(
        self,
        inst: RoccInstruction,
        ctx: Optional[CommandContext],
        cycle_hint: int = 0,
        client: int = 0,
        batch: Optional[int] = None,
    ) -> None:
        """Queue one command chunk; ``ctx`` rides the completing chunk."""
        cmd = PendingCommand(
            inst.encode_words(),
            (inst.system_id, inst.core_id),
            cycle_hint,
            client,
            ctx=ctx,
            batch=batch,
        )
        self._client_seq[client] = cmd.seq = self._client_seq.get(client, 0) + 1
        # The completing chunk is the one the span follows.
        if self.spans is not None and ctx is not None:
            cmd.span_id = self.spans.command_submitted(
                cycle_hint, cmd.key, client, ctx.label, tenant=ctx.tenant
            )
        if client not in self._queues:
            self._queues[client] = deque()
            self._client_rr.append(client)
        self._queues[client].append(cmd)

    def _pop_next(self) -> Optional[PendingCommand]:
        n = len(self._client_rr)
        for k in range(n):
            client = self._client_rr[(self._rr_pos + k) % n]
            queue = self._queues[client]
            if queue:
                self._rr_pos = (self._rr_pos + k + 1) % n
                return queue.popleft()
        return None

    @property
    def in_flight(self) -> int:
        queued = sum(len(q) for q in self._queues.values())
        return (
            queued
            + (1 if self._current else 0)
            + sum(len(q) for q in self._waiters.values())
            + len(self._retry_heap)
        )

    def idle(self) -> bool:
        return (
            self._current is None
            and not any(self._queues.values())
            and not any(self._waiters.values())
            and not self._retry_heap
        )

    # ------------------------------------------------------------ behaviour
    def tick(self, cycle: int) -> None:
        if self._retry_heap:
            self._service_retries(cycle)
        self._dispatch(cycle)
        self._poll(cycle)
        # Deadlines are checked after polling so a response landing exactly
        # at the deadline cycle still wins.
        if self.watchdog.enabled and any(self._waiters.values()):
            self._check_deadlines(cycle)

    def next_event(self, cycle: int) -> float:
        """Next cycle the server acts: a word dispatch, a lock acquisition,
        a poll visit, a matured retry, or a waiter deadline.  An idle server
        (no queued commands, nothing in flight, no waiters) only wakes on a
        new host submission, which the host performs between run calls — so
        it reports :data:`NEVER`."""
        nxt = NEVER
        if self._current is not None:
            nxt = min(nxt, max(cycle, self._next_word_cycle))
        elif any(self._queues.values()):
            nxt = min(nxt, max(cycle, self._lock_until))
        if any(self._waiters.values()):
            nxt = min(nxt, max(cycle, self._next_poll))
            if self.watchdog.enabled:
                for waiters in self._waiters.values():
                    if waiters:
                        nxt = min(nxt, max(cycle, waiters[0].deadline))
        if self._retry_heap:
            nxt = min(nxt, max(cycle, self._retry_heap[0][0]))
        return nxt

    def wake_channels(self):
        # The server owns no channels; it pushes command words into the MMIO
        # frontend (freed space resumes a stalled dispatch) and polls its
        # response words.  New submissions happen between run calls, which
        # re-wake every component anyway.
        return [self.mmio.cmd_words, self.mmio.resp_words]

    def _dispatch(self, cycle: int) -> None:
        if self._current is None and cycle >= self._lock_until:
            self._current = self._pop_next()
            if self._current is None:
                return
            cur = self._current
            last = self._dispatched_seq.get(cur.client, 0)
            if cur.seq != last + 1:
                self.fifo_violations += 1  # must never happen; tests assert 0
            self._dispatched_seq[cur.client] = cur.seq
            cur.dispatch_start = cycle
            wait = max(0, cycle - cur.enqueue_cycle)
            self.lock_wait_cycles += wait
            self.lock_wait_hist.observe(wait)
            self.client_lock_waits.setdefault(cur.client, []).append(wait)
            self._words_left = list(cur.words)
            # Lock acquisition + per-command bookkeeping cost — skipped when
            # this command continues the immediately preceding command's
            # batch (same client, same batch id) *and* the bus never went
            # idle in between (we are dispatching the very cycle the lock
            # would have been released): the serving layer coalesces
            # compatible commands to amortise MMIO serialisation, but an
            # idle gap means the lock was genuinely dropped and must be
            # re-acquired at full cost.
            lock_cycles = self.host.command_lock_cycles
            if (
                cur.batch is not None
                and self._last_batch == (cur.client, cur.batch)
                and cycle == self._lock_until
            ):
                lock_cycles = 0
                self.batch_lock_skips += 1
                self.batch_cycles_saved += self.host.command_lock_cycles
            self._next_word_cycle = cycle + lock_cycles
            if self.spans is not None and cur.span_id:
                self.spans.dispatch_begin(cycle, cur.span_id)
        if self._current is not None and cycle >= self._next_word_cycle:
            if self._words_left and self.mmio.cmd_words.can_push():
                self.mmio.cmd_words.push(self._words_left.pop(0))
                self._next_word_cycle = cycle + self.host.mmio_word_cycles
                self.busy_cycles += self.host.mmio_word_cycles
            if not self._words_left:
                cmd = self._current
                cmd.dispatch_end = cycle
                if self.spans is not None and cmd.span_id:
                    self.spans.dispatch_end(cycle, cmd.span_id, cmd.key)
                if cmd.ctx is not None:
                    deadline: float = NEVER
                    if self.watchdog.enabled:
                        deadline = cycle + self.watchdog.timeout_cycles
                    self._waiters.setdefault(cmd.key, deque()).append(
                        _Waiter(cmd.ctx, cmd.span_id, deadline)
                    )
                self.commands_sent += 1
                self._last_batch = (
                    (cmd.client, cmd.batch) if cmd.batch is not None else None
                )
                self._current = None
                self._lock_until = cycle + 1

    def _poll(self, cycle: int) -> None:
        if cycle < self._next_poll:
            return
        if not any(self._waiters.values()):
            return
        # One poll visit reads as many response words as are ready (a burst
        # of MMIO reads), then sleeps for the polling interval.
        progressed = False
        while self.mmio.resp_words.can_pop():
            self._resp_words.append(self.mmio.resp_words.pop())
            progressed = True
            if len(self._resp_words) == 4:
                resp = RoccResponse.decode_words(self._resp_words)
                self._resp_words.clear()
                key = (resp.system_id, resp.core_id)
                waiters = self._waiters.get(key)
                if waiters:
                    waiter = waiters.popleft()
                    if self.spans is not None and waiter.span_id:
                        self.spans.command_completed(cycle, waiter.span_id)
                    if self._strikes:
                        self._strikes.pop(key, None)  # core proved healthy
                    waiter.ctx.respond(resp)
                else:
                    # A command we already timed out answered after all.
                    self.late_responses += 1
                    if self.tracer is not None:
                        self.tracer.record(
                            cycle, "watchdog", "late_response", {"core": key}
                        )
                self.responses_received += 1
        if progressed:
            self._next_poll = cycle + self.host.mmio_word_cycles
        else:
            self._next_poll = cycle + self.host.response_poll_cycles

    # ------------------------------------------------------------- watchdog
    def _service_retries(self, cycle: int) -> None:
        while self._retry_heap and self._retry_heap[0][0] <= cycle:
            _, _, ctx = heapq.heappop(self._retry_heap)
            self.retries += 1
            ctx.attempts += 1
            if self.tracer is not None:
                self.tracer.record(
                    cycle,
                    "watchdog",
                    "retry",
                    {"core": ctx.key, "label": ctx.label, "attempt": ctx.attempts},
                )
            try:
                ctx.resubmit()
            except Exception as exc:  # e.g. CoreQuarantined from rerouting
                ctx.fail(exc)

    def _check_deadlines(self, cycle: int) -> None:
        for key, waiters in self._waiters.items():
            while waiters and cycle >= waiters[0].deadline:
                self._on_timeout(cycle, key, waiters.popleft())

    def _on_timeout(self, cycle: int, key: Tuple[int, int], waiter: _Waiter) -> None:
        self.timeouts += 1
        strikes = self._strikes.get(key, 0) + 1
        self._strikes[key] = strikes
        ctx = waiter.ctx
        if self.tracer is not None:
            self.tracer.record(
                cycle,
                "watchdog",
                "timeout",
                {"core": key, "label": ctx.label, "strikes": strikes},
            )
        if self.spans is not None and waiter.span_id:
            self.spans.command_completed(cycle, waiter.span_id)
        if strikes >= self.watchdog.quarantine_strikes and key not in self.quarantined:
            self.quarantined.add(key)
            self.quarantines += 1
            if self.tracer is not None:
                self.tracer.record(cycle, "watchdog", "quarantine", {"core": key})
            self.handle.degraded_cores.add(key)
        if ctx.retryable and ctx.attempts - 1 < self.watchdog.max_retries:
            self._retry_seq += 1
            heapq.heappush(
                self._retry_heap,
                (cycle + self.watchdog.backoff_cycles(ctx.attempts), self._retry_seq, ctx),
            )
            return
        ctx.fail(
            CommandTimeout(
                f"command {ctx.label} on core {key} timed out at cycle "
                f"{cycle} after {ctx.attempts} attempt(s)",
                key=key,
                attempts=ctx.attempts,
            )
        )

    # ---------------------------------------------------------- diagnostics
    def debug_state(self):
        if self.idle():
            return None
        state: Dict[str, object] = {
            "queued": sum(len(q) for q in self._queues.values()),
            "dispatching": (
                {"core": self._current.key, "words_left": len(self._words_left)}
                if self._current is not None
                else None
            ),
            "waiting": {
                str(key): [
                    {
                        "deadline": (None if w.deadline == NEVER else int(w.deadline)),
                        "label": w.ctx.label,
                        "attempts": w.ctx.attempts,
                    }
                    for w in waiters
                ]
                for key, waiters in self._waiters.items()
                if waiters
            },
            "pending_retries": [
                {"ready": ready, "core": ctx.key, "label": ctx.label}
                for ready, _, ctx in sorted(self._retry_heap)
            ],
        }
        if self.quarantined:
            state["quarantined"] = sorted(self.quarantined)
        return state
