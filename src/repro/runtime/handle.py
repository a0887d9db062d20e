"""The user-facing runtime library (paper Figure 3c and Section II-C3).

``FpgaHandle`` is the Python analogue of ``fpga_handle_t``: it owns the
allocator for the accelerator memory space, provides DMA routines between the
host and device domains, and sends commands through the runtime server.
Sending a command returns a :class:`ResponseHandle` future whose ``get()``
advances the simulation until the accelerator responds — the same blocking
semantics the generated C++ gives on real hardware.

With a :class:`WatchdogConfig` installed the handle also owns *graceful
degradation*: cores the server quarantines are marked degraded and later
commands (including watchdog retries) are transparently rerouted to the next
healthy core of the same system, so a wedged core costs throughput, not
correctness.  Detected data corruption (``err`` beats poisoning the fault
state) turns a completed command into a retry or a typed
:class:`FaultedResponse` — never silently wrong data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.command.rocc import RoccInstruction, RoccResponse
from repro.faults.errors import CommandTimeout, CoreQuarantined
from repro.obs.registry import Counter
from repro.runtime.allocator import make_allocator
from repro.runtime.server import CommandContext, RuntimeServer, WatchdogConfig
from repro.sim import DeadlockError, PartitionSyncTimeout


class RemotePtr:
    """A device-memory allocation with a host-side shadow buffer.

    On discrete platforms the shadow models the host copy of the data and
    ``copy_to_fpga``/``copy_from_fpga`` move bytes across PCIe; on embedded
    platforms host and device share memory, so the "shadow" writes through
    immediately and the copies are coherence no-ops.
    """

    def __init__(self, handle: "FpgaHandle", fpga_addr: int, size: int) -> None:
        self._handle = handle
        self.fpga_addr = fpga_addr
        self.size = size
        self._host = bytearray(size)

    def get_host_addr(self) -> bytearray:
        """Host-side view (paper: ``mem.getHostAddr()``)."""
        return self._host

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset < 0:
            raise ValueError("negative write offset")
        if offset + len(data) > self.size:
            raise ValueError("write past end of allocation")
        self._host[offset : offset + len(data)] = data
        if not self._handle.discrete:
            self._handle._store_write(self.fpga_addr + offset, bytes(data))

    def read(self, length: Optional[int] = None, offset: int = 0) -> bytes:
        if offset < 0:
            raise ValueError("negative read offset")
        length = self.size - offset if length is None else length
        if length < 0:
            raise ValueError("negative read length")
        if offset + length > self.size:
            raise ValueError("read past end of allocation")
        if not self._handle.discrete:
            return self._handle._store_read(self.fpga_addr + offset, length)
        return bytes(self._host[offset : offset + length])

    def offset(self, n: int) -> int:
        """Device address at byte offset ``n`` (pointer arithmetic)."""
        if n < 0 or n > self.size:
            raise ValueError("offset outside allocation")
        return self.fpga_addr + n

    def __len__(self) -> int:
        return self.size


class ResponseHandle:
    """Future for one in-flight accelerator command.

    Completes either with a response or with a typed error (watchdog
    timeout, quarantine, detected corruption); ``get``/``try_get`` raise the
    stored error rather than returning bad data.
    """

    #: Structure the replayed host recreates; a snapshot carries the outcome.
    #: Callbacks registered on a future the snapshot restores as settled
    #: never fire: a future settles once.
    _snapshot_exclude = ("_handle", "_spec", "_callbacks")

    def __init__(self, handle: "FpgaHandle", response_spec) -> None:
        self._handle = handle
        self._spec = response_spec
        self._response: Optional[RoccResponse] = None
        self._error: Optional[Exception] = None
        self._callbacks: list = []
        self.submitted_cycle = handle.design.sim.cycle
        self._completed_cycle: Optional[int] = None

    def _complete(self, resp: RoccResponse) -> None:
        if self._error is None and self._response is None:
            self._response = resp
            self._notify()

    def _fail(self, exc: Exception) -> None:
        # First outcome wins; a late response after a typed error is dropped.
        if self._error is None and self._response is None:
            self._error = exc
            self._notify()

    def _notify(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(self)`` exactly once when the future settles.

        Fires from inside the runtime server's poll tick (or immediately if
        already settled) — the same mid-tick context the watchdog's retry
        resubmission runs in, so callbacks may safely submit new commands.
        Retries are invisible here: only the terminal outcome notifies.
        """
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    @property
    def done(self) -> bool:
        return self._response is not None or self._error is not None

    def try_get(self) -> Optional[Dict[str, object]]:
        """Non-blocking check (paper: ``try_get``)."""
        if self._error is not None:
            raise self._error
        if self._response is None:
            return None
        return self._decode()

    def get(
        self, max_cycles: int = 10_000_000, timeout_cycles: Optional[int] = None
    ) -> Dict[str, object]:
        """Block (advance simulation) until the response arrives.

        ``timeout_cycles`` bounds how long *this wait* may run: past it the
        wait raises :class:`CommandTimeout` (carrying the kernel's structured
        deadlock dump) instead of the generic deadlock error.
        """
        budget = max_cycles if timeout_cycles is None else min(max_cycles, timeout_cycles)
        try:
            self._handle.run_until(lambda: self.done, budget)
        except DeadlockError as exc:
            if self._error is not None:
                raise self._error
            if isinstance(exc, PartitionSyncTimeout):
                # Infrastructure failure (a partition worker died or missed
                # its slice barrier) — never convert into a model-level
                # CommandTimeout, which the watchdog would retry.
                raise
            if timeout_cycles is not None:
                raise CommandTimeout(
                    f"no response within timeout_cycles={timeout_cycles}",
                    dump=exc.dump,
                ) from exc
            raise
        if self._error is not None:
            raise self._error
        return self._decode()

    def _decode(self) -> Dict[str, object]:
        if self._spec is None or not self._spec.fields:
            return {"ok": True}
        return self._spec.unpack(self._response.data)

    @property
    def latency_cycles(self) -> Optional[int]:
        if self._response is None:
            return None
        return self._completed_cycle - self.submitted_cycle

    def _note_completion_cycle(self, cycle: int) -> None:
        self._completed_cycle = cycle


class FpgaHandle:
    """Open handle to the Beethoven runtime for one elaborated design.

    Its snapshot state is the allocator, the degradation bookkeeping and the
    DMA/client counters.  Host shadow buffers (:class:`RemotePtr`) are not
    captured: the replayed host rewrites them, and device memory is restored
    through the memory store's component state.
    """

    #: Structure the rebuild and the replayed host recreate.
    _snapshot_exclude = ("design", "server", "futures")

    def __init__(self, design, watchdog: Optional[WatchdogConfig] = None) -> None:
        self.design = design
        platform = design.platform
        self.discrete = platform.host.discrete
        self.allocator = make_allocator(
            self.discrete, platform.memory_base, platform.memory_bytes
        )
        wd = watchdog or getattr(design, "watchdog", None) or WatchdogConfig()
        self.server = RuntimeServer(
            design.mmio,
            platform.host,
            self,
            spans=getattr(design, "span_tracker", None),
            watchdog=wd,
            tracer=getattr(design, "tracer", None),
        )
        #: Cores taken out of rotation by the watchdog.
        self.degraded_cores: Set[Tuple[int, int]] = set()
        #: FaultState of the compiled FaultPlan, when one was elaborated in.
        self.faults = getattr(design, "faults", None)
        design.sim.add(self.server)
        self.dma_cycles_spent = 0
        self._next_client = 0
        #: Every future call() returned, in call order.  A snapshot names
        #: them by position, so restoring needs a replayed host that issued
        #: the same calls.
        self.futures: List[ResponseHandle] = []

    # ------------------------------------------------------------ memory API
    def malloc(self, n_bytes: int) -> RemotePtr:
        addr = self.allocator.malloc(n_bytes)
        return RemotePtr(self, addr, n_bytes)

    def free(self, ptr: RemotePtr) -> None:
        self.allocator.free(ptr.fpga_addr)

    def _store_write(self, addr: int, data: bytes) -> None:
        self.design.controller.store.write(addr, data)

    def _store_read(self, addr: int, length: int) -> bytes:
        return self.design.controller.store.read(addr, length)

    def copy_to_fpga(self, ptr: RemotePtr) -> None:
        """DMA host -> device (no-op coherence sync on embedded)."""
        self._store_write(ptr.fpga_addr, bytes(ptr.get_host_addr()))
        self._advance_dma(ptr.size)

    def copy_from_fpga(self, ptr: RemotePtr) -> None:
        """DMA device -> host."""
        data = self._store_read(ptr.fpga_addr, ptr.size)
        ptr.get_host_addr()[:] = data
        self._advance_dma(ptr.size)

    def _advance_dma(self, n_bytes: int) -> None:
        host = self.design.platform.host
        if not self.discrete or host.dma_bytes_per_cycle <= 0:
            return
        cycles = int(n_bytes / host.dma_bytes_per_cycle) + 1
        self.dma_cycles_spent += cycles
        self.design.sim.run_slice(cycles)

    # ------------------------------------------------------------ processes
    def new_client(self, name: str = "") -> "ClientHandle":
        """A second process sharing this runtime (paper Section II-C2).

        Clients share the card's allocator state (held host-side, so their
        allocations never conflict) and are served round-robin by the
        runtime server's command arbitration.
        """
        self._next_client += 1
        return ClientHandle(self, self._next_client, name or f"client{self._next_client}")

    # ------------------------------------------------------------ degradation
    def _route_core(self, system, core_idx: int) -> int:
        """The preferred core, or the next healthy one of the same system."""
        n = len(system.cores)
        for k in range(n):
            idx = (core_idx + k) % n
            if (system.system_id, idx) not in self.degraded_cores:
                if k:
                    self.server.rerouted += 1
                    tracer = getattr(self.design, "tracer", None)
                    if tracer is not None:
                        tracer.record(
                            self.design.sim.cycle,
                            "watchdog",
                            "reroute",
                            {"from": (system.system_id, core_idx),
                             "to": (system.system_id, idx)},
                        )
                return idx
        raise CoreQuarantined(
            f"all {n} cores of system {system.config.name!r} are quarantined",
            key=(system.system_id, core_idx),
        )

    # ----------------------------------------------------------- command API
    def call(
        self,
        system_name: str,
        io_name: str,
        core_idx: int,
        _client: int = 0,
        _retryable: bool = True,
        _tenant: str = "",
        _batch: Optional[int] = None,
        **fields,
    ) -> ResponseHandle:
        """Send one custom command; returns a response future.

        ``_retryable=False`` marks the command non-idempotent: the watchdog
        will never re-issue it, and a timeout surfaces directly as a typed
        error on the future.  ``_tenant`` tags the command's span for
        per-tenant attribution and ``_batch`` groups compatible commands so
        the server amortises lock acquisition (both set by ``repro.serve``).
        """
        design = self.design
        system = next(
            (s for s in design.systems if s.config.name == system_name), None
        )
        if system is None:
            raise KeyError(f"no system {system_name!r}")
        if not 0 <= core_idx < len(system.cores):
            raise IndexError(
                f"core index {core_idx} out of range for {system_name!r} "
                f"({len(system.cores)} cores)"
            )
        core = system.cores[core_idx]
        io_index, io = next(
            (
                (i, io)
                for i, io in enumerate(core.ctx.ios)
                if io.command_spec.name == io_name
            ),
            (None, None),
        )
        if io is None:
            raise KeyError(f"no IO {io_name!r} on system {system_name!r}")
        chunks = io.command_spec.pack(fields, design.platform.addr_bits)
        fut = ResponseHandle(self, io.response_spec)
        self.futures.append(fut)
        self._submit_command(
            CommandContext(
                self, fut, (system.system_id, core_idx), io_name, _retryable,
                uid=len(self.futures), system_id=system.system_id,
                io_index=io_index, core_idx=core_idx, chunks=chunks,
                client=_client, tenant=_tenant, batch=_batch,
            )
        )
        return fut

    def _submit_command(self, ctx: CommandContext) -> None:
        """Issue (or re-issue) one command onto the next healthy core."""
        design = self.design
        routed = self._route_core(design.systems[ctx.system_id], ctx.core_idx)
        ctx.key = (ctx.system_id, routed)
        for i, (rs1, rs2) in enumerate(ctx.chunks):
            last = i == len(ctx.chunks) - 1
            inst = RoccInstruction(
                system_id=ctx.system_id,
                core_id=routed,
                funct7=ctx.io_index,
                rs1=rs1,
                rs2=rs2,
                xd=last,  # only the completing chunk expects a response
                rd=1,
            )
            self.server.submit(
                inst,
                ctx if last else None,
                design.sim.cycle,
                client=ctx.client,
                batch=ctx.batch,
            )

    # ------------------------------------------------------------- sim plumbing
    def run_until(self, predicate, max_cycles: int = 10_000_000) -> int:
        return self.design.sim.run(max_cycles, until=predicate)

    @property
    def cycle(self) -> int:
        return self.design.sim.cycle


class ClientHandle:
    """A process-local view of a shared :class:`FpgaHandle`.

    Allocations go through the shared (host-resident) allocator, so separate
    clients never receive overlapping device memory; commands are tagged
    with the client id and arbitrated fairly by the runtime server.

    **FIFO-per-client guarantee**: commands submitted through one client are
    dispatched onto the MMIO bus in exactly their submission order.  The
    server round-robins *between* clients but each client's queue is a strict
    FIFO, checked per dispatch (``runtime/server/fifo_violations`` stays 0).
    Per-client traffic counters are published under ``serve/client/<id>/``.
    """

    def __init__(self, handle: FpgaHandle, client_id: int, name: str) -> None:
        self._handle = handle
        self.client_id = client_id
        self.name = name
        #: Tenant this client fronts (set by the serving layer; spans carry it).
        self.tenant = ""
        self.submitted = Counter()
        self.completed = Counter()
        scope = handle.design.registry.scope(f"serve/client/{client_id}")
        scope.attach("submitted", self.submitted)
        scope.attach("completed", self.completed)
        scope.bind("in_flight", lambda: int(self.submitted) - int(self.completed))

    @property
    def in_flight(self) -> int:
        return int(self.submitted) - int(self.completed)

    def malloc(self, n_bytes: int) -> RemotePtr:
        return self._handle.malloc(n_bytes)

    def free(self, ptr: RemotePtr) -> None:
        self._handle.free(ptr)

    def copy_to_fpga(self, ptr: RemotePtr) -> None:
        self._handle.copy_to_fpga(ptr)

    def copy_from_fpga(self, ptr: RemotePtr) -> None:
        self._handle.copy_from_fpga(ptr)

    def call(
        self,
        system_name: str,
        io_name: str,
        core_idx: int,
        _retryable: bool = True,
        _batch: Optional[int] = None,
        **fields,
    ) -> ResponseHandle:
        fut = self._handle.call(
            system_name, io_name, core_idx,
            _client=self.client_id,
            _retryable=_retryable,
            _tenant=self.tenant,
            _batch=_batch,
            **fields,
        )
        self.submitted += 1
        fut.add_done_callback(lambda _f: self.completed.__iadd__(1))
        return fut


def bindings_for(handle: FpgaHandle, system_name: str):
    """Generated-style Python bindings: one callable per IO of the system.

    Mirrors the generated C++: ``b = bindings_for(h, "VectorAdd");
    resp = b.my_accel(core_idx, addend=…, vec_addr=…, n_eles=…)``.
    """

    class _Bindings:
        def __getattr__(self, io_name: str):
            def call(core_idx: int, **fields) -> ResponseHandle:
                return handle.call(system_name, io_name, core_idx, **fields)

            return call

    return _Bindings()
