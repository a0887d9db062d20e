"""Worker pools: multiprocess sharding with a serial in-process fallback.

:class:`WorkerPool` shards jobs across ``n_workers`` OS processes.  The
supervisor owns one inbox/outbox queue pair per worker (private queues mean
a killed worker can never corrupt a sibling's channel) and enforces the
farm's failure policy:

* **per-job timeout** — a job that exceeds its deadline has its worker
  terminated and is marked failed immediately; siblings keep running and
  the worker slot is respawned;
* **crash retry with backoff** — a worker that dies mid-job (OOM-kill,
  ``os._exit``, segfault in an extension) gets its job requeued with
  exponential backoff, up to ``max_attempts``; the attempt number is
  visible to job code via :func:`current_attempt`;
* **fail-fast on exceptions** — an ordinary Python exception is a property
  of the job, not the infrastructure, so it is reported once and not
  retried.

Jobs whose payload cannot be pickled (e.g. a sweep over closures) degrade
gracefully: they run inline in the supervisor process and are labelled
``worker="inline"``.  When multiprocessing itself is unavailable — or
``n_workers <= 1`` — :class:`SerialPool` provides the same interface fully
in-process.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.farm.job import Job, resolve_fn

_ATTEMPT_ENV = "REPRO_FARM_ATTEMPT"
_WORKER_ENV = "REPRO_FARM_WORKER"

#: Supervisor poll interval while waiting on workers.
_POLL_S = 0.02


def current_attempt() -> int:
    """Attempt number (1-based) of the job executing in this process."""
    try:
        return int(os.environ.get(_ATTEMPT_ENV, "1"))
    except ValueError:
        return 1


def current_worker() -> str:
    """Worker id executing this job ("serial" outside a pool worker)."""
    return os.environ.get(_WORKER_ENV, "serial")


@dataclass
class PoolOutcome:
    """What the pool learned about one job (no cache involvement here)."""

    value: Any = None
    ok: bool = False
    error: Optional[str] = None
    worker: str = ""
    wall_seconds: float = 0.0
    attempts: int = 1
    timed_out: bool = False
    crashes: int = 0
    resumed_from_checkpoint: bool = False


@dataclass
class PoolStats:
    """Utilization snapshot of the pool's last :meth:`run` call.

    ``busy_seconds`` maps worker id to wall time spent executing jobs;
    ``utilization`` divides that by the run's elapsed time (a worker pinned
    at 1.0 is the bottleneck; one near 0.0 is starved).  ``queue_high_water``
    is the deepest the ready queue ever got — sustained depth near the job
    count means the pool is under-provisioned for the sweep.
    """

    n_workers: int = 0
    jobs: int = 0
    elapsed_seconds: float = 0.0
    busy_seconds: Dict[str, float] = None  # type: ignore[assignment]
    dispatched: Dict[str, int] = None  # type: ignore[assignment]
    queue_high_water: int = 0
    respawns: int = 0

    def __post_init__(self) -> None:
        if self.busy_seconds is None:
            self.busy_seconds = {}
        if self.dispatched is None:
            self.dispatched = {}

    @property
    def utilization(self) -> Dict[str, float]:
        if self.elapsed_seconds <= 0.0:
            return {w: 0.0 for w in self.busy_seconds}
        return {
            w: min(busy / self.elapsed_seconds, 1.0)
            for w, busy in self.busy_seconds.items()
        }

    @property
    def mean_utilization(self) -> float:
        util = self.utilization
        return sum(util.values()) / len(util) if util else 0.0


def bind_pool_metrics(pool, registry, prefix: str = "farm/pool") -> None:
    """Publish a pool's :attr:`last_stats` as gauges under ``farm/*``.

    All bindings are volatile: pool utilization describes the host harness,
    not the simulated design, and legitimately varies run to run.
    """
    def stat(name):
        return lambda: getattr(pool.last_stats, name)

    registry.bind(f"{prefix}/workers", stat("n_workers"), volatile=True)
    registry.bind(f"{prefix}/jobs", stat("jobs"), volatile=True)
    registry.bind(f"{prefix}/elapsed_s", stat("elapsed_seconds"), volatile=True)
    registry.bind(
        f"{prefix}/queue_high_water", stat("queue_high_water"), volatile=True
    )
    registry.bind(f"{prefix}/respawns", stat("respawns"), volatile=True)
    registry.bind(
        f"{prefix}/mean_utilization",
        lambda: pool.last_stats.mean_utilization,
        volatile=True,
    )


def _execute(job: Job, attempt: int, worker: str) -> PoolOutcome:
    """Run one job in the current process, timing it and trapping errors."""
    os.environ[_ATTEMPT_ENV] = str(attempt)
    os.environ[_WORKER_ENV] = worker
    ckpt_path = getattr(job, "checkpoint_path", None)
    if ckpt_path:
        # Resumable job: expose the checkpoint contract through the env so
        # job code reaches it via ``repro.snapshot.store.job_checkpoint``
        # regardless of how deep in the call stack the simulation lives.
        from repro.snapshot.store import CKPT_EVERY_ENV, CKPT_PATH_ENV, consume_resumed_flag

        os.environ[CKPT_PATH_ENV] = ckpt_path
        os.environ[CKPT_EVERY_ENV] = str(getattr(job, "checkpoint_every", 0) or 0)
        consume_resumed_flag()  # drop stale state from a previous job
    t0 = time.perf_counter()
    try:
        fn = resolve_fn(job.fn)
        value = fn(*job.args, **job.kwargs)
        resumed = False
        if ckpt_path:
            from repro.snapshot.store import consume_resumed_flag

            resumed = consume_resumed_flag()
            try:  # success retires the checkpoint file
                os.unlink(ckpt_path)
            except OSError:
                pass
        return PoolOutcome(
            value=value,
            ok=True,
            worker=worker,
            wall_seconds=time.perf_counter() - t0,
            attempts=attempt,
            resumed_from_checkpoint=resumed,
        )
    except Exception as exc:  # noqa: BLE001 — job errors become data
        # Ship the traceback with the message: the supervisor (often on
        # another machine's terminal) is the only place the error is read.
        tb = traceback.format_exc(limit=20)
        if len(tb) > 4000:
            tb = "...\n" + tb[-4000:]
        return PoolOutcome(
            ok=False,
            error=f"{type(exc).__name__}: {exc}\n{tb.rstrip()}",
            worker=worker,
            wall_seconds=time.perf_counter() - t0,
            attempts=attempt,
        )
    finally:
        if ckpt_path:
            from repro.snapshot.store import CKPT_EVERY_ENV, CKPT_PATH_ENV

            os.environ.pop(CKPT_PATH_ENV, None)
            os.environ.pop(CKPT_EVERY_ENV, None)


def _worker_main(worker_id: str, inbox, outbox, stderr_path: Optional[str] = None) -> None:
    """Worker process body: execute payloads until the ``None`` sentinel.

    ``stderr_path`` redirects fd 2 so that whatever kills this process —
    a Python traceback that escapes ``_execute``, an extension-module abort,
    an OOM-killer note — survives for the supervisor's crash report.
    """
    if stderr_path is not None:
        try:
            fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            os.dup2(fd, 2)
            os.close(fd)
        except OSError:
            pass  # diagnostics only; never fail the worker over them
    while True:
        item = inbox.get()
        if item is None:
            return
        seq, job, attempt = item
        outcome = _execute(job, attempt, worker_id)
        outbox.put((seq, outcome))


def stderr_tail(path: Optional[str], max_chars: int = 2000) -> str:
    """Last ``max_chars`` of a worker's redirected stderr, if any."""
    if not path:
        return ""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(0, fh.tell() - max_chars))
            return fh.read().decode("utf-8", "replace").strip()
    except OSError:
        return ""


class SerialPool:
    """In-process execution with the :class:`WorkerPool` interface.

    Used when multiprocessing is unavailable or ``n_workers <= 1``.  Jobs
    run to completion in submission order; timeouts cannot be enforced on
    the current thread and are therefore advisory only (documented
    degradation, never wrong results).
    """

    n_workers = 1

    def __init__(
        self,
        default_timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
    ) -> None:
        self.default_timeout_s = default_timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.last_stats = PoolStats(n_workers=1)

    def run(self, jobs: Sequence[Job]) -> List[PoolOutcome]:
        t0 = time.monotonic()
        outcomes = [_execute(job, 1, "serial") for job in jobs]
        stats = PoolStats(n_workers=1, jobs=len(jobs))
        stats.elapsed_seconds = time.monotonic() - t0
        stats.busy_seconds["serial"] = sum(o.wall_seconds for o in outcomes)
        stats.dispatched["serial"] = len(jobs)
        self.last_stats = stats
        return outcomes


@dataclass
class _Slot:
    """One worker process and its private queues."""

    worker_id: str
    process: Any
    inbox: Any
    outbox: Any
    seq: Optional[int] = None  # seq of the task currently assigned
    deadline: float = 0.0
    stderr_path: Optional[str] = None


@dataclass
class _Task:
    seq: int
    job: Job
    attempts: int = 0
    crashes: int = 0
    eligible_at: float = 0.0  # backoff gate for retries
    last_stderr: str = ""  # tail of the stderr of the last crashed attempt


def _payload_picklable(job: Job) -> bool:
    try:
        pickle.dumps((job.fn, job.args, job.kwargs))
        return True
    except Exception:
        return False


def multiprocessing_context():
    """The context used for workers: ``fork`` where available (it needs no
    re-import of job modules), else the platform default."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context()


def multiprocessing_available() -> bool:
    """True when this interpreter can actually spawn workers and queues."""
    try:
        ctx = multiprocessing_context()
        q = ctx.Queue()
        q.cancel_join_thread()
        q.close()
        return True
    except Exception:  # pragma: no cover — sandboxed /dev/shm etc.
        return False


class WorkerPool:
    """Shard jobs across worker processes with timeouts and crash retry."""

    def __init__(
        self,
        n_workers: int,
        default_timeout_s: Optional[float] = 300.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.default_timeout_s = default_timeout_s
        self.max_attempts = max(max_attempts, 1)
        self.backoff_base_s = backoff_base_s
        self._ctx = multiprocessing_context()
        self.last_stats = PoolStats(n_workers=n_workers)

    # ---------------------------------------------------------- lifecycle
    def _spawn(self, worker_id: str) -> _Slot:
        inbox = self._ctx.Queue()
        outbox = self._ctx.Queue()
        fd, stderr_path = tempfile.mkstemp(prefix=f"farm-{worker_id}-", suffix=".stderr")
        os.close(fd)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, outbox, stderr_path),
            daemon=True,
        )
        process.start()
        return _Slot(worker_id, process, inbox, outbox, stderr_path=stderr_path)

    @staticmethod
    def _discard(slot: _Slot, kill: bool = False) -> None:
        if kill and slot.process.is_alive():
            slot.process.terminate()
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():  # pragma: no cover — stubborn child
                slot.process.kill()
                slot.process.join(timeout=2.0)
        for q in (slot.inbox, slot.outbox):
            q.cancel_join_thread()
            q.close()
        if slot.stderr_path:
            try:
                os.unlink(slot.stderr_path)
            except OSError:
                pass

    # ---------------------------------------------------------------- run
    def run(self, jobs: Sequence[Job]) -> List[PoolOutcome]:
        outcomes: Dict[int, PoolOutcome] = {}
        tasks: Dict[int, _Task] = {}
        ready: deque = deque()  # seqs awaiting dispatch
        t0 = time.monotonic()
        stats = PoolStats(n_workers=self.n_workers, jobs=len(jobs))
        self.last_stats = stats

        for seq, job in enumerate(jobs):
            tasks[seq] = _Task(seq, job)
            if _payload_picklable(job):
                ready.append(seq)
            else:
                # Graceful degradation: closures and other unpicklable
                # payloads run in this process.
                outcomes[seq] = _execute(job, 1, "inline")
                out = outcomes[seq]
                stats.busy_seconds["inline"] = (
                    stats.busy_seconds.get("inline", 0.0) + out.wall_seconds
                )
                stats.dispatched["inline"] = stats.dispatched.get("inline", 0) + 1
        stats.queue_high_water = len(ready)

        if len(outcomes) == len(jobs):
            stats.elapsed_seconds = time.monotonic() - t0
            return [outcomes[seq] for seq in range(len(jobs))]

        slots = [self._spawn(f"w{i}") for i in range(min(self.n_workers, len(ready)))]
        next_worker = len(slots)

        try:
            while len(outcomes) < len(jobs):
                progressed = False

                # 1. Collect finished work first, so a result posted just
                #    before a clean worker exit is never lost.
                for slot in slots:
                    while True:
                        try:
                            seq, outcome = slot.outbox.get_nowait()
                        except Exception:
                            break
                        if slot.seq == seq:
                            slot.seq = None
                        if seq not in outcomes:
                            outcome.attempts = tasks[seq].attempts
                            outcome.crashes = tasks[seq].crashes
                            outcomes[seq] = outcome
                            stats.busy_seconds[outcome.worker] = (
                                stats.busy_seconds.get(outcome.worker, 0.0)
                                + outcome.wall_seconds
                            )
                        progressed = True

                # 2. Deadline and liveness policing.
                now = time.monotonic()
                for i, slot in enumerate(slots):
                    if slot.seq is None:
                        continue
                    task = tasks[slot.seq]
                    if not slot.process.is_alive():
                        # Crash mid-job: respawn the slot, retry with backoff.
                        tail = stderr_tail(slot.stderr_path)
                        if tail:
                            task.last_stderr = tail
                        self._discard(slot)
                        slots[i] = self._spawn(f"w{next_worker}")
                        next_worker += 1
                        stats.respawns += 1
                        task.crashes += 1
                        if task.attempts >= self._attempts_of(task.job):
                            error = f"worker crashed on all {task.attempts} attempts"
                            if task.last_stderr:
                                error += (
                                    "; last worker stderr:\n" + task.last_stderr
                                )
                            outcomes[task.seq] = PoolOutcome(
                                ok=False,
                                error=error,
                                worker=slot.worker_id,
                                attempts=task.attempts,
                                crashes=task.crashes,
                            )
                        else:
                            backoff = self.backoff_base_s * (2 ** (task.attempts - 1))
                            task.eligible_at = now + backoff
                            ready.append(task.seq)
                        progressed = True
                    elif now >= slot.deadline:
                        # Hung job: kill the worker and respawn the slot so
                        # siblings keep flowing.  A resumable job with a
                        # checkpoint on disk and attempts remaining is
                        # requeued (the retry resumes from the checkpoint,
                        # so its deadline only has to cover the *remaining*
                        # work); anything else fails immediately.
                        self._discard(slot, kill=True)
                        slots[i] = self._spawn(f"w{next_worker}")
                        next_worker += 1
                        stats.respawns += 1
                        timeout = self._timeout_of(task.job) or 0.0
                        ckpt = getattr(task.job, "checkpoint_path", None)
                        if (
                            ckpt
                            and os.path.exists(ckpt)
                            and task.attempts < self._attempts_of(task.job)
                        ):
                            backoff = self.backoff_base_s * (2 ** (task.attempts - 1))
                            task.eligible_at = now + backoff
                            ready.append(task.seq)
                        else:
                            outcomes[task.seq] = PoolOutcome(
                                ok=False,
                                error=f"timed out after {timeout:.1f}s",
                                worker=slot.worker_id,
                                wall_seconds=timeout,
                                attempts=task.attempts,
                                timed_out=True,
                                crashes=task.crashes,
                            )
                        progressed = True

                # 3. Hand eligible tasks to idle workers.
                now = time.monotonic()
                for slot in slots:
                    if slot.seq is not None or not ready:
                        continue
                    seq = self._pop_eligible(ready, tasks, now)
                    if seq is None:
                        continue
                    task = tasks[seq]
                    task.attempts += 1
                    slot.seq = seq
                    timeout = self._timeout_of(task.job)
                    slot.deadline = now + timeout if timeout else float("inf")
                    slot.inbox.put((seq, task.job, task.attempts))
                    stats.dispatched[slot.worker_id] = (
                        stats.dispatched.get(slot.worker_id, 0) + 1
                    )
                    progressed = True

                stats.queue_high_water = max(stats.queue_high_water, len(ready))
                if not progressed:
                    time.sleep(_POLL_S)
        finally:
            for slot in slots:
                try:
                    slot.inbox.put_nowait(None)
                except Exception:
                    pass
            for slot in slots:
                slot.process.join(timeout=1.0)
                self._discard(slot, kill=True)
            stats.elapsed_seconds = time.monotonic() - t0

        return [outcomes[seq] for seq in range(len(jobs))]

    # ------------------------------------------------------------- helpers
    def _timeout_of(self, job: Job) -> Optional[float]:
        return job.timeout_s if job.timeout_s is not None else self.default_timeout_s

    def _attempts_of(self, job: Job) -> int:
        return job.max_attempts if job.max_attempts is not None else self.max_attempts

    @staticmethod
    def _pop_eligible(ready: deque, tasks: Dict[int, _Task], now: float) -> Optional[int]:
        """Next seq whose backoff has elapsed; rotates still-cooling tasks."""
        for _ in range(len(ready)):
            seq = ready.popleft()
            if tasks[seq].eligible_at <= now:
                return seq
            ready.append(seq)
        return None
