"""The benchmark's four workloads, each built from a seed.

A workload runs in *repeats*.  One repeat is ``setup()`` (timed as
``setup_s``), then ``run()`` (the timed phase, ``wall_s``/``cpu_s``), then
``verify()``, which checks the outputs and returns the simulated-clock
metrics.  Every repeat of one workload and seed must produce identical
simulated metrics; ``run.py`` enforces that.

All designs are built the way a user builds them: ``BeethovenBuild(...)``
without ``scheduling=`` or ``observability=``, i.e. selective scheduling with
command spans on.  Nothing here reads a host clock; the harness does.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass
class Verdict:
    """What ``verify()`` found: operation counts and simulated metrics."""

    attempted: int
    failed: int
    #: End-to-end simulated-clock metrics (exact, seed-determined).
    sim: Dict[str, float]
    #: Layer counts only the workload can see (chaos outcomes).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Human-readable notes printed with the results.
    notes: List[str] = field(default_factory=list)
    #: Digest of everything deterministic the run produced.
    digest: str = ""


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def cold_import(module: str) -> None:
    """Import ``module`` in a fresh interpreter: a user's cold start."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, check=True, timeout=120
    )


class MemcpyDense:
    """32 memcpy cores each copying their own buffer at the same time."""

    name = "memcpy_dense"
    #: Report simulated cycles per host second of the timed phase.
    cycle_rate = True
    #: Fewest untraced repeats in a run.
    min_repeats = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.n_cores = 2 if tiny else 32
        step, base = (64, 1024) if tiny else (512, 16 * 1024)
        rng = random.Random(f"memcpy_dense:{seed}")
        # A fixed ladder of sizes (16 KiB .. 31.5 KiB) dealt to the cores in
        # seeded order, so the total is the same for every seed while each
        # core's size and every byte of data come from the seed.
        sizes = [base + step * i for i in range(self.n_cores)]
        rng.shuffle(sizes)
        self.payloads = [rng.randbytes(n) for n in sizes]

    def setup(self):
        from repro.core.build import BeethovenBuild
        from repro.kernels.memcpy import memcpy_config
        from repro.platforms import SimulationPlatform
        from repro.runtime import FpgaHandle

        build = BeethovenBuild(memcpy_config(n_cores=self.n_cores), SimulationPlatform())
        handle = FpgaHandle(build.design)
        bufs = []
        for data in self.payloads:
            src, dst = handle.malloc(len(data)), handle.malloc(len(data))
            src.write(data)
            handle.copy_to_fpga(src)
            bufs.append((src, dst))
        return build, handle, bufs

    def run(self, state) -> int:
        _, handle, bufs = state
        start = handle.cycle
        futures = [
            handle.call(
                "Memcpy", "memcpy", core,
                src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=len(src),
            )
            for core, (src, dst) in enumerate(bufs)
        ]
        for fut in futures:
            fut.get(max_cycles=50_000_000)
        return handle.cycle - start

    def verify(self, state, cycles: int) -> Verdict:
        build, _, bufs = state
        # Read the device memory directly: a copy_from_fpga DMA would step
        # the whole design again and is not part of what is measured.
        store = build.design.controller.store
        failed = sum(
            store.read(dst.fpga_addr, len(data)) != data
            for (_, dst), data in zip(bufs, self.payloads)
        )
        n_bytes = sum(len(d) for d in self.payloads)
        clock_hz = build.platform.clock_mhz * 1e6
        sim = {
            "sim_cycles": cycles,
            "sim_gbps": n_bytes / (cycles / clock_hz) / 1e9,
        }
        stable = build.metrics(stable_only=True)
        return Verdict(
            attempted=len(bufs),
            failed=failed,
            sim=sim,
            notes=[f"{len(bufs)} cores copied {n_bytes} bytes in {cycles} cycles"],
            digest=_digest(sorted(stable.items(), key=lambda kv: kv[0])),
        )


def _nearest_rank(sorted_values: List[int], q: float) -> int:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Serving:
    """The ``asymmetric`` serving profile on the two-system delay-core design."""

    name = "serving"
    min_repeats = 3
    cycle_rate = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.loadgen_seed = seed
        self.n_requests = 8 if tiny else 1200
        # Budget, not a target: the bursty tenant's arrivals span about
        # 4000 cycles per request.
        self.max_cycles = 8000 * self.n_requests + 200_000

    def setup(self):
        from repro.runtime import FpgaHandle
        from repro.serve.loadgen import LoadGenerator
        from repro.serve.scenarios import hetero_build, profile_loads
        from repro.serve.service import AcceleratorService

        build = hetero_build()
        handle = FpgaHandle(build.design)
        loads = profile_loads("asymmetric", self.n_requests)
        service = AcceleratorService(handle, [load.tenant for load in loads])
        tickets = []
        submit = service.submit

        def submit_and_keep(*args, **kwargs):
            ticket = submit(*args, **kwargs)
            tickets.append(ticket)
            return ticket

        service.submit = submit_and_keep
        gen = LoadGenerator(service, loads, seed=self.loadgen_seed)
        return build, gen, tickets

    def run(self, state):
        _, gen, _ = state
        return gen.run(max_cycles=self.max_cycles)

    def verify(self, state, report) -> Verdict:
        build, _, tickets = state
        totals = report.totals
        fifo = int(build.metrics("runtime/server/fifo_violations")[
            "runtime/server/fifo_violations"
        ])
        unsettled = sum(1 for t in tickets if t.outcome not in ("ok", "failed"))
        latencies = sorted(
            t.latency for t in tickets if t.tenant != "flood" and t.outcome == "ok"
        )
        cycles = report.elapsed_cycles
        p99_beyond = len(latencies) - math.ceil(0.99 * len(latencies))
        sim = {
            "sim_cycles": cycles,
            "p50_latency_cycles": _nearest_rank(latencies, 0.50),
            "p99_latency_cycles": _nearest_rank(latencies, 0.99),
            "goodput_per_mcycle": totals["completed"] * 1e6 / cycles,
            "reject_frac": totals["rejected"] / totals["submitted"],
        }
        notes = [
            f"{totals['submitted']} requests offered, {totals['rejected']} rejected "
            f"by admission, {totals['completed']} completed, "
            f"{totals['failed']} failed, {fifo} FIFO violations",
            f"latency percentiles over {len(latencies)} completed non-flood "
            f"requests ({p99_beyond} beyond p99)",
            "open-loop generator lateness: 0 cycles by construction "
            "(arrivals are scheduled in simulated time)",
        ]
        if p99_beyond < 10:
            notes.append(f"WARNING: only {p99_beyond} samples beyond p99")
        return Verdict(
            attempted=totals["submitted"],
            failed=totals["failed"] + unsettled + (1 if fifo else 0),
            sim=sim,
            notes=notes,
            digest=_digest(
                report.to_dict(),
                sorted(build.metrics(stable_only=True).items(), key=lambda kv: kv[0]),
            ),
        )


#: Resource that limits each kernel's core count (paper Section III-B).
FIG6_LIMITERS = {
    "gemm": "LUT",
    "nw": "BRAM",
    "stencil2d": "BRAM",
    "stencil3d": "BRAM",
    "md-knn": "LUT",
}


class Fig6Sweep:
    """``fig6_all``: pack cores until place/route fails, then measure."""

    name = "fig6_sweep"
    min_repeats = 3
    cycle_rate = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        # The Table I workloads are fixed inputs; the seed changes nothing.
        self.max_cores = 4 if tiny else 48
        self.tiny = tiny

    def setup(self):
        cold_import("repro.kernels.machsuite.fig6")

    def run(self, state):
        from repro.kernels.machsuite.fig6 import fig6_all

        return fig6_all(max_cores=self.max_cores)

    def verify(self, state, rows) -> Verdict:
        failed = 0
        notes = []
        for row in rows:
            ok = row.beethoven_measured_speedup > 1 and (
                self.tiny or row.limiter == FIG6_LIMITERS.get(row.bench)
            )
            failed += not ok
            notes.append(
                f"{row.bench}: {row.n_cores} cores, limited by {row.limiter}, "
                f"measured {row.beethoven_measured_speedup:.2f}x over HLS"
                + ("" if ok else "  <-- FAILED shape check")
            )
        speedups = [row.beethoven_measured_speedup for row in rows]
        sim = {
            "fig6_speedup_geomean": math.exp(
                sum(math.log(s) for s in speedups) / len(speedups)
            )
            if all(s > 0 for s in speedups)
            else 0.0,
        }
        return Verdict(
            attempted=len(rows),
            failed=failed,
            sim=sim,
            notes=notes,
            digest=_digest([vars(row) for row in rows]),
        )


class Chaos:
    """``run_chaos_sweep`` over every scenario, default scheduling mode."""

    name = "chaos"
    cycle_rate = False
    #: The cost of a chaos run depends on its seed's fault plan, so a repeat
    #: covers many seeds (12-15 s on two CPUs) and a run holds two repeats.
    min_repeats = 2

    def __init__(self, seed: int, tiny: bool = False) -> None:
        n = 1 if tiny else 48
        self.seeds = range(seed * n, seed * n + n)

    def setup(self):
        cold_import("repro.faults.chaos")

    def run(self, state):
        from repro.faults.chaos import run_chaos_sweep

        return run_chaos_sweep(self.seeds, modes=("selective",))

    def verify(self, state, outcomes) -> Verdict:
        violations = [o for o in outcomes if o.violates_contract]
        tally: Dict[Tuple[str, str], int] = {}
        for o in outcomes:
            tally[(o.scenario, o.outcome)] = tally.get((o.scenario, o.outcome), 0) + 1
        notes = [
            f"seeds {self.seeds.start}..{self.seeds.stop - 1}: "
            + ", ".join(f"{sc}/{out}={n}" for (sc, out), n in sorted(tally.items()))
        ]
        notes += [
            f"CONTRACT VIOLATION {o.scenario} seed={o.seed}: {o.outcome} ({o.error})"
            for o in violations
        ]
        return Verdict(
            attempted=len(outcomes),
            failed=len(violations),
            sim={"sim_cycles": sum(o.cycles for o in outcomes)},
            counts={
                "faults.injected": sum(o.n_faults for o in outcomes),
                "chaos.runs": len(outcomes),
            },
            notes=notes,
            digest=_digest([
                (o.scenario, o.seed, o.outcome, o.cycles, o.n_faults, o.fingerprint)
                for o in outcomes
            ]),
        )


WORKLOADS = {w.name: w for w in (MemcpyDense, Serving, Fig6Sweep, Chaos)}
