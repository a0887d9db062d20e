"""Simulation-kernel hot-path microbenchmark: cycles/sec, naive vs selective.

Two 32-core memcpy configurations exercise the scheduling spectrum:

* ``sparse`` — one active core out of 32, continuously streaming: traffic
  is in flight every cycle while 90+% of components are idle.  This is the
  configuration selective scheduling exists for.
* ``dense``  — all 32 cores streaming concurrently: near-worst case for
  selective scheduling (most components wake most cycles), so the gain
  comes from the compiled dispatch loop (fused chains, flat commit drain)
  rather than from elided ticks.

Each case builds one design per schedule and then alternates timed
repetitions between them (``REPS`` each), so slow drift of the host hits
both sides alike.  Reported per schedule: median and IQR of wall time and
of ``process_time`` over the repetitions (elaboration and DMA set-up
excluded).  Cycle counts must be identical between the schedules — the
benchmark doubles as a differential check — and the speedup is the ratio
of the median wall times.

Run as a script to emit ``BENCH_kernel.json``::

    python benchmarks/bench_kernel_hotpath.py --quick --out BENCH_kernel.json
"""

import argparse
import json
import statistics
import time

from repro.core.build import BeethovenBuild, BuildMode
from repro.kernels.memcpy import memcpy_config
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle
from repro.sim import SCHEDULING_MODES

N_CORES = 32
REPS = 5  # timed repetitions per schedule, alternating between schedules


def _spread(samples):
    """Median and interquartile range of ``samples``."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return round(statistics.median(samples), 6), round(q3 - q1, 6)


class _Cell:
    """One (case, schedule) design with its buffers copied in."""

    def __init__(self, active_cores, size, scheduling):
        build = BeethovenBuild(
            memcpy_config(n_cores=N_CORES),
            SimulationPlatform(),
            BuildMode.Simulation,
            scheduling=scheduling,
        )
        self.handle = FpgaHandle(build.design)
        self.sim = build.design.sim
        self.size = size
        self.bufs = []
        for core in range(active_cores):
            src, dst = self.handle.malloc(size), self.handle.malloc(size)
            src.write(bytes((i + core) % 256 for i in range(size)))
            self.handle.copy_to_fpga(src)
            self.bufs.append((src, dst))
        self.start_cycle = self.handle.cycle
        self.walls = []
        self.cpus = []

    def repeat(self, rounds):
        """One timed repetition: ``rounds`` memcpys per active core."""
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(rounds):
            futures = [
                self.handle.call(
                    "Memcpy", "memcpy", core,
                    src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=self.size,
                )
                for core, (src, dst) in enumerate(self.bufs)
            ]
            for fut in futures:
                fut.get(max_cycles=50_000_000)
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)

    def result(self):
        sim = self.sim
        cycles = self.handle.cycle - self.start_cycle  # across all repetitions
        wall, wall_iqr = _spread(self.walls)
        cpu, cpu_iqr = _spread(self.cpus)
        executed = sum(sim.component_ticks(c) for c in sim._components)
        possible = sim.cycle * len(sim._components)
        return {
            "cycles": cycles,
            "reps": len(self.walls),
            "wall_seconds": wall,
            "wall_iqr_seconds": wall_iqr,
            "cpu_seconds": cpu,
            "cpu_iqr_seconds": cpu_iqr,
            "cycles_per_second": round(cycles / len(self.walls) / wall, 1),
            "executed_ticks": executed,
            "elided_tick_fraction": round(1.0 - executed / possible, 4),
            "n_components": len(sim._components),
        }


def _run_case(name, active_cores, size, rounds):
    cells = {m: _Cell(active_cores, size, m) for m in SCHEDULING_MODES}
    for _ in range(REPS):
        for cell in cells.values():
            cell.repeat(rounds)
    modes = {m: cell.result() for m, cell in cells.items()}
    cycles = {m["cycles"] for m in modes.values()}
    if len(cycles) != 1:
        raise AssertionError(
            f"{name}: schedules disagree on cycle count: "
            f"{ {s: m['cycles'] for s, m in modes.items()} }"
        )
    return {
        "active_cores": active_cores,
        "size_bytes": size,
        "rounds": rounds,
        "modes": modes,
        "speedup": {
            "selective_vs_naive": round(
                modes["naive"]["wall_seconds"] / modes["selective"]["wall_seconds"], 2
            ),
        },
    }


def run_benchmark(quick=False):
    sparse_size = 32_768
    dense_size = 8_192 if quick else 32_768
    return {
        "n_cores": N_CORES,
        "quick": quick,
        "cases": {
            "sparse": _run_case("sparse", 1, sparse_size, rounds=3),
            "dense": _run_case("dense", N_CORES, dense_size, rounds=1),
        },
    }


def render(results) -> str:
    lines = [
        f"{'case':<8} {'schedule':<10} {'cycles':>8} {'wall(s)':>9} {'iqr':>7} "
        f"{'cpu(s)':>8} {'iqr':>7} {'cyc/s':>9} {'elided':>7}"
    ]
    for case, data in results["cases"].items():
        for sched, m in data["modes"].items():
            lines.append(
                f"{case:<8} {sched:<10} {m['cycles']:>8} "
                f"{m['wall_seconds']:>9.3f} {m['wall_iqr_seconds']:>7.3f} "
                f"{m['cpu_seconds']:>8.3f} {m['cpu_iqr_seconds']:>7.3f} "
                f"{m['cycles_per_second']:>9.0f} {m['elided_tick_fraction']:>6.1%}"
            )
        lines.append(
            f"{case:<8} selective speedup (median wall): "
            f"{data['speedup']['selective_vs_naive']}x vs naive"
        )
    return "\n".join(lines)


def check_gates(results, min_sparse, min_dense):
    """Failure messages for every median speedup below its floor."""
    failures = []
    for case, floor in (("sparse", min_sparse), ("dense", min_dense)):
        measured = results["cases"][case]["speedup"]["selective_vs_naive"]
        if floor and measured < floor:
            failures.append(
                f"{case} selective-vs-naive median speedup {measured}x "
                f"< required {floor}x"
            )
    return failures


def test_kernel_hotpath_speedup():
    """Selective scheduling wins >= 3x median wall clock over the naive
    oracle on both the sparse 1-of-32 and the dense 32-of-32 configuration,
    cycle-exactly (cycle equality is enforced inside ``_run_case``)."""
    results = run_benchmark(quick=True)
    print()
    print(render(results))
    assert not check_gates(results, 3.0, 3.0)
    # Selective elides the idle 31 cores' fabric almost entirely...
    sparse = results["cases"]["sparse"]
    assert sparse["modes"]["selective"]["elided_tick_fraction"] > 0.8
    # ...while naive by definition elides nothing.
    assert sparse["modes"]["naive"]["elided_tick_fraction"] == 0.0
    assert results["cases"]["dense"]["modes"]["selective"]["elided_tick_fraction"] > 0.0
    with open("BENCH_kernel.json", "w") as fh:
        json.dump(results, fh, indent=2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller dense case")
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument(
        "--min-sparse-speedup", type=float, default=3.0,
        help="fail unless selective's median wall beats naive's by this "
        "factor on the sparse case (0 disables)",
    )
    parser.add_argument(
        "--min-dense-speedup", type=float, default=3.0,
        help="fail unless selective's median wall beats naive's by this "
        "factor on the dense case (0 disables)",
    )
    args = parser.parse_args()
    results = run_benchmark(quick=args.quick)
    print(render(results))
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {args.out}")
    failures = check_gates(results, args.min_sparse_speedup, args.min_dense_speedup)
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
