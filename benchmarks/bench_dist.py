"""Sharded-simulation benchmark: wall-clock speedup from partitioning one SoC.

A compute-dense many-core design (``SpinCore``: real integer hashing every
busy cycle, so simulation cost scales with core count) is elaborated on a
synthetic multi-die device with deep SLR crossings (latency 32, so slice
barriers are 32 cycles apart) and run three ways:

* ``serial``  — the sharded structure with every partition advanced in one
  process: the bit-identity reference and the speedup baseline (it performs
  the same model work as a single-process build of the same netlist);
* ``fork:N``  — the same design forked over N worker processes that
  exchange bridge deltas at conservative slice barriers (lookahead = the
  SLR-crossing pipe latency).

Each configuration is run ``REPS`` times, alternating serial and fork runs
so slow drift of the host hits both sides alike.  Every run must agree
bit-for-bit on final cycle count and stable metrics — the benchmark doubles
as the differential harness.  Reported: median and IQR of the serial wall
time, and per worker count:

* ``wall_seconds``      — median fork wall time (IQR alongside);
* ``speedup``           — median serial wall / median fork wall (higher is
  better);
* ``barrier_wait_s``    — median of the supervisor's cumulative wall-clock
  wait at slice barriers for the slowest partition (host seconds, lower is
  better);
* ``barrier_wait_frac`` — median of that wait as a share of the run's wall
  time (lower is better).

Both barrier figures are host time and vary with host load; they are not
simulated cycles.

Parallel speedup is bounded by the host: N workers cannot beat serial on
fewer than N CPUs (the processes just timeshare).  The gate therefore
adapts — on hosts with >= 2 CPUs ``--min-speedup`` checks the best median
speedup among worker counts that fit the host; on a single-CPU host it
degrades to an *overhead* gate (every median speedup must stay within
``OVERHEAD_FLOOR`` of serial) so barrier-IPC regressions still fail the
build.  The JSON records ``host_cpus`` and which gate applied.

Run as a script to emit ``BENCH_dist.json``::

    python benchmarks/bench_dist.py --out BENCH_dist.json
    python benchmarks/bench_dist.py --quick --min-speedup 1.3   # CI floor
    python benchmarks/bench_dist.py --full                      # 256 cores / 8 workers
"""

import argparse
import json
import os
import statistics
import time

from repro.baselines.spin_core import spin_config
from repro.core.build import BeethovenBuild
from repro.dist import DistConfig
from repro.platforms import multi_die_platform
from repro.runtime import FpgaHandle

# Single-CPU fallback gate: fork may cost at most 1/OVERHEAD_FLOOR x serial.
OVERHEAD_FLOOR = 0.75
REPS = 5  # timed repetitions per configuration, alternating serial and fork


def _spread(samples):
    """Median and interquartile range of ``samples``."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return round(statistics.median(samples), 4), round(q3 - q1, 4)


def _host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def _run_once(n_cores, n_slrs, n_workers, engine, rounds, work_per_tick, latency):
    """One full run; returns (wall_seconds, cycles, stable_metrics, dist)."""
    build = BeethovenBuild(
        spin_config(n_cores, work_per_tick=work_per_tick),
        multi_die_platform(n_slrs, slr_crossing_latency=latency),
        distributed=DistConfig(n_workers=n_workers, engine=engine),
    )
    handle = FpgaHandle(build.design)
    t0 = time.perf_counter()
    futs = [
        handle.call("Spin", "spin", c, rounds=rounds + (c % 7), seed=c + 1)
        for c in range(n_cores)
    ]
    for fut in futs:
        fut.get(max_cycles=50_000_000)
    wall = time.perf_counter() - t0
    design = build.design
    cycles = design.sim.cycle
    stable = design.metrics(stable_only=True)
    dist = design.metrics(prefix="dist/")
    design.sim.shutdown()
    return wall, cycles, stable, dist


def _check_identical(label, cycles, stable, ref_cycles, ref_stable):
    if cycles != ref_cycles:
        raise AssertionError(f"{label} cycle count {cycles} != serial {ref_cycles}")
    if stable != ref_stable:
        diff = sorted(
            set(stable) ^ set(ref_stable)
            | {k for k in set(stable) & set(ref_stable) if stable[k] != ref_stable[k]}
        )
        raise AssertionError(
            f"{label} stable metrics diverged from serial "
            f"({len(diff)} keys, first: {diff[:5]})"
        )


def run_benchmark(n_cores, n_slrs, worker_counts, rounds, work_per_tick, latency):
    args = (rounds, work_per_tick, latency)
    serial_walls = []
    samples = {n: [] for n in worker_counts}  # n_workers -> [(wall, dist)]
    ref_cycles = ref_stable = None
    for _ in range(REPS):
        wall, cycles, stable, _ = _run_once(
            n_cores, n_slrs, worker_counts[0], "serial", *args
        )
        if ref_cycles is None:
            ref_cycles, ref_stable = cycles, stable
        _check_identical("serial", cycles, stable, ref_cycles, ref_stable)
        serial_walls.append(wall)
        for n_workers in worker_counts:
            wall, cycles, stable, dist = _run_once(
                n_cores, n_slrs, n_workers, "fork", *args
            )
            _check_identical(f"fork:{n_workers}", cycles, stable, ref_cycles, ref_stable)
            samples[n_workers].append((wall, dist))
    serial_wall, serial_iqr = _spread(serial_walls)
    runs = {}
    for n_workers, runs_n in samples.items():
        walls = [w for w, _ in runs_n]
        waits = [d["dist/barrier_wait_s"] for _, d in runs_n]
        wall, wall_iqr = _spread(walls)
        dist = runs_n[0][1]
        runs[f"workers_{n_workers}"] = {
            "n_workers": n_workers,
            "reps": len(runs_n),
            "wall_seconds": wall,
            "wall_iqr_seconds": wall_iqr,
            "speedup": round(serial_wall / wall, 3),
            "barrier_wait_s": _spread(waits)[0],
            "barrier_wait_frac": _spread([b / w for b, w in zip(waits, walls)])[0],
            "slices": dist["dist/slices"],
            "slice_width": dist["dist/slice_width"],
            "items_shipped": dist["dist/items_shipped"],
        }
    return {
        "n_cores": n_cores,
        "n_slrs": n_slrs,
        "rounds": rounds,
        "work_per_tick": work_per_tick,
        "slr_crossing_latency": latency,
        "host_cpus": _host_cpus(),
        "cycles": ref_cycles,
        "identical_stable_metrics": True,
        "n_stable_metrics": len(ref_stable),
        "reps": REPS,
        "serial_wall_seconds": serial_wall,
        "serial_wall_iqr_seconds": serial_iqr,
        "runs": runs,
    }


def apply_gate(results, min_speedup):
    """Return (ok, gate_record).  Speedup gate when the host has the CPUs
    to make parallel wall-clock physically possible, overhead gate else."""
    runs = list(results["runs"].values())
    host_cpus = results["host_cpus"]
    fitting = [r for r in runs if r["n_workers"] <= host_cpus]
    if fitting:
        best = max(r["speedup"] for r in fitting)
        return best >= min_speedup, {
            "mode": "speedup",
            "min_speedup": min_speedup,
            "best_fitting_median_speedup": best,
        }
    worst = min(r["speedup"] for r in runs)
    return worst >= OVERHEAD_FLOOR, {
        "mode": "overhead",
        "reason": f"host has {host_cpus} CPU(s); parallel speedup impossible",
        "overhead_floor": OVERHEAD_FLOOR,
        "worst_median_speedup": worst,
    }


def render(results) -> str:
    lines = [
        f"sharded {results['n_cores']}-core spin on "
        f"{results['n_slrs']}-die device (crossing latency "
        f"{results['slr_crossing_latency']}, host CPUs "
        f"{results['host_cpus']}): {results['cycles']} cycles, "
        f"serial median {results['serial_wall_seconds']:.2f}s "
        f"(IQR {results['serial_wall_iqr_seconds']:.2f}s) over {results['reps']} "
        f"alternating reps ({results['n_stable_metrics']} stable metrics, "
        f"all runs identical)",
        f"{'workers':>8} {'wall(s)':>9} {'iqr':>7} {'speedup':>8} "
        f"{'barrier(s)':>10} {'barrier%':>8} {'slices':>7}",
    ]
    for run in results["runs"].values():
        lines.append(
            f"{run['n_workers']:>8} {run['wall_seconds']:>9.2f} "
            f"{run['wall_iqr_seconds']:>7.2f} "
            f"{run['speedup']:>7.2f}x {run['barrier_wait_s']:>10.3f} "
            f"{run['barrier_wait_frac']:>8.1%} {run['slices']:>7}"
        )
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized: 32 cores on 4 dies, 2 workers only",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="ROADMAP point: 256 cores on 8 dies, up to 8 workers",
    )
    parser.add_argument("--out", default="BENCH_dist.json")
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless the best host-fitting median speedup beats serial "
        "by this factor (0 disables); local target 2.0 at 4 workers, CI "
        "floor 1.3 at 2 workers.  On a single-CPU host this degrades to the "
        f"overhead gate (every median speedup >= {OVERHEAD_FLOOR}x serial).",
    )
    args = parser.parse_args()

    if args.full:
        n_cores, n_slrs, workers, rounds = 256, 8, (2, 4, 8), 1500
    elif args.quick:
        n_cores, n_slrs, workers, rounds = 32, 4, (2,), 800
    else:
        n_cores, n_slrs, workers, rounds = 64, 4, (2, 4), 1500

    results = run_benchmark(
        n_cores, n_slrs, workers, rounds, work_per_tick=256, latency=32
    )
    ok = True
    if args.min_speedup:
        ok, gate = apply_gate(results, args.min_speedup)
        results["gate"] = gate
    print(render(results))
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {args.out}")
    if args.min_speedup:
        detail = json.dumps(results["gate"])
        if not ok:
            raise SystemExit(f"distributed bench gate failed: {detail}")
        print(f"gate passed: {detail}")


if __name__ == "__main__":
    main()
