"""Run one benchmark workload and report its metrics.

    python3 perfbench/run.py --workload memcpy_dense --seed 1 --seconds 20 --trace 0

Workloads: ``memcpy_dense``, ``serving``, ``fig6_sweep``, ``chaos`` (see
``workloads.py`` and ``metrics.json``).  The workload's inputs come from
``--seed``; the program under test is imported from ``src/`` next to this
directory.

``--trace 0`` repeats the workload (set-up, timed phase, checks) for about
``--seconds`` seconds, at least ``workload.min_repeats`` times (three, or
two for ``chaos``), and reports the end-to-end
metrics as medians over the repeats.  ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer metrics of the traced ones (see
``layers.py``); end-to-end metrics never come from a traced repeat.

Every repeat checks the program's outputs, and every simulated metric,
count and output digest must be identical across the repeats of a run,
traced or not.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are those
``BENCHMARK.json`` lists for the chosen trace mode.  The lines above it
print every metric with its unit and clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from layers import HISTORY_DEPENDENT_COUNTS, Probe
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Prefix of the line listing every metric the workload emitted.
ALL_METRICS_TAG = "all-metrics "


class BenchmarkError(Exception):
    """Outputs that differ between repeats of the same inputs."""


@dataclass
class Sample:
    """One repeat of a workload."""

    setup_s: float
    wall_s: float
    cpu_s: float
    verdict: Any
    counts: Optional[Dict[str, float]] = None
    host: Optional[Dict[str, float]] = None


def _cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure_repeat(workload, probe=None) -> Sample:
    """Set up, run and check one repeat; ``probe`` records layer data."""
    if probe is None:
        return _measure(workload, None)
    with probe.installed():
        return _measure(workload, probe)


def _measure(workload, probe) -> Sample:
    # Collect the previous repeat's garbage (and set-up's, below) outside
    # the timed regions, so no phase pays for another's allocations.
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup()
    setup_s = time.perf_counter() - t0
    if probe is not None:
        probe.start_timed_phase()
    gc.collect()
    cpu0 = _cpu_seconds()
    t1 = time.perf_counter()
    out = workload.run(state)
    wall_s = time.perf_counter() - t1
    cpu_s = _cpu_seconds() - cpu0
    verdict = workload.verify(state, out)
    sample = Sample(setup_s, wall_s, cpu_s, verdict)
    if probe is not None:
        sample.counts = probe.counts(verdict.counts)
        if probe.traced:
            sample.host = probe.host_times(wall_s)
    return sample


def _same(samples: List[Sample], what: str, get) -> None:
    first = get(samples[0])
    for i, s in enumerate(samples[1:], 1):
        if get(s) != first:
            raise BenchmarkError(
                f"{what} differs between repeat 0 and repeat {i}:\n"
                f"  {first}\n  {get(s)}"
            )


def check_repeatable(samples: List[Sample]) -> None:
    """Every deterministic output must be identical across repeats."""
    _same(samples, "simulated metrics", lambda s: s.verdict.sim)
    _same(samples, "output digest", lambda s: s.verdict.digest)
    _same(samples, "operation counts", lambda s: (s.verdict.attempted, s.verdict.failed))
    if samples[0].counts is not None:
        _same(
            samples,
            "per-layer counts",
            lambda s: {
                k: v for k, v in s.counts.items() if k not in HISTORY_DEPENDENT_COUNTS
            },
        )


def _keep_going(started: float, seconds: float, done: int, least: int, last: float) -> bool:
    elapsed = time.perf_counter() - started
    return done < least or elapsed + last <= seconds


def run_untraced(workload, seconds: float) -> List[Sample]:
    samples: List[Sample] = []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, len(samples), workload.min_repeats, last):
        t0 = time.perf_counter()
        samples.append(measure_repeat(workload))
        last = time.perf_counter() - t0
    return samples


def run_traced(workload, seconds: float):
    """Alternate untraced and traced repeats; returns (untraced, traced)."""
    plain: List[Sample] = []
    traced: List[Sample] = []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, len(traced), 1, last):
        t0 = time.perf_counter()
        plain.append(measure_repeat(workload, Probe(traced=False)))
        traced.append(measure_repeat(workload, Probe(traced=True)))
        last = time.perf_counter() - t0
    return plain, traced


def end_to_end(workload, samples: List[Sample]) -> Dict[str, float]:
    """Medians of the host metrics plus the (identical) simulated ones."""
    wall = statistics.median(s.wall_s for s in samples)
    out = {
        "setup_s": statistics.median(s.setup_s for s in samples),
        "wall_s": wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    verdict = samples[0].verdict
    out.update(verdict.sim)
    if workload.cycle_rate:
        out["sim_cycles_per_s"] = verdict.sim["sim_cycles"] / wall
    out["fail_frac"] = verdict.failed / verdict.attempted
    return out


def per_layer(plain: List[Sample], traced: List[Sample]) -> Dict[str, float]:
    # Counts as the program runs untraced; host times from the traced run.
    out: Dict[str, float] = dict(plain[0].counts)
    for name in traced[0].host:
        out[name] = statistics.median(s.host[name] for s in traced)
    out["obs.trace_overhead_frac"] = (
        statistics.median(s.wall_s for s in traced)
        / statistics.median(s.wall_s for s in plain)
        - 1.0
    )
    return out


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g}"


def print_table(title: str, values: Dict[str, float], spec: Dict[str, Any],
                spreads: Dict[str, str]) -> None:
    print(title)
    for name in spec:
        info = spec[name]
        shown = "n/a" if name not in values else f"{values[name]:.6g}"
        print(
            f"  {name:<26} {shown:>14} {info['unit']:<9} {info['clock']:<9} "
            f"{info['better']:<6} {spreads.get(name, '')}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few seconds of work, for the tests"
    )
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Checkpoint files and other scratch stay inside the checkout.
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch

    with open(os.path.join(HERE, "metrics.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    factory = WORKLOADS[args.workload]
    # Warm-up: import everything and fill lazy caches before timing.
    measure_repeat(factory(args.seed, tiny=True))
    workload = factory(args.seed, tiny=args.tiny)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    try:
        if args.trace:
            plain, traced = run_traced(workload, args.seconds)
            samples = plain + traced
            check_repeatable(samples)
            metrics = per_layer(plain, traced)
            section, table = "per_layer", spec["per_layer"]
            print(f"{len(plain)} untraced + {len(traced)} traced repeats")
        else:
            samples = run_untraced(workload, args.seconds)
            check_repeatable(samples)
            metrics = end_to_end(workload, samples)
            section, table = "end_to_end", spec["end_to_end"]
            print(f"{len(samples)} repeats")
    except BenchmarkError as exc:
        print(f"perfbench: NOT REPEATABLE: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    verdict = samples[0].verdict
    correct = verdict.failed == 0
    for note in verdict.notes:
        print(f"  {note}")
    spreads = {}
    if not args.trace:
        for key in ("setup_s", "wall_s", "cpu_s"):
            spreads[key] = _spread([getattr(s, key) for s in samples])
    print_table(f"{section} metrics (medians over repeats):", metrics, table, spreads)
    # Every metric this workload emits, for sweep.py and the tests.
    print(ALL_METRICS_TAG + json.dumps(metrics))
    if not correct:
        print(f"perfbench: {verdict.failed} of {verdict.attempted} operations FAILED",
              file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in contract[section]
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
