"""Run the benchmark over many seeds and summarise it, the way it is judged.

    python3 perfbench/sweep.py --seeds 1-10 --label <commit> --out perfbench/results/<commit>.json

For each workload: one ``--trace 0`` run per seed, then one ``--trace 1``
run on the first seed.  Every end-to-end metric gets its median, quartiles
(``statistics.quantiles(n=4)``), sample count and spread (interquartile
distance over the median), checked against the bounds in ``BENCHMARK.json``;
the traced run gives the per-layer values.  Runs go one at a time, so they
do not compete for the host.  Exits non-zero if any run failed its checks or
any gated spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import ALL_METRICS_TAG, HERE, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}
    result = json.loads(lines[-1])
    tagged = [ln for ln in lines if ln.startswith(ALL_METRICS_TAG)]
    result["all"] = json.loads(tagged[-1][len(ALL_METRICS_TAG):])
    return result


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    summary = {
        "label": args.label,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        started = time.time()
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "run_s": round((time.time() - started) / len(seeds), 1),
            "end_to_end": {},
        }
        ok &= entry["correct"]
        names = sorted({k for r in runs if r["correct"] for k in r["all"]})
        for name in names:
            stats = summarise([r["all"][name] for r in runs if r["correct"]])
            if name in bounds:
                stats["bound"] = bounds[name]
                # The spread of set-up time is reported, not gated.
                if name != "setup_s" and stats["spread"] > bounds[name]:
                    ok = False
            entry["end_to_end"][name] = stats
        if not args.no_trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            ok &= traced["correct"]
            entry["per_layer"] = {"seed": seeds[0], "n": 1, "values": traced.get("all", {})}
        summary["workloads"][workload] = entry
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            s = entry["end_to_end"].get(name)
            if s:
                print(f"{workload:<13} {name:<12} median {s['median']:.4g} "
                      f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                      f"(bound {bounds.get(name)})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
