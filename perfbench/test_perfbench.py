"""Tests of the benchmark itself: a tiny pass of every workload.

    python3 -m pytest perfbench -q

Each workload runs through ``run.py`` the way the benchmark is invoked, at
``--tiny`` size, for two seeds and both trace modes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from run import ALL_METRICS_TAG, HERE, ROOT

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)
with open(os.path.join(HERE, "metrics.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_contract_matches_metadata():
    """BENCHMARK.json agrees with metrics.json on every metric it lists."""
    for section in ("end_to_end", "per_layer"):
        for m in CONTRACT[section]:
            info = SPEC[section][m["name"]]
            assert (m["unit"], m["better"]) == (info["unit"], info["better"])
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(SPEC["per_layer"])
    for name, info in {**SPEC["end_to_end"], **SPEC["per_layer"]}.items():
        assert NAME.match(name) and UNIT.match(info["unit"]), name
        assert info["better"] in ("higher", "lower")
        assert info["clock"] in ("host", "simulated", "both", "none")
        # Host seconds are never rescaled into cycles.
        assert not (name.endswith("_cycles") and info["clock"] == "host"), name
    for name in SPEC["per_layer"]:
        for metric, workload in SPEC["per_layer"][name]["should_move"]:
            assert metric in SPEC["end_to_end"] and workload in WORKLOADS, name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass(workload, trace):
    """Both seeds pass the checks and emit the same, complete metric set."""
    emitted = []
    for seed in (1, 2):  # seed 2 is held out: nothing was tuned on it
        proc = _run(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        section = "per_layer" if trace else "end_to_end"
        assert {
            name: m["unit"] for name, m in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in CONTRACT[section]}
        tagged = [ln for ln in lines if ln.startswith(ALL_METRICS_TAG)]
        metrics = json.loads(tagged[-1][len(ALL_METRICS_TAG):])
        if trace == 0:
            listed = {
                name for name, info in SPEC["end_to_end"].items()
                if workload in info["workloads"]
            }
            assert set(metrics) == listed
            assert metrics["fail_frac"] == 0
        emitted.append(sorted(metrics))
    assert emitted[0] == emitted[1]


def test_refuses_without_program(tmp_path):
    """With only BENCHMARK.json and perfbench present it exits non-zero."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("serving", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
