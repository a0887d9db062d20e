"""Deterministic checkpoint/restore: the ``repro.snapshot`` contract.

The core promise: ``restore(snapshot); run(N)`` is bit-identical — final
cycle, stable metrics, fault fingerprint, output data — to the
uninterrupted run, under every scheduling backend, with active fault
plans, across a save/load disk cycle.  On top of that contract ride the
three integration layers this file also covers: dist fork-engine worker
failover (a SIGKILLed worker rolls back to the last barrier checkpoint
instead of raising PartitionSyncTimeout), farm job resume after crashes
and hung-job kills, and the chaos ``checkpoint`` scenario.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.faults.chaos import GOOD_OUTCOMES, MODES, SCENARIOS, run_chaos
from repro.snapshot import SNAPSHOT_VERSION, SnapshotError, SnapshotVersionError
from repro.snapshot.scenario import (
    kill_and_resume_differential,
    run_checkpointed_memcpy,
)
from repro.snapshot.store import job_checkpoint_path, load, save

#: A seed whose chaos plan is known to inject faults (the differential under
#: it exercises fault-RNG positions and poison bookkeeping, not just queues).
FAULTY_SEED = 3

_COMPARE_KEYS = ("outcome", "cycles", "chunks", "n_faults", "fingerprint", "stable_metrics")


# ------------------------------------------------------- kill-and-resume
@pytest.mark.parametrize("mode", MODES)
def test_kill_and_resume_bit_identical(mode, tmp_path):
    """SIGKILL the process right after a checkpoint write; the resumed run
    must be bit-identical to an uninterrupted reference — per backend."""
    r = kill_and_resume_differential(FAULTY_SEED, mode, str(tmp_path))
    assert r["killed"], "the victim process was never actually SIGKILLed"
    assert r["resumed"], "the second run never restored from the checkpoint"
    assert r["n_faults"] > 0, "seed must inject faults for this to prove anything"
    assert r["match"], r["error"]


def test_resume_from_disk_under_active_fault_plan(tmp_path):
    """In-process variant (no fork): abandon after two checkpoints, resume
    from the file, compare against the uninterrupted reference."""
    path = str(tmp_path / "memcpy.ckpt")
    ref = run_checkpointed_memcpy(FAULTY_SEED, "selective")
    assert ref["n_faults"] > 0
    run_checkpointed_memcpy(
        FAULTY_SEED, "selective",
        checkpoint_path=path, checkpoint_every_chunks=1, stop_after_checkpoints=2,
    )
    assert os.path.exists(path)
    resumed = run_checkpointed_memcpy(
        FAULTY_SEED, "selective", checkpoint_path=path, checkpoint_every_chunks=1
    )
    assert resumed["resumed"]
    for key in _COMPARE_KEYS:
        assert resumed[key] == ref[key], key


# ------------------------------------------------------------- dist failover
def test_dist_fork_failover_survives_worker_kill(tmp_path):
    """A SIGKILLed worker under barrier checkpointing is respawned and the
    run rolls back — same final state as never having been killed, no
    PartitionSyncTimeout."""
    r = kill_and_resume_differential(FAULTY_SEED, "dist:fork", str(tmp_path))
    assert r["killed"]
    assert r["restarts"] >= 1, "failover never fired"
    assert r["outcome"] != "unexpected", r["error"]
    assert r["match"], r["error"]


def test_dist_serial_has_no_workers_to_kill(tmp_path):
    with pytest.raises(ValueError):
        kill_and_resume_differential(0, "dist:serial", str(tmp_path))


# ------------------------------------------------------------- chaos wiring
def test_checkpoint_scenario_registered():
    assert "checkpoint" in SCENARIOS


def test_checkpoint_chaos_outcome_allowed():
    o = run_chaos("checkpoint", "naive", FAULTY_SEED)
    assert o.scenario == "checkpoint"
    assert o.outcome in GOOD_OUTCOMES, o.error
    assert not o.violates_contract


# ------------------------------------------------------------ snapshot files
def test_snapshot_file_round_trip(tmp_path):
    path = str(tmp_path / "roundtrip.ckpt")
    run_checkpointed_memcpy(
        0, "naive", checkpoint_path=path,
        checkpoint_every_chunks=1, stop_after_checkpoints=1,
    )
    snap = load(path)
    assert snap.version == SNAPSHOT_VERSION
    assert snap.cycle > 0
    assert snap.meta["chunks_done"] == 1


def test_load_rejects_garbage_and_foreign_versions(tmp_path):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a snapshot")
    with pytest.raises(SnapshotError):
        load(str(garbage))

    wrong = tmp_path / "wrong-pickle.ckpt"
    with open(wrong, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(SnapshotError):
        load(str(wrong))

    path = str(tmp_path / "versioned.ckpt")
    run_checkpointed_memcpy(
        0, "naive", checkpoint_path=path,
        checkpoint_every_chunks=1, stop_after_checkpoints=1,
    )
    with open(path, "rb") as fh:
        envelope = pickle.load(fh)
    envelope["version"] = SNAPSHOT_VERSION + 999
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)
    with pytest.raises(SnapshotVersionError):
        load(path)


def test_job_checkpoint_path_is_version_addressed(tmp_path, monkeypatch):
    """A snapshot format bump must orphan old checkpoints, not restore them."""
    import repro.snapshot.store as store_mod

    p1 = job_checkpoint_path(str(tmp_path), "fp")
    assert p1.endswith(".ckpt") and str(tmp_path) in p1
    assert job_checkpoint_path(str(tmp_path), "fp") == p1
    assert job_checkpoint_path(str(tmp_path), "other") != p1
    monkeypatch.setattr(store_mod, "SNAPSHOT_VERSION", SNAPSHOT_VERSION + 1)
    assert job_checkpoint_path(str(tmp_path), "fp") != p1


# ---------------------------------------------------------------- farm resume
def _crashy_job(x):
    from repro.snapshot.store import job_checkpoint, note_job_resumed

    path, every = job_checkpoint()
    assert path and every == 4, (path, every)
    if os.path.exists(path):
        note_job_resumed()
        return x * 2
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("ckpt")
    os._exit(3)


def _sleepy_job(x):
    from repro.snapshot.store import job_checkpoint, note_job_resumed

    path, _every = job_checkpoint()
    if os.path.exists(path):
        note_job_resumed()
        return x + 100
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("ckpt")
    time.sleep(60)


def _needs_multiprocessing():
    from repro.farm.pool import multiprocessing_available

    if not multiprocessing_available():
        pytest.skip("multiprocessing unavailable")


def test_farm_job_resumes_after_worker_crash(tmp_path):
    _needs_multiprocessing()
    from repro.farm import Farm, Job

    farm = Farm(n_workers=2, cache_dir=str(tmp_path), default_timeout_s=30.0)
    (res,) = farm.run([Job(_crashy_job, (21,), checkpoint_every=4, cache=False)])
    assert res.ok and res.value == 42
    assert res.resumed_from_checkpoint
    assert res.crashes == 1 and res.attempts == 2
    assert not os.path.exists(res.job.checkpoint_path)  # retired on success
    assert farm.metrics()["farm/checkpoint_resumes"] == 1


def test_farm_job_resumes_after_hung_job_timeout(tmp_path):
    _needs_multiprocessing()
    from repro.farm import Farm, Job

    # n_workers=2 forces the real WorkerPool: the serial pool cannot enforce
    # timeouts (they are advisory in-process), so it cannot kill the hang.
    farm = Farm(n_workers=2, cache_dir=str(tmp_path), default_timeout_s=30.0)
    (res,) = farm.run(
        [Job(_sleepy_job, (7,), checkpoint_every=4, cache=False, timeout_s=2.0)]
    )
    assert res.ok and res.value == 107
    assert res.resumed_from_checkpoint
    assert not res.timed_out  # the *final* attempt completed
    assert res.attempts == 2


def test_farm_timeout_without_checkpoint_still_fails(tmp_path):
    """checkpoint-less hung jobs keep the historical fail-fast semantics."""
    _needs_multiprocessing()
    from repro.farm import Farm, Job

    farm = Farm(n_workers=2, cache_dir=str(tmp_path), default_timeout_s=30.0)
    (res,) = farm.run([Job("time:sleep", (60,), cache=False, timeout_s=1.5)])
    assert not res.ok
    assert res.timed_out


# ------------------------------------------------- state-dump caps + export
def test_compact_state_dump_caps_and_passthrough(tmp_path):
    from repro.sim.trace import compact_state_dump, export_state_dump

    dump = {
        "cycle": 5,
        "channels": {
            f"ch{i}": {"occupancy": i % 7, "staged": 0, "capacity": 8}
            for i in range(50)
        },
        "components": {f"comp{i}": {"state": "x" * 1000} for i in range(50)},
        "wake_heap": [(i, f"comp{i}") for i in range(50)],
        "restarts": {"count": 2},  # unknown keys pass through untouched
    }
    out = compact_state_dump(dump, max_channels=8, max_components=8, max_value_chars=64)
    assert len(out["channels"]) == 8 and out["channels_elided"] == 42
    assert len(out["components"]) == 8 and out["components_elided"] == 42
    assert len(out["wake_heap"]) == 8 and out["wake_heap_elided"] == 42
    assert out["restarts"] == {"count": 2}
    assert out["cycle"] == 5
    for state in out["components"].values():
        assert len(state["state"]) < 1000  # long reprs clipped in place
    # The capped dump is JSON-exportable (satellite: tools flag).
    path = tmp_path / "dump.json"
    export_state_dump(out, str(path))
    import json

    data = json.loads(path.read_text())
    assert data["channels_elided"] == 42


def test_deadlock_dump_is_capped(tmp_path):
    """DeadlockError on a large design carries a bounded dump."""
    from repro.baselines.spin_core import spin_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle
    from repro.sim import DeadlockError

    build = BeethovenBuild(spin_config(8, work_per_tick=4), AWSF1Platform())
    handle = FpgaHandle(build.design)
    fut = handle.call("Spin", "spin", 0, rounds=100_000, seed=1)
    with pytest.raises(DeadlockError) as excinfo:
        fut.get(max_cycles=50)
    dump = excinfo.value.dump
    assert len(dump.get("channels", {})) <= 64
    assert len(dump.get("components", {})) <= 64
    getattr(build.design.sim, "shutdown", lambda: None)()


# ----------------------------------------------------------- dist defaults
def test_dist_checkpoint_config_validation():
    from repro.dist import DistConfig, DistError

    assert DistConfig().checkpoint_every_slices == 0  # fail-fast by default
    with pytest.raises(DistError):
        DistConfig(checkpoint_every_slices=-1)
    with pytest.raises(DistError):
        DistConfig(max_restarts=-1)
