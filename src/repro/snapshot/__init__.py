"""Deterministic checkpoint/restore for Beethoven simulations.

``capture(handle)`` freezes the complete state of a single-process run —
cycle counter, every channel's contents and lag-credit bookkeeping,
per-component model state, skip accounting, metric registry, span
tracker, fault RNG positions and host-side command registry — into a
versioned :class:`Snapshot`; after rebuilding the same design and
replaying the host-side setup, ``restore(handle, snap); run(N)`` is
bit-identical to the uninterrupted run under both scheduling modes.

Distributed runs checkpoint at slice barriers via
``DistConfig(checkpoint_every_slices=...)``, which also arms fork-engine
worker failover: a killed worker is respawned and restored from the last
barrier checkpoint instead of raising terminal ``PartitionSyncTimeout``.
"""

from repro.snapshot.engine import (
    SNAPSHOT_VERSION,
    Freezer,
    Snapshot,
    SnapshotError,
    SnapshotVersionError,
    Thawer,
    capture,
    capture_partition_state,
    restore,
    restore_partition_state,
)
from repro.snapshot.store import (
    StageLog,
    consume_resumed_flag,
    job_checkpoint,
    job_checkpoint_path,
    load,
    note_job_resumed,
    save,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "Freezer",
    "Snapshot",
    "SnapshotError",
    "SnapshotVersionError",
    "StageLog",
    "Thawer",
    "capture",
    "capture_partition_state",
    "consume_resumed_flag",
    "job_checkpoint",
    "job_checkpoint_path",
    "load",
    "note_job_resumed",
    "restore",
    "restore_partition_state",
    "save",
]
