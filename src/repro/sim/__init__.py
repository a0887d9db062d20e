"""Cycle-level simulation kernel used by every Beethoven substrate model."""

from repro.sim.kernel import (
    NEVER,
    SCHEDULING_MODES,
    ChannelQueue,
    Component,
    DeadlockError,
    PartitionSyncTimeout,
    SimulationError,
    Simulator,
)
from repro.sim.selective import SelectiveProgram
from repro.sim.trace import (
    NULL_TRACER,
    Span,
    TraceEvent,
    Tracer,
    compact_state_dump,
    export_state_dump,
    render_deadlock_report,
    render_skip_report,
    render_wake_report,
    skip_summary,
    wake_summary,
)

__all__ = [
    "ChannelQueue",
    "Component",
    "DeadlockError",
    "NEVER",
    "PartitionSyncTimeout",
    "SCHEDULING_MODES",
    "SelectiveProgram",
    "SimulationError",
    "Simulator",
    "Span",
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
    "compact_state_dump",
    "export_state_dump",
    "render_deadlock_report",
    "render_skip_report",
    "render_wake_report",
    "skip_summary",
    "wake_summary",
]
