"""DRAM bank state machine.

Each bank tracks its open row and the cycle at which it next accepts a
command.  Row management is combined precharge+activate ("prep"): switching
rows costs ``t_rp + t_rcd`` cycles (respecting ``t_ras`` minimum open time),
after which column commands to the open row are unconstrained — at a 250 MHz
controller clock a DDR4 part sustains more than one 64-byte column per cycle,
so the shared data bus, not per-bank column timing, is the streaming limit.
The controller's tick (:mod:`repro.dram.controller`) applies these rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DramTiming


@dataclass(slots=True)
class Bank:
    timing: DramTiming
    open_row: Optional[int] = None
    ready_at: int = 0  # cycle at which the bank next accepts a command
    activated_at: int = -(10**9)  # last activate, for t_ras
    # Statistics
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0
