"""Timing cost model of the simulated cluster (DESIGN.md §2/§3).

Converts partition-independent execution traces into simulated wall-clock
time. All constants are in abstract time units; only *ratios* matter for the
paper's findings (which system wins, by what factor, where crossovers are).

The paper's infrastructures map to presets:

* ``M2`` — scale-up AWS m4.2xlarge, k partitions over loopback TCP: remote
  messages cost more than local ones (serialization + TCP stack, paper §2)
  but there is no physical network.
* ``C1`` — scale-out 8-node cluster on 1-Gigabit Ethernet: remote messages
  and barrier round trips are markedly more expensive.
* ``M1`` — older 8 GB laptop (Fig. 6d): slower compute, loopback remote cost.

The 32-message TCP batching of paper §4.1(iv) is folded into the per-remote-
message constant (we price the *average* cost per message, post-batching).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Per-event costs of the simulated cluster."""

    comp_per_vertex: float = 2.0     # execute vertex function once
    msg_local: float = 0.05          # message within a worker (shared memory)
    msg_remote: float = 0.9          # message crossing workers (split 50/50
                                     # between sender serialization and
                                     # receiver deserialization)
    barrier_rtt: float = 8.0         # controller round trip per barrier
    barrier_per_worker: float = 2.0  # per participating worker sync cost
    iter_floor: float = 1.0          # per-iteration scheduling floor
    move_per_vertex: float = 0.2     # shipping one vertex at a global barrier
    network_ports: int | None = None # physical NICs: k workers beyond this
                                     # share ports (C1 has 8 nodes — k=16
                                     # means two workers per 1-GbE NIC,
                                     # paper §4.1/Fig. 7)

    def barrier_cost(self, group_size: int) -> float:
        """Cost of one barrier among ``group_size`` workers.

        A single-worker (*local*) query barrier is communication-free —
        the worker proceeds immediately (paper §3.3); otherwise a *limited*
        barrier pays one controller RTT plus a per-participant share, and a
        *global* barrier is the same with group_size = k.
        """
        if group_size <= 1:
            return 0.0
        return self.barrier_rtt + self.barrier_per_worker * group_size

    def remote_cost(self, k: int) -> float:
        """Per-remote-message cost with ``k`` workers: beyond the physical
        port count, workers share NIC bandwidth and the effective per-
        message cost multiplies by the sharing factor."""
        if self.network_ports is None or k <= self.network_ports:
            return self.msg_remote
        return self.msg_remote * (-(-k // self.network_ports))


# Infrastructure presets (paper Section 4.1, "Computing Infrastructures").
# Constants were calibrated once against the paper's BW/GY ratio structure
# (see EXPERIMENTS.md "Calibration") and are FROZEN for all tables.
M2 = CostModel()  # scale-up, loopback TCP — default for Figs 5, 6a-c, 6e-g
M1 = CostModel(comp_per_vertex=3.0, msg_remote=1.1, barrier_rtt=12.0)
C1 = CostModel(msg_remote=2.5, barrier_rtt=20.0, barrier_per_worker=4.0,
               network_ports=8)
