"""Per-operation CPU cost constants for the I/O stack (seconds).

These calibrate the paper's Lesson 3 (§3.2): at NVMe/RDMA speeds the CPU
cycles spent per command — building WQEs, ringing doorbells, servicing
RECVs and interrupts — become a first-order performance term.  Values are
in line with published per-command costs for Linux NVMe-oF on ~2.2 GHz
Xeons (a two-sided SEND round costs roughly 1–2 µs of combined CPU).

All costs are grouped here so ablations and sensitivity studies can scale
them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CpuCosts", "DEFAULT_COSTS", "irq_cost"]


@dataclass(frozen=True)
class CpuCosts:
    """CPU seconds charged per operation, by stack layer."""

    # -- initiator side -----------------------------------------------------
    #: Block-layer handling of one bio (queueing, accounting).
    block_layer_per_bio: float = 0.30e-6
    #: Checking/applying a merge for one bio in the plug/ORDER queue.
    merge_per_bio: float = 0.12e-6
    #: Building one NVMe-oF command and posting the RDMA SEND.
    command_build_and_post: float = 0.70e-6
    #: Completion interrupt + callback for one response.
    completion_interrupt: float = 0.80e-6
    #: Rio sequencer: creating/compacting one ordering attribute.
    sequencer_per_bio: float = 0.15e-6

    # -- target side ----------------------------------------------------------
    #: Processing one received two-sided SEND (RECV completion, lookup).
    recv_process: float = 0.50e-6
    #: Posting the one-sided RDMA READ for a command's data.
    rdma_read_post: float = 0.20e-6
    #: Submitting one command to the local NVMe SSD.
    nvme_submit: float = 0.30e-6
    #: Handling one local NVMe completion.
    nvme_completion: float = 0.40e-6
    #: Building and posting the completion-response SEND.
    response_post: float = 0.30e-6

    # -- interrupt amortization ----------------------------------------------
    #: Fixed cost of taking one interrupt (entry/exit, cache pollution).
    #: Back-to-back messages within the coalescing window share it — which
    #: is why synchronous, low-rate I/O burns disproportionate CPU per op
    #: while pipelined traffic amortizes it (part of Lesson 3).
    irq_entry: float = 1.2e-6
    irq_coalesce_window: float = 5e-6
    #: Toggling the persist field: a posted MMIO store (no read-back — a
    #: later dependent read fences it), much cheaper than the full
    #: persistent append.
    pmr_toggle: float = 0.15e-6

    # -- NVMe over TCP (the no-RDMA transport; §4.5 Principle 2) -------------
    #: Kernel socket-stack cost per message per side (skb handling,
    #: segmentation, softirq) on top of the normal processing.
    tcp_stack_per_message: float = 1.8e-6
    #: Copy cost per 4 KB of inline data (no one-sided DMA with TCP: data
    #: is copied through the socket on both ends).
    tcp_copy_per_block: float = 0.40e-6


DEFAULT_COSTS = CpuCosts()


def irq_cost(
    costs: CpuCosts, last_irq: Dict[int, float], core_index: int, now: float
) -> float:
    """Interrupt entry cost on core ``core_index`` at ``now``, amortized
    under coalescing (Lesson 3).

    ``last_irq`` is the driver's core index -> last interrupt time map;
    this records ``now`` in it.  An interrupt within
    ``costs.irq_coalesce_window`` of the previous one on the same core
    rides along for free.
    """
    last = last_irq.get(core_index, -1.0)
    last_irq[core_index] = now
    if last >= 0 and now - last < costs.irq_coalesce_window:
        return 0.0
    return costs.irq_entry
