"""Rio as an :class:`~repro.systems.base.OrderedStack` (adapter).

All the machinery lives in :mod:`repro.core`; this adapter only maps the
common stack interface onto :class:`repro.core.api.RioDevice` so the
experiment harness, the file systems and the workloads can switch systems
by name.  ``merging_enabled=False`` gives the paper's "Rio w/o merge"
ablation (Figure 12); ``qp_affinity=False`` ablates Principle 2.
"""

from __future__ import annotations

from typing import Optional

from repro.block.request import Bio
from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.cpu import Core
from repro.systems.base import OrderedStack

__all__ = ["RioStack"]


class RioStack(OrderedStack):
    name = "rio"

    def __init__(
        self,
        cluster: Cluster,
        volume=None,
        num_streams: Optional[int] = None,
        merging_enabled: bool = True,
        qp_affinity: bool = True,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.device = RioDevice(
            cluster,
            volume=volume,
            num_streams=num_streams,
            merging_enabled=merging_enabled,
            qp_affinity=qp_affinity,
        )
        if not merging_enabled:
            self.name = "rio-nomerge"
        self.volume = self.device.volume
        self.block_layer = self.device.block_layer

    def submit_ordered(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        """Returns the :meth:`RioDevice.submit` generator."""
        return self.device.submit(core, bio, end_of_group, flush, kick)

    # Recovery passthroughs (§4.4) — used by the recovery benchmark.

    def recovery(self):
        return self.device.recovery()

    @property
    def sequencer(self):
        return self.device.sequencer

    @property
    def scheduler(self):
        return self.device.scheduler
