"""The tenant traffic plane the load generators layer over.

:class:`TenantTrafficPlane` bundles the three tenant-facing concerns the
generators in :mod:`repro.scale.loadgen` accept as their ``plane`` hook:

* **who** — Zipf-skewed member pick within each generator lane's stream
  (:meth:`pick`), so a few hot tenants dominate each stream the way
  production multi-tenant arrival logs do;
* **when** — diurnal thinning of peak-rate Poisson arrivals
  (:meth:`keep`), an exact rate modulation;
* **how it went** — per-class tail-latency accounting (:meth:`record`),
  p50/p99/p999 per ``gold``/``silver``/``bronze`` class over the
  log-bucketed histograms of :mod:`repro.sim.obs`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.rng import DeterministicRNG
from repro.tenants.directory import (
    ClassAccountant,
    DiurnalProfile,
    TenantDirectory,
)

__all__ = ["TenantTrafficPlane"]


class TenantTrafficPlane:
    """Directory + diurnal profile + per-class accounting, as one hook."""

    def __init__(
        self,
        directory: TenantDirectory,
        diurnal: Optional[DiurnalProfile] = None,
    ):
        self.directory = directory
        self.diurnal = diurnal if diurnal is not None else DiurnalProfile()
        self.accountant = ClassAccountant(directory.classes)

    # -- generator hooks ---------------------------------------------------

    def peak_factor(self) -> float:
        return self.diurnal.peak_factor()

    def keep(self, rng: DeterministicRNG, now: float) -> bool:
        return self.diurnal.keep(rng, now)

    def pick(self, stream: int, rng: DeterministicRNG) -> int:
        return self.directory.pick_member(
            stream % self.directory.num_streams, rng)

    def record(self, tenant: int, latency_s: float) -> None:
        self.accountant.record(self.directory.class_name_of(tenant),
                               latency_s)

    # -- results -----------------------------------------------------------

    def class_summary(self) -> Dict[str, Dict[str, float]]:
        return self.accountant.summary()
