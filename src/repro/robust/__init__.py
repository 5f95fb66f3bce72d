"""Overload- and gray-failure-robustness plane.

Two cooperating mechanisms keep the stack on the good side of the
metastable-failure cliff:

* :mod:`repro.robust.admission` — bounded per-class admission at the
  target (queue-depth cap, optional tenant QoS) with
  ordering-aware suffix shedding, plus the token-bucket retry budget the
  initiator driver uses to bound retransmission storms;
* :mod:`repro.robust.health` — per-target EWMA health scores and a
  circuit breaker, so unordered flows steer around a fail-slow target
  while ordered streams (which cannot migrate) surface brownout errors.

Everything here is deterministic and free when not installed: a cluster
without an admission controller, retry budget or health monitor performs
zero extra RNG draws and schedules zero extra events.
"""

from repro.robust.admission import AdmissionConfig, AdmissionController, RetryBudget
from repro.robust.health import HealthConfig, HealthMonitor, TargetHealth

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "RetryBudget",
    "HealthConfig",
    "HealthMonitor",
    "TargetHealth",
]
