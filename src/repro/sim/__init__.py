"""Deterministic discrete-event simulation kernel.

This package provides the virtual-time substrate that every hardware and
software model in the reproduction runs on: a classic event-heap scheduler
(:class:`~repro.sim.engine.Environment`), generator-based cooperative
processes (:class:`~repro.sim.engine.Process`), synchronization primitives
(events, timeouts, ``all_of``/``any_of`` conditions), queueing primitives
(:class:`~repro.sim.resources.Store`, :class:`~repro.sim.resources.Resource`)
and measurement helpers (:mod:`repro.sim.stats`).

The design deliberately mirrors the SimPy programming model (``yield
env.timeout(...)``), implemented from scratch so the reproduction has no
dependencies beyond the standard library.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimDeadlock,
    SimulationError,
    Timeout,
)
from repro.sim.faults import FaultPlan, FaultRecord
from repro.sim.resources import Resource, Store
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import BusyTracker, LatencyRecorder

__all__ = [
    "Environment",
    "Event",
    "FaultPlan",
    "FaultRecord",
    "Interrupt",
    "Process",
    "SimDeadlock",
    "SimulationError",
    "Timeout",
    "Resource",
    "Store",
    "DeterministicRNG",
    "BusyTracker",
    "LatencyRecorder",
]
