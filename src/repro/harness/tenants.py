"""Multi-tenant experiment: per-class knee curves and the noisy-neighbor
storm.

Both modes of a ``tenants`` :class:`~repro.spec.ScenarioSpec` ride the
sweep runner / result cache (:func:`tenants_sweep` builds the sweep,
:func:`repro.spec.run_scenario` runs it; CLI ``repro tenants``):

* **knee curves** (:func:`tenants_sweep`) — the ``repro saturate``
  offered-load sweep with the tenant plane layered on: a Zipf-skewed
  tenant population mapped onto the streams by a
  :class:`~repro.tenants.TenantDirectory`, optional diurnal rate
  modulation, optional QoS admission, and per-class
  (``gold``/``silver``/``bronze``) p50/p99/p999 columns.  A *degenerate*
  configuration (no Zipf skew, no diurnal, no QoS) reduces bit-exactly
  to the existing :func:`~repro.harness.saturate.probe_saturation`
  cells — same digests, same rows — so warm caches carry over.
* **noisy-neighbor storm** (:func:`probe_noisy_neighbor` /
  :func:`storm_sweep`, ``repro tenants --storm``) — the acceptance
  scenario: one quiet gold tenant and one bronze aggressor offering a
  multiple of the target's capacity.  With QoS on, the aggressor is
  paced/shed at target admission (token bucket + weighted-fair deficit)
  and the gold p999 stays within its SLO; with QoS off the same seed
  demonstrably violates it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.experiment import LAYOUTS, FigureResult
from repro.harness.saturate import knee_point, saturation_sweep
from repro.harness.sweep import RunSpec, Sweep

__all__ = [
    "probe_tenants",
    "probe_noisy_neighbor",
    "tenants_sweep",
    "storm_sweep",
    "tenants_report",
]

#: Tenant classes reported as per-class columns, in severity order.
_CLASS_NAMES = ("gold", "silver", "bronze")

#: The storm's driver hardening: QFULL requeues with backoff turn
#: target-side sheds into initiator-side pacing (the overload plane's
#: ``full`` protection profile).
_STORM_COMMAND_TIMEOUT = 1.5e-3
_STORM_QFULL_BACKOFF = 20e-6


def _storm_hardening():
    from repro.nvmeof.initiator import DriverHardening

    return DriverHardening(
        command_timeout=_STORM_COMMAND_TIMEOUT,
        max_retries=5,
        backoff=2.0,
        jitter=0.25,
        retry_budget_ratio=0.1,
        retry_budget_cap=8.0,
        qfull_backoff=_STORM_QFULL_BACKOFF,
        qfull_max_requeues=256,
        fail_fast=True,
    )


def _install_qos(cluster, directory, quantum: float) -> list:
    """Arm every target with a QoS admission controller; returns them."""
    from repro.robust.admission import (
        AdmissionConfig,
        AdmissionController,
        TenantQos,
    )

    controllers = []
    for target in cluster.targets:
        controller = AdmissionController(
            AdmissionConfig(max_inflight_ordered=128,
                            max_inflight_unordered=128),
            qos=TenantQos.from_directory(directory, quantum=quantum),
        )
        target.install_admission(controller)
        controllers.append(controller)
    return controllers


def _shed_counts(cluster) -> Dict[str, float]:
    """Aggregate admission shed counters over every target."""
    by_reason: Dict[str, float] = {}
    total = 0.0
    for target in cluster.targets:
        if target.admission is None:
            continue
        total += target.admission.shed
        for reason, n in target.admission.shed_by_reason.items():
            by_reason[reason] = by_reason.get(reason, 0.0) + n
    return {
        "sheds": total,
        "shed_pace": by_reason.get("pace", 0.0),
        "shed_wfq": by_reason.get("wfq", 0.0),
    }


def probe_tenants(
    system: str,
    layout: str,
    offered_kiops: float,
    initiators: int = 2,
    streams: int = 4,
    num_tenants: int = 64,
    zipf_alpha: float = 1.1,
    diurnal_amplitude: float = 0.0,
    diurnal_period: float = 1e-3,
    qos: bool = False,
    quantum: float = 8.0,
    duration: float = 2e-3,
    warmup: float = 0.5e-3,
    write_blocks: int = 1,
    pattern: str = "rand",
    steering: str = "pin",
    seed: int = 42,
) -> Dict[str, float]:
    """One tenant-plane load point: fresh testbed, one open-loop run.

    Top-level and scalar-valued so the sweep runner can execute it in a
    worker process and key it in the content-addressed result cache.
    """
    from repro.scale import (
        OpenLoopConfig,
        ScaleOutCluster,
        ShardedStack,
        run_open_loop,
    )
    from repro.sim.engine import Environment
    from repro.tenants import (
        DiurnalProfile,
        TenantDirectory,
        TenantTrafficPlane,
    )

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    env = Environment()
    cluster = ScaleOutCluster(
        env, LAYOUTS[layout], num_initiators=initiators, seed=seed,
        steering=steering,
        hardening=_storm_hardening() if qos else None,
    )
    stack = ShardedStack(cluster, system, num_streams=max(streams, 1))
    directory = TenantDirectory(
        num_tenants=num_tenants, num_streams=max(streams, 1), seed=seed,
        zipf_alpha=zipf_alpha,
    )
    plane = TenantTrafficPlane(
        directory,
        diurnal=DiurnalProfile(amplitude=diurnal_amplitude,
                               period=diurnal_period),
    )
    if qos:
        _install_qos(cluster, directory, quantum)
    run = run_open_loop(
        cluster, stack,
        OpenLoopConfig(
            offered_iops=offered_kiops * 1e3, tenants=max(streams, 1),
            duration=duration, warmup=warmup, write_blocks=write_blocks,
            pattern=pattern, seed=seed,
        ),
        plane=plane,
    )
    row: Dict[str, float] = {
        "offered_kiops": offered_kiops,
        "achieved_kiops": run.achieved_iops / 1e3,
        "p50_us": run.latency.p50 * 1e6,
        "p99_us": run.latency.p99 * 1e6,
        "p999_us": run.latency.p999 * 1e6,
        "initiator_busy_cores": run.initiator_busy_cores,
        "target_busy_cores": run.target_busy_cores,
        "kiops_per_core": run.iops_per_busy_core / 1e3,
        "samples": float(run.latency.count),
    }
    for name, stats in plane.class_summary().items():
        for key in ("count", "p50_us", "p99_us", "p999_us"):
            row[f"{name}_{key}"] = stats[key]
    row.update(_shed_counts(cluster))
    return row


def _is_degenerate(num_tenants: int, zipf_alpha: Optional[float],
                   diurnal_amplitude: float, qos: bool) -> bool:
    """True when the tenant plane adds nothing over plain saturation:
    no skew requested (``zipf_alpha`` None/0), no diurnal breathing, no
    QoS — or a single-tenant population, which cannot skew at all."""
    if qos or diurnal_amplitude != 0.0:
        return False
    return num_tenants == 1 or not zipf_alpha


def tenants_sweep(spec) -> Sweep:
    """The experiment of a ``tenants`` :class:`~repro.spec.ScenarioSpec`:
    the knee curves as independent cells + a reduce step, or the storm
    (:func:`storm_sweep`) when ``workload.mode`` is ``storm``.

    A degenerate configuration (see :func:`_is_degenerate`) *is* the
    saturation sweep: the very same ``probe_saturation`` cells — same
    digests, so a warm ``repro saturate`` cache satisfies it with zero
    executions — reduced to the very same rows.
    """
    from repro.spec import ScenarioSpec

    workload, topology = spec.workload, spec.topology
    if workload["mode"] == "storm":
        return storm_sweep(spec)
    streams, num_tenants = workload["streams"], workload["num_tenants"]
    diurnal_amplitude, qos = workload["diurnal_amplitude"], workload["qos"]
    if _is_degenerate(num_tenants, workload["zipf_alpha"],
                      diurnal_amplitude, qos):
        base = saturation_sweep(ScenarioSpec.from_dict({
            "scenario": "saturate",
            "topology": topology,
            "workload": {
                key: workload[key]
                for key in ("systems", "loads_kiops", "duration", "seed")
            } | {"tenants": streams},  # one generator lane per stream
        }))
        return Sweep(name="tenants", specs=base.specs, reduce=base.reduce)

    systems = workload["systems"]
    layout, initiators = topology["layout"], topology["initiators"]
    # Null skew is a uniform population: Zipf with alpha 0.
    zipf_alpha = workload["zipf_alpha"] or 0.0
    loads = sorted(workload["loads_kiops"])
    cells = [(system, load) for system in systems for load in loads]
    specs = [
        RunSpec.make(
            probe_tenants,
            label=f"tenants/{system}/{load:g}k",
            system=system, layout=layout, offered_kiops=load,
            initiators=initiators, streams=streams,
            num_tenants=num_tenants, zipf_alpha=zipf_alpha,
            diurnal_amplitude=diurnal_amplitude,
            diurnal_period=workload["diurnal_period"], qos=qos,
            quantum=workload["quantum"], duration=workload["duration"],
            steering=topology["steering"], seed=workload["seed"],
        )
        for system, load in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Tenants",
            description=(
                f"tenant-plane offered-load sweep, {layout}, "
                f"{initiators} initiator(s), {num_tenants} tenant(s) over "
                f"{streams} stream(s), zipf_alpha={zipf_alpha:g}, "
                f"diurnal_amplitude={diurnal_amplitude:g}, "
                f"qos={'on' if qos else 'off'}: per-class tail-latency "
                "knee curves"
            ),
            headers=[
                "system", "offered_kiops", "achieved_kiops", "p99_us",
                "gold_p999_us", "silver_p999_us", "bronze_p999_us",
                "sheds",
            ],
        )
        for (system, _load), run in zip(cells, results):
            result.add(
                system=system,
                offered_kiops=run["offered_kiops"],
                achieved_kiops=round(run["achieved_kiops"], 1),
                p99_us=round(run["p99_us"], 2),
                gold_p999_us=round(run.get("gold_p999_us", 0.0), 2),
                silver_p999_us=round(run.get("silver_p999_us", 0.0), 2),
                bronze_p999_us=round(run.get("bronze_p999_us", 0.0), 2),
                sheds=run.get("sheds", 0.0),
            )
        for system in systems:
            knee = knee_point(result, system)
            if knee is not None:
                result.notes.append(
                    f"{system} knee: {knee['achieved_kiops']:g} kIOPS "
                    f"achieved at {knee['offered_kiops']:g} kIOPS offered; "
                    f"gold p999 {knee['gold_p999_us']:g} us, bronze p999 "
                    f"{knee['bronze_p999_us']:g} us"
                )
        return result

    return Sweep(name="tenants", specs=specs, reduce=reduce)


# ----------------------------------------------------------------------
# The noisy-neighbor storm (acceptance scenario)
# ----------------------------------------------------------------------


def _storm_class(tenant: int) -> str:
    """Storm tenancy: tenant 0 is the quiet gold tenant, everyone else
    is bronze (the aggressor)."""
    return "gold" if tenant == 0 else "bronze"


class _StormPlane:
    """Two-lane tenant plane: lane/stream 0 = gold, lane 1 = bronze."""

    def __init__(self):
        from repro.tenants import ClassAccountant, DEFAULT_CLASSES

        self.accountant = ClassAccountant(DEFAULT_CLASSES)
        self.ops_by_class: Dict[str, int] = {}

    def peak_factor(self) -> float:
        return 1.0

    def keep(self, rng, now: float) -> bool:
        return True

    def pick(self, stream: int, rng) -> int:
        return stream  # lane identity: tenant id == stream id

    def record(self, tenant: int, latency_s: float) -> None:
        name = _storm_class(tenant)
        self.accountant.record(name, latency_s)
        self.ops_by_class[name] = self.ops_by_class.get(name, 0) + 1

    def class_summary(self):
        return self.accountant.summary()


def probe_noisy_neighbor(
    system: str,
    layout: str = "optane",
    gold_kiops: float = 20.0,
    aggressor_kiops: float = 40.0,
    aggressor_lanes: int = 30,
    aggressor_blocks: int = 32,
    gold_slo_p999_us: float = 2_000.0,
    pace_kiops: float = 0.1,
    qos: bool = True,
    quantum: float = 8.0,
    duration: float = 3e-3,
    warmup: float = 2e-3,
    steering: str = "pin",
    seed: int = 42,
) -> Dict[str, float]:
    """The seeded storm: a quiet gold tenant vs. a bronze aggressor.

    The aggressor fans ``aggressor_kiops`` of *large* writes
    (``aggressor_blocks`` blocks — 128 KB at the default) over
    ``aggressor_lanes`` ordered streams, about twice what the device's
    serialized media pipe can program; the gold tenant offers
    ``gold_kiops`` of small writes on its own stream.  Large writes are
    the channel that hurts *every* compared system: the SSD programs
    media serially, so even linux's one-op-per-stream dispatch keeps the
    pipe backlogged by ``aggressor_lanes`` big writes and the gold
    tenant's 4 KB op waits milliseconds behind them (many lanes, because
    the compared systems serialize dispatch per stream — a single-stream
    aggressor could never flood the device).  With ``qos=True`` the
    target's admission pacing (a token bucket capped at ``pace_kiops``
    per aggressor tenant, plus the weighted-fair deficit) sheds the
    aggressor at the door — before any data is fetched or media touched —
    the driver's QFULL backoff paces it, and tenant-class core steering
    keeps gold's receive/completion processing on a private core slice;
    the gold tenant's p999 stays within ``gold_slo_p999_us``.  With
    ``qos=False`` the same seed drives the same storm through an
    unprotected target and demonstrably violates the SLO.
    """
    from repro.robust.admission import (
        AdmissionConfig,
        AdmissionController,
        QosClass,
        TenantQos,
    )
    from repro.scale import (
        OpenLoopConfig,
        ScaleOutCluster,
        ShardedStack,
        run_open_loop,
    )
    from repro.sim.engine import Environment

    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r} (have {sorted(LAYOUTS)})")
    if aggressor_lanes < 1:
        raise ValueError("need at least one aggressor lane")
    env = Environment()
    cluster = ScaleOutCluster(
        env, LAYOUTS[layout], num_initiators=1, seed=seed,
        steering=steering,
        # QFULL requeue/backoff turns target sheds into initiator-side
        # pacing; the unprotected run has no sheds to pace (and no
        # timeouts to mask the queueing it is meant to expose).
        hardening=_storm_hardening() if qos else None,
    )
    lanes = 1 + aggressor_lanes
    stack = ShardedStack(cluster, system, num_streams=lanes)
    if qos:
        tenant_qos = TenantQos(
            (
                QosClass("gold", weight=8.0),
                # burst=1: a big-write token banked per lane is ~60 us of
                # media occupancy, so idle credit must stay shallow.
                QosClass("bronze", weight=1.0,
                         rate_iops=pace_kiops * 1e3, burst=1.0),
            ),
            classifier=_storm_class,
            quantum=quantum,
        )
        for target in cluster.targets:
            target.install_admission(AdmissionController(
                AdmissionConfig(max_inflight_ordered=128,
                                max_inflight_unordered=128),
                qos=tenant_qos,
            ))
            target.install_tenant_steering(
                _storm_class, {"gold": (0.0, 0.2), "bronze": (0.2, 1.0)})
    plane = _StormPlane()
    run = run_open_loop(
        cluster, stack,
        OpenLoopConfig(
            offered_iops=(gold_kiops + aggressor_kiops) * 1e3,
            tenants=lanes, duration=duration, warmup=warmup,
            seed=seed,
            weights=(gold_kiops,) + (
                aggressor_kiops / aggressor_lanes,) * aggressor_lanes,
            blocks=(1,) + (aggressor_blocks,) * aggressor_lanes,
        ),
        plane=plane,
    )
    summary = plane.class_summary()
    gold = summary.get("gold", {})
    bronze = summary.get("bronze", {})
    row: Dict[str, float] = {
        "offered_kiops": gold_kiops + aggressor_kiops,
        "achieved_kiops": run.achieved_iops / 1e3,
        "gold_kiops": gold_kiops,
        "aggressor_kiops": aggressor_kiops,
        "gold_count": gold.get("count", 0.0),
        "gold_p50_us": gold.get("p50_us", 0.0),
        "gold_p99_us": gold.get("p99_us", 0.0),
        "gold_p999_us": gold.get("p999_us", 0.0),
        "bronze_count": bronze.get("count", 0.0),
        "bronze_p999_us": bronze.get("p999_us", 0.0),
        "gold_slo_p999_us": gold_slo_p999_us,
        "qos": 1.0 if qos else 0.0,
    }
    # The SLO covers availability too: a gold op that never completes
    # inside the window (starved behind the aggressor's backlog) is the
    # extreme tail, so "within SLO" requires both the p999 bound and
    # that at least half the expected gold ops actually completed.
    expected = gold_kiops * 1e3 * duration
    row["gold_expected"] = expected
    row["gold_complete_ratio"] = (
        gold.get("count", 0.0) / expected if expected else 0.0)
    row["gold_within_slo"] = (
        1.0
        if (0.0 < row["gold_p999_us"] <= gold_slo_p999_us
            and row["gold_complete_ratio"] >= 0.5)
        else 0.0
    )
    row.update(_shed_counts(cluster))
    return row


def storm_sweep(spec) -> Sweep:
    """The storm matrix (system x QoS on/off) of a ``tenants`` spec in
    ``storm`` mode, as one cached sweep."""
    workload = spec.workload
    cells = [(system, qos) for system in workload["systems"]
             for qos in (True, False)]
    specs = [
        RunSpec.make(
            probe_noisy_neighbor,
            label=f"storm/{system}/qos-{'on' if qos else 'off'}",
            system=system, qos=qos, quantum=workload["quantum"],
            duration=workload["duration"], seed=workload["seed"],
        )
        for system, qos in cells
    ]

    def reduce(results: List[Dict]) -> FigureResult:
        result = FigureResult(
            name="Noisy neighbor",
            description=(
                "seeded noisy-neighbor storm: bronze aggressor at a "
                "multiple of capacity vs. one quiet gold tenant; QoS "
                "admission paces the aggressor so the gold p999 holds "
                "its SLO"
            ),
            headers=[
                "system", "qos", "gold_p999_us", "gold_slo_p999_us",
                "gold_done", "within_slo", "bronze_p999_us", "sheds",
                "shed_pace", "shed_wfq",
            ],
        )
        for (system, qos), run in zip(cells, results):
            result.add(
                system=system,
                qos="on" if qos else "off",
                gold_p999_us=round(run["gold_p999_us"], 2),
                gold_slo_p999_us=run["gold_slo_p999_us"],
                gold_done=round(run["gold_complete_ratio"], 2),
                within_slo="yes" if run["gold_within_slo"] else "NO",
                bronze_p999_us=round(run["bronze_p999_us"], 2),
                sheds=run["sheds"],
                shed_pace=run["shed_pace"],
                shed_wfq=run["shed_wfq"],
            )
        for (system, qos), run in zip(cells, results):
            if qos and not run["gold_within_slo"]:
                result.notes.append(
                    f"{system}: gold p999 {run['gold_p999_us']:g} us "
                    f"EXCEEDS SLO {run['gold_slo_p999_us']:g} us with QoS on"
                )
            if not qos and run["gold_within_slo"]:
                result.notes.append(
                    f"{system}: storm did not violate the gold SLO with "
                    "QoS off (aggressor too weak to demonstrate pacing)"
                )
        if not result.notes:
            result.notes.append(
                "all systems: QoS on holds the gold SLO under the storm; "
                "QoS off violates it (both directions demonstrated)"
            )
        return result

    return Sweep(name="tenants-storm", specs=specs, reduce=reduce)


def tenants_report(result: FigureResult) -> Dict:
    """A JSON-stable report of a tenant figure (golden-file friendly)."""
    return {
        "name": result.name,
        "headers": list(result.headers),
        "rows": [dict(row) for row in result.rows],
        "notes": list(result.notes),
    }
