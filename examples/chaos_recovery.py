#!/usr/bin/env python3
"""Surviving transient faults: retries, reconnects and duplicate
suppression in action.

Two Rio streams issue ordered writes while a seeded fault plan injects
3% message loss, a queue-pair breakdown and a 150us target stall.  The
hardened initiator driver retransmits expired commands (same CID, same
ordering attribute), reconnects the broken queue pair and resubmits its
in-flight commands in order; the target's duplicate suppression makes
re-execution idempotent.  The example prints the fault/recovery trace and
then proves, from the target's audit log, that despite every
retransmission each ordered write hit the SSD exactly once and in
per-stream order — and that completions stayed in order at the initiator.

Run:  python examples/chaos_recovery.py
"""

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.nvmeof.initiator import DriverHardening
from repro.sim import Environment, FaultPlan
from repro.sim.obs import Observability

STREAMS = 2
GROUPS_PER_STREAM = 25


def main():
    env = Environment()
    obs = Observability(env)
    cluster = Cluster(
        env,
        target_ssds=((OPTANE_905P,),),
        initiator_cores=4,
        target_cores=4,
        num_qps=4,
        hardening=DriverHardening(
            command_timeout=300e-6,
            rpc_timeout=300e-6,
            max_retries=8,
            backoff=1.5,
            watch_liveness=True,  # a silent hang becomes SimDeadlock
        ),
    )
    rio = RioDevice(cluster, num_streams=STREAMS)
    plan = (
        FaultPlan(seed=11, message_loss=0.03)
        .qp_breakdown(at=120e-6, qp_index=0)
        .target_stall(at=200e-6, target_index=0, duration=150e-6)
    )
    plan.install(cluster)

    completions = []

    def writer(stream_id):
        core = cluster.initiator.cpus.pick(stream_id)
        for group in range(GROUPS_PER_STREAM):
            event = yield from rio.write_ordered(
                core, stream_id, lba=stream_id * 1_000_000 + group * 2,
                nblocks=1, payload=[(stream_id, group)],
            )
            event.callbacks.append(
                lambda _e, s=stream_id, g=group: completions.append((s, g))
            )

    writers = [env.process(writer(s)) for s in range(STREAMS)]
    env.run_until_event(env.all_of(writers), limit=50e-3)
    env.run(until=env.now + 2e-3)  # drain trailing completions/retries

    print("fault & recovery trace:")
    for record in obs.events:
        if record.category in ("fault", "driver") and record.event in (
                "qp_breakdown", "target_stall", "retry", "reconnect",
                "resubmit"):
            print(f"  {record}")

    driver = cluster.driver
    target = cluster.targets[0]
    total = STREAMS * GROUPS_PER_STREAM
    print(f"\ncompleted {len(completions)}/{total} ordered writes")
    print(f"messages dropped      : {plan.messages_dropped}")
    print(f"command retries       : {driver.retries}")
    print(f"reconnects            : {driver.reconnects}")
    print(f"commands resubmitted  : {driver.commands_resubmitted}")
    print(f"duplicates suppressed : {target.duplicates_suppressed}")

    # -- prove the invariants held ------------------------------------
    assert len(completions) == total, "forward progress lost"
    assert driver.retries + driver.commands_resubmitted > 0, \
        "the fault plan never bit — tune the seed"
    for stream in range(STREAMS):
        order = [g for s, g in completions if s == stream]
        assert order == sorted(order), f"stream {stream} completed out of order"
    assert target.duplicate_applies() == [], "a retransmit was applied twice"
    assert target.submission_order_violations() == [], \
        "per-stream SSD submission order regressed"
    driver.assert_no_leaks()
    print("\nall invariants held: in-order completion, single apply per "
          "write, no leaks")


if __name__ == "__main__":
    main()
