#!/usr/bin/env python3
"""Crash recovery across two target servers (§4.4, Figure 6).

Twelve streams issue ordered writes striped over two target servers; power
fails on both targets mid-flight.  After restart, Rio's recovery:

1. collects surviving ordering attributes from each target's PMR,
2. rebuilds per-server lists, merges them into the global order,
3. erases every data block beyond each stream's surviving prefix.

The example then *proves* the §4.8 prefix property against the simulated
SSDs' ground truth: for every stream there is a k such that groups 1..k
are fully durable and no later group left any data behind.

Run:  python examples/multi_target_recovery.py
"""

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment

STREAMS = 12
WRITES_PER_STREAM = 60
CRASH_AT = 500e-6  # mid-flight


def main():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,), (OPTANE_905P,)))
    rio = RioDevice(cluster, num_streams=STREAMS)

    def writer(stream_id):
        core = cluster.initiator.cpus.pick(stream_id)
        for i in range(WRITES_PER_STREAM):
            yield from rio.write_ordered(
                core, stream_id, lba=stream_id * 1_000_000 + i * 2,
                nblocks=1, payload=[(stream_id, i + 1)],
            )

    for stream_id in range(STREAMS):
        env.process(writer(stream_id))

    env.run(until=CRASH_AT)
    print(f"t={env.now * 1e6:.0f}us: power failure on both target servers")
    for target in cluster.targets:
        target.crash()
    env.run(until=env.now + 200e-6)
    for target in cluster.targets:
        target.restart()
    print("targets restarted; running initiator recovery...")

    holder = {}

    def recover(env):
        core = cluster.initiator.cpus.pick(0)
        holder["report"] = yield from rio.recovery().run_initiator_recovery(core)

    env.run_until_event(env.process(recover(env)))
    report = holder["report"]

    print(f"\nrecovery report:")
    print(f"  attributes scanned : {report.records_scanned}")
    print(f"  rebuild time       : {report.rebuild_seconds * 1e6:.0f} us")
    print(f"  data recovery time : {report.data_recovery_seconds * 1e6:.0f} us")
    print(f"  extents discarded  : {report.discarded_extents}")

    # ---- verify the prefix property against SSD ground truth ----
    violations = 0
    for stream_id in range(STREAMS):
        prefix = report.prefixes.get(stream_id, 0)
        for i in range(WRITES_PER_STREAM):
            seq = i + 1
            vol_lba = stream_id * 1_000_000 + i * 2
            ns, local = rio.volume.locate(vol_lba)
            payload = ns.target.ssds[ns.nsid].durable_payload(local)
            if seq <= prefix and payload != (stream_id, seq):
                violations += 1
            if seq > prefix and payload is not None:
                violations += 1
    print(f"\nper-stream surviving prefixes: "
          f"{[report.prefixes.get(s, 0) for s in range(STREAMS)]}")
    print(f"prefix-property violations: {violations}")
    assert violations == 0
    print("OK: every post-crash state is a valid ordered prefix (§4.8).")


if __name__ == "__main__":
    main()
