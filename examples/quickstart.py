#!/usr/bin/env python3
"""Quickstart: ordered remote writes through Rio in ~60 lines.

Builds a simulated testbed (one initiator, one target with an Optane SSD
and a PMR), opens a Rio ordered block device, and submits the classic
journaling pattern — a two-block journal write followed by a commit record
with an embedded FLUSH — then shows that:

* completions are delivered in submission order (in-order completion),
* the commit record is durable when its completion fires,
* consecutive requests were merged into fewer NVMe-oF commands.

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def main():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    rio = RioDevice(cluster, num_streams=4)  # rio_setup(4 streams)
    core = cluster.initiator.cpus.pick(0)
    completions = []

    def application(env):
        # Group 1: journal description + journaled metadata (2 blocks).
        # Requests inside a group may persist in any order relative to
        # each other, but the whole group persists before group 2.
        # kick=False stages the request in the ORDER queue so it can merge
        # with the commit record that follows (Principle 3).
        jm_done = yield from rio.write_ordered(
            core, stream_id=0, lba=0, nblocks=2,
            payload=["journal-desc", "journaled-inode"],
            end_of_group=True, kick=False,
        )
        # Group 2: the commit record; flush=True embeds a FLUSH so the
        # completion also means durability (the fsync contract).
        jc_done = yield from rio.write_ordered(
            core, stream_id=0, lba=2, nblocks=1,
            payload=["commit-record"],
            end_of_group=True, flush=True,
        )
        for name, event in (("journal-write", jm_done), ("commit", jc_done)):
            env.process(watch(env, name, event))
        yield env.all_of([jm_done, jc_done])  # rio_wait

    def watch(env, name, event):
        yield event
        completions.append((env.now * 1e6, name))

    env.run_until_event(env.process(application(env)))

    ssd = cluster.targets[0].ssds[0]
    print("completion order (in-order, time in us):")
    for when, name in completions:
        print(f"  {when:8.2f}  {name}")
    print("\ndurable blocks on the remote SSD:")
    for lba in range(3):
        print(f"  lba {lba}: {ssd.durable_payload(lba)!r}")
    print(f"\nNVMe-oF commands sent: {cluster.driver.commands_sent} "
          f"(3 blocks, merged across the group boundary)")
    print(f"ordering attributes persisted in PMR: "
          f"{len(cluster.targets[0].pmr.records())}")
    assert [name for _t, name in completions] == ["journal-write", "commit"]
    assert all(ssd.is_durable(lba) for lba in range(3))
    print("\nOK: ordered, durable, merged.")


if __name__ == "__main__":
    main()
