#!/usr/bin/env python3
"""Rio over NVMe/TCP: the same ordering guarantees without RDMA.

§4.5 Principle 2 notes that "each socket of the TCP stack has a similar
in-order delivery property", so Rio's design carries over to NVMe/TCP —
with a latency and CPU tax: data is copied through the socket stack on
both ends instead of being pulled by one-sided RDMA READs.

This example runs the same ordered workload on both transports and
contrasts throughput, latency and CPU — and shows that ordering,
durability and in-order completion hold identically on TCP.

Run:  python examples/nvme_over_tcp.py
"""

from repro.cluster import Cluster
from repro.core.api import RioDevice
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment

WRITES = 400


def run(transport):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),),
                      transport=transport)
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)
    release_order = []
    latencies = []

    def app(env):
        inflight = []
        for i in range(WRITES):
            started = env.now
            done = yield from rio.write_ordered(core, 0, lba=i * 2, nblocks=1,
                                                payload=[i])
            env.process(track(env, i, started, done))
            inflight.append(done)
            if len(inflight) >= 16:
                yield env.any_of(inflight)
                inflight = [e for e in inflight if not e.triggered]
        yield env.all_of(inflight)

    def track(env, i, started, done):
        yield done
        release_order.append(i)
        latencies.append(env.now - started)

    cluster.start_cpu_window()
    env.run_until_event(env.process(app(env)))
    cluster.stop_cpu_window()
    elapsed = env.now
    ssd = cluster.targets[0].ssds[0]
    assert release_order == list(range(WRITES)), "in-order completion broke!"
    assert all(ssd.durable_payload(i * 2) == i for i in range(WRITES))
    return {
        "transport": transport,
        "kiops": WRITES / elapsed / 1e3,
        "avg_us": sum(latencies) / len(latencies) * 1e6,
        "cpu": cluster.initiator.cpus.busy_time()
        + sum(t.cpus.busy_time() for t in cluster.targets),
    }


def main():
    print(f"{WRITES} ordered 4KB writes through Rio, QD 16\n")
    print(f"{'transport':10} {'kiops':>8} {'avg lat':>10} {'cpu-seconds':>12}")
    rows = [run("rdma"), run("tcp")]
    for row in rows:
        print(f"{row['transport']:10} {row['kiops']:>8.0f} "
              f"{row['avg_us']:>8.1f}us {row['cpu'] * 1e3:>10.2f}ms")
    rdma, tcp = rows
    print(f"\nTCP pays {tcp['avg_us'] / rdma['avg_us']:.1f}x the latency and "
          f"{tcp['cpu'] / rdma['cpu']:.1f}x the CPU for the same ordered,"
          f"\ndurable, in-order-completed semantics — Principle 2 at work.")


if __name__ == "__main__":
    main()
