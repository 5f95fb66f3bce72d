"""Meta-benchmark: how fast the simulator itself runs on the host.

Unlike the figure benchmarks (deterministic single runs), these use
pytest-benchmark the classic way — repeated timed rounds — to track the
host-side cost of the event engine and the full stack.  Useful when
optimizing the simulator or picking window sizes for high-fidelity runs.

The engine tests are *gated*: each asserts a throughput floor so a
regression on the hot path (``Event``/``Timeout`` allocation, the
``Environment.run`` dispatch loop) fails the suite instead of silently
slowing every sweep.  Floors are deliberately set well below healthy
dev-host numbers to absorb CI-host variance; override via
``REPRO_ENGINE_EVENTS_FLOOR`` (events/s) when tracking a faster baseline.
For reference, the ``__slots__``/inlined-run-loop fast path moved
``test_engine_event_throughput`` from ~630K to ~1.0M events/s on the
1-core dev container (a ~60% improvement; the PR that introduced it
required >=20%).
"""

import os

from repro.block.mq import BlockLayer
from repro.block.request import Bio
from repro.cluster import Cluster
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment

#: Safety-net floor for raw event dispatch, in events per host second.
#: The dev container does ~1.0M; pre-optimization code did ~630K; any
#: host dipping under this has a real engine regression (or is too slow
#: to produce meaningful figure runs at all).
ENGINE_EVENTS_FLOOR = float(os.environ.get("REPRO_ENGINE_EVENTS_FLOOR",
                                           "250000"))

#: Floor for full-stack simulated writes per host second (the end-to-end
#: cost includes the block layer, driver, fabric and SSD model on top of
#: the engine).
STACK_WRITES_FLOOR = float(os.environ.get("REPRO_STACK_WRITES_FLOOR",
                                          "1500"))


def test_engine_event_throughput(benchmark):
    """Raw timeout-event processing rate of the kernel (gated)."""

    EVENTS = 5000

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(EVENTS):
                yield env.timeout(1e-6)

        env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0
    events_per_sec = EVENTS / benchmark.stats.stats.mean
    benchmark.extra_info["events_per_sec"] = events_per_sec
    assert events_per_sec > ENGINE_EVENTS_FLOOR, (
        f"engine hot path regressed: {events_per_sec:,.0f} events/s "
        f"(floor {ENGINE_EVENTS_FLOOR:,.0f})"
    )


def test_engine_process_churn(benchmark):
    """Spawn/finish cost: many short-lived processes joining each other.

    Exercises the bootstrap-event, ``succeed`` and processed-target resume
    paths that figure workloads hit on every request completion.
    """

    PROCS = 1500

    def run():
        env = Environment()

        def leaf(env):
            yield env.timeout(1e-7)
            return 1

        def parent(env):
            total = 0
            for _ in range(PROCS):
                total += yield env.process(leaf(env))
            return total

        done = env.process(parent(env))
        env.run()
        assert done.value == PROCS
        return done.value

    result = benchmark(run)
    assert result == PROCS
    procs_per_sec = PROCS / benchmark.stats.stats.mean
    benchmark.extra_info["procs_per_sec"] = procs_per_sec
    # Each leaf is ~4 engine events; gate at 1/4 of the raw-event floor.
    assert procs_per_sec > ENGINE_EVENTS_FLOOR / 4, (
        f"process churn regressed: {procs_per_sec:,.0f} procs/s"
    )


def test_end_to_end_write_cost(benchmark):
    """Host cost of one simulated remote 4 KB write, full stack (gated)."""

    WRITES = 200

    def run():
        env = Environment()
        cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
        layer = BlockLayer(env, cluster.driver, cluster.volume())
        core = cluster.initiator.cpus.pick(0)

        def proc(env):
            for i in range(WRITES):
                done = yield from layer.submit_bio(
                    core, Bio(op="write", lba=i, nblocks=1)
                )
                yield done

        env.run_until_event(env.process(proc(env)))
        return cluster.driver.commands_sent

    commands = benchmark(run)
    assert commands == WRITES
    writes_per_sec = WRITES / benchmark.stats.stats.mean
    benchmark.extra_info["writes_per_sec"] = writes_per_sec
    assert writes_per_sec > STACK_WRITES_FLOOR, (
        f"full-stack write cost regressed: {writes_per_sec:,.0f} writes/s "
        f"(floor {STACK_WRITES_FLOOR:,.0f})"
    )


def test_saturated_iops_simulation_rate(benchmark):
    """Simulated-IOPS-per-wall-second at device saturation (QD 32)."""

    def run():
        env = Environment()
        cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
        layer = BlockLayer(env, cluster.driver, cluster.volume())
        core = cluster.initiator.cpus.pick(0)
        count = [0]

        def writer(env):
            inflight = []
            i = 0
            while env.now < 2e-3:
                done = yield from layer.submit_bio(
                    core, Bio(op="write", lba=i * 2, nblocks=1)
                )
                i += 1
                inflight.append(done)
                if len(inflight) >= 32:
                    yield env.any_of(inflight)
                    count[0] += sum(1 for e in inflight if e.triggered)
                    inflight = [e for e in inflight if not e.triggered]

        env.process(writer(env))
        env.run(until=2e-3)
        return count[0]

    ops = benchmark(run)
    assert ops > 500  # ~1000 simulated ops in the 2 ms window
    benchmark.extra_info["sim_ops_per_wall_sec"] = (
        ops / benchmark.stats.stats.mean
    )

