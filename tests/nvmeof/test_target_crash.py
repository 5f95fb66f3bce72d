"""A target crash unwinds an admitted command's admission slot and span."""

from repro.block.mq import BlockLayer
from repro.block.request import Bio
from repro.cluster import Cluster
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment
from repro.sim.obs import Observability


def test_crash_during_ssd_service_frees_the_admission_slot_and_closes_the_span():
    env = Environment()
    obs = Observability(env)
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    target = cluster.targets[0]
    target.install_admission()
    admission = target.admission
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    core = cluster.initiator.cpus.pick(0)
    completions = []

    def writer(env):
        done = yield from layer.submit_bio(
            core, Bio(op="write", lba=4, nblocks=1, payload=["x"])
        )
        completions.append(done)

    env.process(writer(env))
    # Step until the admitted write is inside the SSD.
    while not any(not s.closed for s in obs.spans.by_name("ssd.service")):
        assert env.peek() < 1e-3, "the write never reached the SSD"
        env.step()
    assert admission.inflight("unordered") == 1

    target.crash()
    env.run(until=env.now + 100e-6)
    target.restart()
    env.run(until=env.now + 100e-6)

    assert admission.inflight("ordered") == 0
    assert admission.inflight("unordered") == 0
    [admit] = obs.spans.by_name("target.admit")
    assert admit.closed
    assert admit.attrs.get("crashed") == 1
    # No response reached the driver: the command is still pending and
    # the bio never completed.
    assert cluster.driver.pending_count() == 1
    [done] = completions
    assert not done.triggered
