"""Driver + target robustness plane end to end on a one-target cluster:
QFULL shed -> paced requeue, circuit-breaker brownouts, and the
gray-failure degrade fault."""

from repro.block.request import Bio, BlockRequest
from repro.cluster import Cluster
from repro.hw.ssd import OPTANE_905P
from repro.nvmeof.command import (
    STATUS_BROWNOUT,
    STATUS_OK,
)
from repro.nvmeof.initiator import DriverHardening
from repro.robust.admission import AdmissionConfig
from repro.robust.health import HealthMonitor
from repro.sim import Environment, FaultPlan


def make_cluster(hardening=None, admission=None):
    env = Environment()
    cluster = Cluster(
        env,
        target_ssds=((OPTANE_905P,),),
        initiator_cores=2,
        target_cores=2,
        num_qps=2,
        hardening=hardening,
    )
    if admission is not None:
        cluster.targets[0].install_admission(admission)
    return env, cluster


def submit_one(env, cluster, lba=0):
    core = cluster.initiator.cpus.pick(0)
    ns = cluster.namespaces[0]
    request = BlockRequest(op="write", lba=lba, nblocks=1,
                           bios=[Bio(op="write", lba=lba, nblocks=1)])
    request.qp_index = 0
    holder = {}

    def proc(env):
        holder["done"] = yield from cluster.driver.submit(core, ns, request)

    env.run_until_event(env.process(proc(env)))
    return holder["done"], request


QFULL_HARDENED = DriverHardening(
    command_timeout=1.5e-3, max_retries=5, backoff=2.0,
    qfull_backoff=10e-6, qfull_max_requeues=64,
)


def test_qfull_shed_requeues_until_everything_completes():
    """Overflowing a 1-deep admission window sheds, the pacer re-posts,
    and every command eventually completes OK — with zero watchdog
    retransmissions (the pacer owns shed commands) and zero SSD work
    for the shed attempts."""
    env, cluster = make_cluster(
        hardening=QFULL_HARDENED,
        admission=AdmissionConfig(max_inflight_ordered=1,
                                  max_inflight_unordered=1),
    )
    dones = []
    requests = []
    for i in range(6):
        done, request = submit_one(env, cluster, lba=2 * i)
        dones.append(done)
        requests.append(request)
    for done in dones:
        env.run_until_event(done, limit=10e-3)
    assert [r.status for r in requests] == [STATUS_OK] * 6
    driver = cluster.driver
    target = cluster.targets[0]
    assert driver.qfull_responses >= 1
    assert driver.commands_requeued >= 1
    assert target.commands_shed >= 1
    # The stay-in-queue invariant: the watchdog never retransmitted a
    # pacer-owned command.
    assert driver.retries == 0
    assert driver.commands_timed_out == 0
    # A shed costs the target one receive + one response, never SSD work.
    assert sum(s.commands_served for s in target.ssds) == 6
    driver.assert_no_leaks()


def test_sheds_are_free_of_admission_leaks():
    """Admission slots drain back to zero after a shed-heavy burst."""
    env, cluster = make_cluster(
        hardening=QFULL_HARDENED,
        admission=AdmissionConfig(max_inflight_ordered=1,
                                  max_inflight_unordered=1),
    )
    dones = [submit_one(env, cluster, lba=2 * i)[0] for i in range(4)]
    for done in dones:
        env.run_until_event(done, limit=10e-3)
    admission = cluster.targets[0].admission
    assert admission.inflight("ordered") == 0
    assert admission.inflight("unordered") == 0
    assert admission.admitted + admission.shed == \
        cluster.targets[0].commands_received


class _Attr:
    stream_id = 0
    server_pos = 0


def test_open_breaker_browns_out_ordered_submissions():
    env, cluster = make_cluster(hardening=QFULL_HARDENED)
    monitor = HealthMonitor(env=env)
    cluster.driver.health = monitor

    # Trip the breaker on the one target by feeding it a fail-slow
    # history the way the completion path would.
    name = cluster.targets[0].name
    for _ in range(20):
        monitor.observe(name, 10e-6, True, env.now)
    for _ in range(10):
        monitor.observe(name, 100e-6, True, env.now)
    assert monitor.target(name).state == "open"

    core = cluster.initiator.cpus.pick(0)
    ns = cluster.namespaces[0]
    request = BlockRequest(op="write", lba=0, nblocks=1,
                           bios=[Bio(op="write", lba=0, nblocks=1)])
    request.qp_index = 0
    request.attr = _Attr()  # ordered: cannot migrate off the sick target
    holder = {}

    def proc(env):
        holder["done"] = yield from cluster.driver.submit(core, ns, request)

    env.run_until_event(env.process(proc(env)))
    env.run_until_event(holder["done"], limit=1e-3)
    assert request.status == STATUS_BROWNOUT
    # The brownout is sticky: the stream is dead until re-established.
    request2 = BlockRequest(op="write", lba=2, nblocks=1,
                            bios=[Bio(op="write", lba=2, nblocks=1)])
    request2.qp_index = 0
    request2.attr = _Attr()
    holder2 = {}

    def proc2(env):
        holder2["done"] = yield from cluster.driver.submit(
            core, ns, request2
        )

    env.run_until_event(env.process(proc2(env)))
    env.run_until_event(holder2["done"], limit=1e-3)
    assert request2.status == STATUS_BROWNOUT
    assert cluster.driver.streams_killed == 1


def test_degrade_fault_inflates_and_restores_service():
    env, cluster = make_cluster(hardening=QFULL_HARDENED)
    plan = FaultPlan(seed=3).degrade(
        at=50e-6, target_index=0, factor=4.0, duration=200e-6,
    )
    plan.install(cluster)
    target = cluster.targets[0]

    done, request = submit_one(env, cluster, lba=0)
    env.run_until_event(done, limit=1e-3)
    healthy_latency = env.now
    assert request.status == STATUS_OK
    assert target.ssds[0].service_inflation == 1.0

    def wait_until(t):
        if t > env.now:
            env.run_until_event(env.process(_sleep(env, t - env.now)))

    def _sleep(env, dt):
        yield env.timeout(dt)

    wait_until(60e-6)
    assert target.ssds[0].service_inflation == 4.0
    assert target.nic.inflation == 4.0
    start = env.now
    done, request = submit_one(env, cluster, lba=2)
    env.run_until_event(done, limit=2e-3)
    degraded_latency = env.now - start
    assert request.status == STATUS_OK  # gray: slow, never an error
    assert degraded_latency > 2 * healthy_latency

    wait_until(300e-6)
    assert target.ssds[0].service_inflation == 1.0
    assert target.nic.inflation == 1.0
