"""Driver hardening under faults: command expiry + retries, RPC timeouts,
error completions, breakdown resubmission, duplicate suppression."""

import pytest

from repro.block.request import Bio, BlockRequest
from repro.cluster import Cluster
from repro.hw.ssd import OPTANE_905P
from repro.nvmeof.command import STATUS_OK, STATUS_TIMEOUT
from repro.nvmeof.initiator import DriverHardening, RpcTimeout
from repro.sim import Environment, FaultPlan, SimDeadlock


def make_cluster(hardening=None, num_qps=2):
    env = Environment()
    cluster = Cluster(
        env,
        target_ssds=((OPTANE_905P,),),
        initiator_cores=2,
        target_cores=2,
        num_qps=num_qps,
        hardening=hardening,
    )
    return env, cluster


def submit_one(env, cluster, lba=0, qp_index=0):
    core = cluster.initiator.cpus.pick(0)
    ns = cluster.namespaces[0]
    request = BlockRequest(op="write", lba=lba, nblocks=1,
                           bios=[Bio(op="write", lba=lba, nblocks=1)])
    request.qp_index = qp_index
    holder = {}

    def proc(env):
        holder["done"] = yield from cluster.driver.submit(core, ns, request)

    env.run_until_event(env.process(proc(env)))
    return holder["done"], request


HARDENED = DriverHardening(
    command_timeout=100e-6, rpc_timeout=100e-6, max_retries=5, backoff=2.0
)


def test_retry_recovers_from_total_loss_window():
    """Drop everything for a while; the per-command watchdog retransmits
    until the network heals, and the command completes OK."""
    env, cluster = make_cluster(hardening=HARDENED)
    plan = FaultPlan(seed=1, message_loss=1.0)
    plan.install(cluster)

    def heal(env):
        yield env.timeout(150e-6)
        plan.message_loss = 0.0

    env.process(heal(env))
    done, request = submit_one(env, cluster)
    env.run_until_event(done, limit=5e-3)
    assert request.status == STATUS_OK
    assert cluster.driver.retries >= 1
    assert cluster.driver.commands_timed_out == 0
    cluster.driver.assert_no_leaks()


def test_exhausted_retry_budget_completes_in_error():
    env, cluster = make_cluster(
        hardening=DriverHardening(command_timeout=50e-6, max_retries=2)
    )
    plan = FaultPlan(seed=1, message_loss=1.0)  # never heals
    plan.install(cluster)
    done, request = submit_one(env, cluster)
    env.run_until_event(done, limit=5e-3)
    assert request.status == STATUS_TIMEOUT
    assert cluster.driver.retries == 2
    assert cluster.driver.commands_timed_out == 1
    cluster.driver.assert_no_leaks()


def test_error_status_fans_out_to_bios():
    """A timed-out request marks every covered bio via the block layer."""
    from repro.block.mq import BlockLayer

    env, cluster = make_cluster(
        hardening=DriverHardening(command_timeout=50e-6, max_retries=1)
    )
    plan = FaultPlan(seed=1, message_loss=1.0)
    plan.install(cluster)
    layer = BlockLayer(env, cluster.driver, cluster.volume())
    core = cluster.initiator.cpus.pick(0)
    bio = Bio(op="write", lba=0, nblocks=1)
    holder = {}

    def proc(env):
        holder["done"] = yield from layer.submit_bio(core, bio)

    env.run_until_event(env.process(proc(env)))
    env.run_until_event(holder["done"], limit=5e-3)
    assert bio.status == STATUS_TIMEOUT


def test_retransmit_does_not_burn_cpu():
    """Retries run from timer context: initiator busy time must not grow
    with the retry count."""
    env, cluster = make_cluster(
        hardening=DriverHardening(command_timeout=20e-6, max_retries=5)
    )
    plan = FaultPlan(seed=1, message_loss=1.0)
    plan.install(cluster)
    done, _request = submit_one(env, cluster)
    busy_after_submit = cluster.initiator.cpus.busy_time()
    env.run_until_event(done, limit=5e-3)
    assert cluster.driver.retries == 5
    assert cluster.initiator.cpus.busy_time() == busy_after_submit


def test_rpc_retry_then_success():
    from repro.core.api import RioDevice

    env, cluster = make_cluster(hardening=HARDENED)
    RioDevice(cluster, num_streams=1)  # installs the policy answering RPCs
    plan = FaultPlan(seed=1, message_loss=1.0)
    plan.install(cluster)

    def heal(env):
        yield env.timeout(150e-6)
        plan.message_loss = 0.0

    env.process(heal(env))
    core = cluster.initiator.cpus.pick(0)
    endpoint = cluster.namespaces[0].endpoints[0]
    holder = {}

    def proc(env):
        waiter = yield from cluster.driver.rpc(
            core, endpoint, "rio_read_attrs", None
        )
        holder["records"] = yield waiter

    env.run_until_event(env.process(proc(env)), limit=5e-3)
    assert holder["records"] == []
    assert cluster.driver.rpc_retries >= 1
    assert cluster.driver.pending_rpc_count() == 0


def test_rpc_budget_exhaustion_raises_rpc_timeout():
    env, cluster = make_cluster(
        hardening=DriverHardening(rpc_timeout=50e-6, max_retries=1)
    )
    plan = FaultPlan(seed=1, message_loss=1.0)
    plan.install(cluster)
    core = cluster.initiator.cpus.pick(0)
    endpoint = cluster.namespaces[0].endpoints[0]
    caught = []

    def proc(env):
        waiter = yield from cluster.driver.rpc(
            core, endpoint, "rio_read_attrs", None
        )
        try:
            yield waiter
        except RpcTimeout as exc:
            caught.append(exc)

    env.run_until_event(env.process(proc(env)), limit=5e-3)
    assert len(caught) == 1
    assert cluster.driver.rpcs_timed_out == 1
    assert cluster.driver.pending_rpc_count() == 0


def test_breakdown_triggers_reconnect_and_ordered_resubmission():
    env, cluster = make_cluster(hardening=HARDENED)
    dones = []
    for i in range(4):
        done, _req = submit_one(env, cluster, lba=i, qp_index=0)
        dones.append(done)
    qp = cluster.fabric.queue_pairs[0]
    qp.breakdown()  # all four may be in flight
    for done in dones:
        env.run_until_event(done, limit=5e-3)
    assert cluster.driver.reconnects == 1
    assert cluster.driver.commands_resubmitted >= 1
    cluster.driver.assert_no_leaks()


def test_unhardened_driver_ignores_breakdown_resubmission_machinery():
    """Without hardening, breakdown still bumps epochs (messages lost) but
    the driver does not spin up watchdogs for ordinary traffic."""
    env, cluster = make_cluster(hardening=None)
    done, _request = submit_one(env, cluster)
    env.run_until_event(done)
    assert cluster.driver.retries == 0
    assert cluster.driver.reconnects == 0
    cluster.driver.assert_no_leaks()


def test_liveness_watch_turns_orphaned_completion_into_simdeadlock():
    """A dropped command with no retries would hang silently; with
    watch_liveness the drained heap raises SimDeadlock naming the cid."""
    env, cluster = make_cluster(
        hardening=DriverHardening(watch_liveness=True)
    )
    plan = FaultPlan(seed=1, message_loss=1.0)
    plan.install(cluster)
    submit_one(env, cluster)
    with pytest.raises(SimDeadlock, match="nvme cid="):
        env.run()


def test_duplicate_suppression_single_apply_under_response_loss():
    """Drop the first response so the driver retransmits a command the
    target already applied: the Rio target must suppress the duplicate,
    re-ack, and the audit log must show exactly one SSD apply."""
    from repro.core.api import RioDevice

    class DropFirstResponse(FaultPlan):
        def __init__(self):
            super().__init__(seed=0)
            self.dropped_once = False

        def message_verdict(self, qp, side, message):
            self.messages_seen += 1
            if self.env is None:
                self.env = qp.env
            if not self.dropped_once and message.kind == "nvme_resp":
                self.dropped_once = True
                self.messages_dropped += 1
                self.record("drop", qp=qp.index, side=side, msg=message.kind)
                return "drop", 0.0
            return "deliver", 0.0

    env, cluster = make_cluster(hardening=HARDENED)
    plan = DropFirstResponse()
    plan.install(cluster)
    rio = RioDevice(cluster, num_streams=1)
    core = cluster.initiator.cpus.pick(0)
    holder = {}

    def proc(env):
        event = yield from rio.write_ordered(core, 0, lba=0, nblocks=1)
        yield event
        holder["done"] = True

    env.run_until_event(env.process(proc(env)), limit=10e-3)
    assert holder["done"]
    assert plan.dropped_once
    assert cluster.driver.retries >= 1
    target = cluster.targets[0]
    assert target.duplicates_suppressed >= 1
    assert target.duplicate_applies() == []
    assert target.submission_order_violations() == []
    cluster.driver.assert_no_leaks()
