"""Tests for the OLTP (MySQL-style) workload."""

import pytest

from repro.apps.kvstore import run_readwhilewriting
from repro.apps.oltp import OltpDatabase, run_oltp
from repro.cluster import Cluster
from repro.fs import make_filesystem
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def build(kind="riofs"):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    fs = make_filesystem(kind, cluster, num_journals=4)
    return env, cluster, fs


def test_oltp_commits_transactions():
    env, cluster, fs = build()
    result = run_oltp(cluster, fs, threads=4, duration=3e-3, warmup=0.3e-3)
    assert result.commits > 0
    assert result.tps > 0


def test_oltp_window_opens_after_setup():
    """Opening the database takes ~3 ms of simulated time; a shorter
    warm-up plus window still measures commits, all of them after setup."""
    env, cluster, fs = build()
    result = run_oltp(cluster, fs, threads=4, duration=1e-3, warmup=0.3e-3)
    assert result.commits > 0
    assert env.now > 1.3e-3


def test_oltp_group_commit_batches():
    env, cluster, fs = build()
    holder = {}

    def setup(env):
        core = cluster.initiator.cpus.pick(0)
        db = OltpDatabase(cluster, fs)
        yield from db.open(core)
        holder["db"] = db

    env.run_until_event(env.process(setup(env)))
    db = holder["db"]
    baseline = db.fs.fsyncs

    def worker(thread_id):
        from repro.sim.rng import DeterministicRNG

        core = cluster.initiator.cpus.pick(thread_id)
        rng = DeterministicRNG(1).fork(f"w{thread_id}")
        for _ in range(5):
            yield from db.transaction(core, rng, thread_id=thread_id)

    procs = [env.process(worker(t)) for t in range(8)]
    env.run_until_event(env.all_of(procs))
    assert db.commits == 40
    # Group commit: far fewer redo fsyncs than commits.
    assert db.fs.fsyncs - baseline < 40


def test_oltp_page_cleaner_runs_ipu_writes():
    env, cluster, fs = build()
    result = run_oltp(cluster, fs, threads=4, duration=5e-3, warmup=0.3e-3)
    assert result.cleaner_runs >= 1
    # In-place page updates reached the device tagged IPU.
    records = cluster.targets[0].pmr.records().values()
    assert any(getattr(r, "ipu", False) for r in records)


def test_oltp_faster_on_riofs_than_ext4():
    def tps(kind):
        env, cluster, fs = build(kind)
        return run_oltp(cluster, fs, threads=4, duration=3e-3,
                        warmup=0.3e-3).tps

    assert tps("riofs") > tps("ext4")


def test_readwhilewriting_mixes_reads_and_writes():
    env, cluster, fs = build()
    result = run_readwhilewriting(cluster, fs, read_threads=2,
                                  write_threads=2, duration=3e-3,
                                  warmup=0.3e-3, populate=50)
    assert result.puts > 0
    assert result.wal_fsyncs > 0
