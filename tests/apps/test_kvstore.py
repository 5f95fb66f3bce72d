"""Unit tests for the LSM KV store (RocksDB stand-in)."""

import pytest

from repro.apps.kvstore import (
    MEMTABLE_FLUSH_BLOCKS,
    KVStore,
    run_fillsync,
)
from repro.cluster import Cluster
from repro.fs import make_filesystem
from repro.hw.ssd import OPTANE_905P
from repro.sim import Environment


def build(kind="riofs", num_journals=4):
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    fs = make_filesystem(kind, cluster, num_journals=num_journals)
    return env, cluster, fs


def open_db(env, cluster, fs):
    holder = {}

    def opener(env):
        db = KVStore(cluster, fs)
        yield from db.open(cluster.initiator.cpus.pick(0))
        holder["db"] = db

    env.run_until_event(env.process(opener(env)))
    return holder["db"]


def test_put_writes_wal_and_memtable():
    env, cluster, fs = build()
    db = open_db(env, cluster, fs)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        yield from db.put(core, "k1", "v1")
        yield from db.put(core, "k2", "v2")

    env.run_until_event(env.process(proc(env)))
    assert db.memtable == {"k1": "v1", "k2": "v2"}
    assert db.puts == 2
    assert db.wal_fsyncs >= 1
    assert db._wal.size_blocks >= 1


def test_get_returns_memtable_value():
    env, cluster, fs = build()
    db = open_db(env, cluster, fs)
    core = cluster.initiator.cpus.pick(0)
    holder = {}

    def proc(env):
        yield from db.put(core, "key", "value")
        holder["value"] = yield from db.get(core, "key")

    env.run_until_event(env.process(proc(env)))
    assert holder["value"] == "value"


def test_concurrent_puts_form_write_groups():
    """Writers arriving while a commit is in flight batch into one WAL
    write (RocksDB's group commit)."""
    env, cluster, fs = build()
    db = open_db(env, cluster, fs)

    def writer(thread_id):
        core = cluster.initiator.cpus.pick(thread_id)
        for i in range(5):
            yield from db.put(core, (thread_id, i), "v", thread_id=thread_id)

    procs = [env.process(writer(t)) for t in range(8)]
    env.run_until_event(env.all_of(procs))
    assert db.puts == 40
    assert db.wal_fsyncs < 40  # batching happened


def test_memtable_flush_creates_sst():
    env, cluster, fs = build()
    db = open_db(env, cluster, fs)
    core = cluster.initiator.cpus.pick(0)
    # Shrink the flush threshold so the test stays fast.
    import repro.apps.kvstore as kv
    old = kv.MEMTABLE_FLUSH_BLOCKS
    kv.MEMTABLE_FLUSH_BLOCKS = 8
    try:
        def proc(env):
            for i in range(40):  # 40 KB of entries > 8-block threshold
                yield from db.put(core, f"k{i}", "v")
            yield env.timeout(5e-3)  # let the background flush finish

        env.run_until_event(env.process(proc(env)))
    finally:
        kv.MEMTABLE_FLUSH_BLOCKS = old
    assert db.flushes >= 1
    assert len(db.sst_files) >= 1
    assert db.memtable_bytes < 40 * 1040  # memtable was drained


def test_fillsync_reports_throughput_and_cpu():
    env, cluster, fs = build()
    result = run_fillsync(cluster, fs, threads=4, duration=2e-3,
                          warmup=0.2e-3)
    assert result.puts > 0
    assert result.ops_per_sec > 0
    assert result.wal_fsyncs > 0
    assert result.initiator_busy_cores > 0


def test_fillsync_scales_with_threads():
    env, cluster, fs = build()
    one = run_fillsync(cluster, fs, threads=1, duration=2e-3, warmup=0.2e-3)
    env, cluster, fs = build()
    eight = run_fillsync(cluster, fs, threads=8, duration=2e-3,
                         warmup=0.2e-3)
    assert eight.puts > 2 * one.puts


def _initiator_busy_seconds(cluster):
    return sum(core.tracker._busy_now()
               for core in cluster.initiator.cpus.cores)


def test_fillsync_cpu_window_opens_at_warmup_after_open():
    """Busy cores cover the window that opens ``warmup`` after the
    database is open and lasts ``duration``, not the warm-up too."""
    warmup, duration = 0.2e-3, 1e-3
    env, cluster, fs = build()
    open_db(env, cluster, fs)
    opened = env.now
    assert opened > 0

    env, cluster, fs = build()
    busy = {}

    def probe(env):
        yield env.timeout(opened + warmup)
        busy["start"] = _initiator_busy_seconds(cluster)

    env.process(probe(env))
    result = run_fillsync(cluster, fs, threads=4, duration=duration,
                          warmup=warmup)
    busy["end"] = _initiator_busy_seconds(cluster)
    assert result.initiator_busy_cores == pytest.approx(
        (busy["end"] - busy["start"]) / duration, rel=1e-9)
    assert env.now == pytest.approx(opened + warmup + duration)
