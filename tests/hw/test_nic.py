"""Unit tests for the NIC bandwidth pipes."""

import pytest

from repro.hw.nic import NIC_BANDWIDTH, Nic
from repro.sim import Environment


def test_tx_occupancy_time_matches_bandwidth():
    env = Environment()
    nic = Nic(env, bandwidth=1e9)

    def proc(env):
        yield from nic.occupy_tx(1_000_000)  # 1 MB at 1 GB/s = 1 ms

    env.run_until_event(env.process(proc(env)))
    assert env.now == pytest.approx(1e-3)
    assert nic.bytes_sent == 1_000_000


def test_tx_serializes_rx_does_not_block_tx():
    env = Environment()
    nic = Nic(env, bandwidth=1e9)
    finished = {}

    def tx(env, tag):
        yield from nic.occupy_tx(1_000_000)
        finished[tag] = env.now

    def rx(env):
        yield from nic.occupy_rx(1_000_000)
        finished["rx"] = env.now

    env.process(tx(env, "tx1"))
    env.process(tx(env, "tx2"))
    env.process(rx(env))
    env.run()
    assert finished["tx1"] == pytest.approx(1e-3)
    assert finished["tx2"] == pytest.approx(2e-3)  # serialized behind tx1
    assert finished["rx"] == pytest.approx(1e-3)  # full duplex


def test_default_bandwidth_is_200gbps():
    env = Environment()
    nic = Nic(env)
    assert nic.bandwidth == NIC_BANDWIDTH == 25e9


def test_invalid_bandwidth_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Nic(env, bandwidth=0)


def test_byte_counters_accumulate():
    env = Environment()
    nic = Nic(env)

    def proc(env):
        yield from nic.occupy_tx(100)
        yield from nic.occupy_rx(200)
        yield from nic.occupy_tx(300)

    env.run_until_event(env.process(proc(env)))
    assert nic.bytes_sent == 400
    assert nic.bytes_received == 200


def test_queued_transfer_uses_the_inflation_at_its_grant():
    """A gray-failure degrade landing while a transfer waits for the pipe
    slows that transfer: its wire time is computed when the pipe is
    granted, not when the transfer was queued."""
    env = Environment()
    nic = Nic(env, bandwidth=1e9)
    finished = {}

    def tx(tag):
        yield from nic.occupy_tx(1_000_000)
        finished[tag] = env.now

    def degrade():
        yield env.timeout(0.5e-3)
        nic.inflation = 3.0

    env.process(tx("first"))
    env.process(tx("queued"))
    env.process(degrade())
    env.run()
    assert finished["first"] == pytest.approx(1e-3)
    assert finished["queued"] == pytest.approx(1e-3 + 3e-3)
