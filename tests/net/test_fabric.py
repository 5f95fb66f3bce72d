"""Unit tests for the RDMA fabric: RC ordering, verbs, crash behaviour."""

import pytest

from repro.hw.nic import Nic
from repro.net.fabric import Fabric, Message
from repro.sim import Environment, DeterministicRNG


def make_pair(num_qps=1, env=None):
    env = env or Environment()
    nic_a = Nic(env, name="initiator-nic")
    nic_b = Nic(env, name="target-nic")
    fabric = Fabric(env, DeterministicRNG(3))
    qps = fabric.connect(nic_a, nic_b, num_qps)
    return env, qps


def test_send_is_delivered_to_handler():
    env, (qp,) = make_pair()
    received = []

    def handler(msg):
        received.append((env.now, msg.payload))
        yield env.timeout(0)

    qp.endpoints[1].set_receive_handler(handler)
    qp.endpoints[0].post_send(Message(kind="cmd", payload="hello", nbytes=64))
    env.run()
    assert len(received) == 1
    assert received[0][1] == "hello"
    assert received[0][0] > 1e-6  # at least the propagation delay


def test_per_qp_delivery_is_fifo():
    env, (qp,) = make_pair()
    received = []

    def handler(msg):
        received.append(msg.payload)
        yield env.timeout(0)

    qp.endpoints[1].set_receive_handler(handler)
    for i in range(20):
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))
    env.run()
    assert received == list(range(20))


def test_cross_qp_order_is_not_guaranteed():
    """Messages on different QPs experience independent jitter; over many
    trials at least one pair arrives out of post order."""
    env, qps = make_pair(num_qps=8)
    arrivals = []

    def handler_for(idx):
        def handler(msg):
            arrivals.append((msg.payload, env.now))
            yield env.timeout(0)

        return handler

    for i, qp in enumerate(qps):
        qp.endpoints[1].set_receive_handler(handler_for(i))
    for i, qp in enumerate(qps * 5):  # 40 messages round-robin
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))
    env.run()
    order = [payload for payload, _t in sorted(arrivals, key=lambda item: item[1])]
    assert order != sorted(order)


def test_rdma_read_costs_a_round_trip_without_peer_handler():
    env, (qp,) = make_pair()
    finished = []

    def proc(env):
        yield from qp.endpoints[1].rdma(4096)
        finished.append(env.now)

    env.process(proc(env))
    env.run()
    assert len(finished) == 1
    # Two propagation legs plus 4 KB wire time: a few microseconds.
    assert 2e-6 < finished[0] < 6e-6


def test_bandwidth_serializes_large_transfers():
    env, (qp,) = make_pair()
    finished = []

    def proc(env):
        yield from qp.endpoints[0].rdma(25_000_000)  # 1 ms of wire
        finished.append(env.now)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert finished[1] - finished[0] > 0.8e-3  # second waits for the pipe


def test_crashed_endpoint_drops_incoming():
    env, (qp,) = make_pair()
    received = []

    def handler(msg):
        received.append(msg.payload)
        yield env.timeout(0)

    qp.endpoints[1].set_receive_handler(handler)
    qp.endpoints[1].crash()
    qp.endpoints[0].post_send(Message(kind="cmd", payload="lost", nbytes=64))
    env.run()
    assert received == []


def test_crashed_sender_messages_are_dropped_even_if_queued():
    env, (qp,) = make_pair()
    received = []

    def handler(msg):
        received.append(msg.payload)
        yield env.timeout(0)

    qp.endpoints[1].set_receive_handler(handler)
    qp.endpoints[0].post_send(Message(kind="cmd", payload="stale", nbytes=64))
    qp.endpoints[0].crash()  # before the pump ships it
    env.run()
    assert received == []


def test_restart_allows_delivery_again():
    env, (qp,) = make_pair()
    received = []

    def handler(msg):
        received.append(msg.payload)
        yield env.timeout(0)

    qp.endpoints[1].set_receive_handler(handler)
    qp.endpoints[1].crash()
    qp.endpoints[1].restart()
    qp.endpoints[0].post_send(Message(kind="cmd", payload="back", nbytes=64))
    env.run()
    assert received == ["back"]


def test_message_requires_positive_size():
    with pytest.raises(ValueError):
        Message(kind="cmd", payload=None, nbytes=0)


def test_connect_requires_positive_qps():
    env = Environment()
    fabric = Fabric(env)
    with pytest.raises(ValueError):
        fabric.connect(Nic(env), Nic(env), 0)
