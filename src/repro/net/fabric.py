"""RDMA fabric: queue pairs, SEND/READ/WRITE verbs, delivery ordering.

A :class:`QueuePair` connects two :class:`~repro.hw.nic.Nic` ports with RC
transport.  Each direction has its own FIFO pump process, so SENDs on one
QP are delivered in order while different QPs progress independently (with
deterministic jitter), reproducing both halves of the NIC behaviour the
paper's design leans on.

Crash model: a crashed endpoint silently drops messages addressed to it and
stops sourcing one-sided transfers, like a dead server.  ``restart()``
brings it back with a new epoch; messages from the old epoch are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from repro.hw.nic import Nic
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store
from repro.sim.rng import DeterministicRNG

__all__ = [
    "PROPAGATION_DELAY",
    "Message",
    "QpEndpoint",
    "QueuePair",
    "Fabric",
]

#: One-way propagation latency of the RDMA fabric (seconds).  Calibrated to
#: the sub-2 µs half-RTT of ConnectX-6 class networks.
PROPAGATION_DELAY = 1.3e-6

#: One-way latency through a kernel TCP stack on the same network —
#: NVMe/TCP pays the socket layer on both ends (§4.5 Principle 2 notes the
#: per-socket in-order property that makes Rio work over TCP too).
TCP_PROPAGATION_DELAY = 8.0e-6


@dataclass
class Message:
    """A two-sided SEND payload."""

    kind: str
    payload: Any
    nbytes: int
    sent_at: float = field(default=0.0)
    #: Set by fault injection: the message still crosses the wire but the
    #: receiver's CRC check discards it on delivery (NVMe-oF transports
    #: checksum their capsules, so corruption manifests as a drop detected
    #: at the receiver — the sender must retry).
    corrupted: bool = field(default=False)

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("message size must be positive")


class QpEndpoint:
    """One side of a queue pair."""

    def __init__(self, qp: "QueuePair", side: int):
        self.qp = qp
        self.side = side
        self._handler: Optional[Callable[[Message], Generator]] = None
        self.epoch = 0
        self.down = False

    @property
    def env(self) -> Environment:
        return self.qp.env

    @property
    def nic(self) -> Nic:
        return self.qp.nics[self.side]

    @property
    def peer(self) -> "QpEndpoint":
        return self.qp.endpoints[1 - self.side]

    def set_receive_handler(self, handler: Callable[[Message], Generator]) -> None:
        """Register ``handler(message) -> generator`` run on delivery.

        The handler generator is responsible for charging any CPU time it
        consumes (two-sided reception is what costs target CPU cycles).
        """
        self._handler = handler

    def post_send(self, message: Message) -> None:
        """Post a two-sided SEND toward the peer (asynchronous).

        Delivery is FIFO per QP.  The caller charges its own CPU cost for
        the post (doorbell + WQE build) — the paper's drivers spend "many
        CPU cycles on RDMA and NVMe queues" per command (§3.2).
        """
        if self.down:
            return
        message.sent_at = self.env.now
        self.qp.enqueue(self.side, message, self.epoch)

    def rdma(self, nbytes: int):
        """Generator: one-sided READ or WRITE of ``nbytes`` with the peer.

        Completes after a full round trip plus wire time; consumes *no* CPU
        on the peer.  Data moves through both NICs' pipes: the responder
        (peer) transmits and this requester receives for a READ, and a
        WRITE costs the same wire time.  Raises nothing on peer crash — it
        simply never completes (the caller's server is the one that crashed
        in our experiments, so this is never the hanging edge).
        """
        qp = self.qp
        yield from qp.env.sleep(qp.rng.jitter(qp.propagation_delay, 0.15))
        yield from self.peer.nic.occupy_tx(nbytes)
        yield from qp.env.sleep(qp.rng.jitter(qp.propagation_delay, 0.15))
        yield from self.nic.occupy_rx(nbytes)

    def crash(self) -> None:
        self.down = True
        self.epoch += 1

    def restart(self) -> None:
        self.down = False

    def deliver(self, message: Message) -> None:
        if self.down or self._handler is None:
            return  # dropped on the floor, like a dead receiver
        if message.corrupted:
            # CRC failure on the received capsule: discard silently (the
            # sender's timeout/retry machinery is responsible for recovery).
            self.env.trace("fault", "corrupt_discard", qp=self.qp.index,
                           side=self.side, msg=message.kind)
            return
        self.env.process(self._handler(message))


class QueuePair:
    """An RC queue pair between two NICs, with per-direction FIFO pumps."""

    def __init__(
        self,
        env: Environment,
        index: int,
        nic_a: Nic,
        nic_b: Nic,
        rng: DeterministicRNG,
        propagation_delay: float = PROPAGATION_DELAY,
        transport: str = "rdma",
    ):
        if transport not in ("rdma", "tcp"):
            raise ValueError(f"unknown transport: {transport!r}")
        self.env = env
        self.index = index
        self.nics = (nic_a, nic_b)
        self.rng = rng
        self.transport = transport
        #: QPs see slightly different effective latencies (queue placement,
        #: completion-vector steering) — the source of cross-QP reordering.
        self.propagation_delay = propagation_delay * rng.uniform(0.85, 1.35)
        self.endpoints = (QpEndpoint(self, 0), QpEndpoint(self, 1))
        self._queues = (Store(env), Store(env))
        #: Optional :class:`repro.sim.faults.FaultPlan` consulted per
        #: message.  None (the default) costs one attribute check per
        #: message and draws no RNG — the fault plane is free when off.
        self.fault_plan = None
        #: Bumped on every transient breakdown (diagnostics only; epoch
        #: discarding is what actually drops in-flight messages).
        self.generation = 0
        self._breakdown_callbacks: List[Callable[["QueuePair"], None]] = []
        env.process(self._pump(0))
        env.process(self._pump(1))

    def enqueue(self, side: int, message: Message, epoch: int) -> None:
        self._queues[side].put((message, epoch))

    def on_breakdown(self, callback: Callable[["QueuePair"], None]) -> None:
        """Register a callback fired when this QP breaks down."""
        self._breakdown_callbacks.append(callback)

    def breakdown(self) -> None:
        """Transient QP failure (RC error state).

        Both endpoints bump their epoch, so every in-flight message — queued
        or on the wire — is discarded, exactly like a torn-down RC
        connection.  Unlike :meth:`QpEndpoint.crash` the endpoints stay up:
        the connection is immediately usable at the new epoch, and the
        registered callbacks (the initiator driver) handle reconnect and
        resubmission.
        """
        self.generation += 1
        for endpoint in self.endpoints:
            endpoint.epoch += 1
        self.env.trace("fault", "qp_breakdown", qp=self.index,
                       generation=self.generation)
        for callback in list(self._breakdown_callbacks):
            callback(self)

    def _pump(self, side: int):
        """Serially ship messages from ``side`` to the other side (FIFO)."""
        sender = self.endpoints[side]
        receiver = self.endpoints[1 - side]
        queue = self._queues[side]
        while True:
            message, epoch = yield queue.get()
            if sender.down or epoch != sender.epoch:
                continue  # message from a crashed epoch: dropped
            plan = self.fault_plan
            if plan is not None:
                verdict, extra_delay = plan.message_verdict(self, side, message)
                if verdict == "drop":
                    continue  # lost on the wire: never delivered
                if verdict == "corrupt":
                    message.corrupted = True
                elif verdict == "delay":
                    # Head-of-line delay: RC transport is FIFO, so a stuck
                    # message holds back its successors on the same QP.
                    yield self.env.timeout(extra_delay)
                    if epoch != sender.epoch:
                        continue
            yield from sender.nic.occupy_tx(message.nbytes)
            yield from self.env.sleep(
                self.rng.jitter(self.propagation_delay, 0.15)
            )
            yield from receiver.nic.occupy_rx(message.nbytes)
            if epoch != sender.epoch:
                continue
            obs = self.env.obs
            if obs is not None:
                obs.metrics.inc("fabric.messages_delivered")
                obs.metrics.inc("fabric.bytes_delivered", message.nbytes)
            receiver.deliver(message)


class Fabric:
    """The switch connecting the initiator to all target servers."""

    def __init__(
        self,
        env: Environment,
        rng: Optional[DeterministicRNG] = None,
        propagation_delay: Optional[float] = None,
        transport: str = "rdma",
    ):
        if transport not in ("rdma", "tcp"):
            raise ValueError(f"unknown transport: {transport!r}")
        self.env = env
        self.rng = rng or DeterministicRNG(11)
        self.transport = transport
        if propagation_delay is None:
            propagation_delay = (
                PROPAGATION_DELAY if transport == "rdma" else TCP_PROPAGATION_DELAY
            )
        self.propagation_delay = propagation_delay
        self._qps: List[QueuePair] = []
        #: Fault plan propagated onto every queue pair (set by
        #: :meth:`repro.sim.faults.FaultPlan.install`).
        self.fault_plan = None

    def connect(self, nic_a: Nic, nic_b: Nic, num_qps: int) -> List[QueuePair]:
        """Create ``num_qps`` RC queue pairs (or TCP sockets) between NICs."""
        if num_qps < 1:
            raise ValueError("need at least one queue pair")
        qps = []
        for i in range(num_qps):
            qp = QueuePair(
                self.env,
                index=len(self._qps),
                nic_a=nic_a,
                nic_b=nic_b,
                rng=self.rng.fork(f"qp{len(self._qps)}"),
                propagation_delay=self.propagation_delay,
                transport=self.transport,
            )
            qp.fault_plan = self.fault_plan
            self._qps.append(qp)
            qps.append(qp)
        return qps

    @property
    def queue_pairs(self) -> List[QueuePair]:
        return list(self._qps)
