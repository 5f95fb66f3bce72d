"""RDMA NIC model: a full-duplex bandwidth-limited port.

The testbed NIC is a 200 Gbps Mellanox ConnectX-6 (§6.1) — 25 GB/s each
way, far above any single SSD's bandwidth, which is why the paper can say
"the concurrency of NICs is usually larger than SSDs installed on the same
server" (§4.3.1).  Queue pairs and delivery ordering live in
:mod:`repro.net.fabric`; this class only owns the shared TX/RX pipes that
serialize wire occupancy per direction.
"""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.sim.resources import Resource

__all__ = ["Nic", "NIC_BANDWIDTH"]

#: 200 Gbps in bytes/second.
NIC_BANDWIDTH = 25e9


class Nic:
    """One RDMA NIC port with independent TX and RX bandwidth pipes.

    A free pipe and a wire time that would dispatch next complete in place
    (the in-place waits of :mod:`repro.sim.engine`), so ``occupy_tx`` and
    ``occupy_rx`` may return without ever yielding.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float = NIC_BANDWIDTH,
        name: str = "nic",
    ):
        if bandwidth <= 0:
            raise ValueError("NIC bandwidth must be positive")
        self.env = env
        self.bandwidth = bandwidth
        self.name = name
        #: Gray-failure service inflation (>= 1): multiplies wire time, as
        #: a NIC negotiating down / retraining its link would.  Set via
        #: :meth:`repro.nvmeof.target.TargetServer.degrade`.
        self.inflation = 1.0
        self._tx = Resource(env, capacity=1)
        self._rx = Resource(env, capacity=1)
        self.bytes_sent = 0
        self.bytes_received = 0

    def occupy_tx(self, nbytes: int):
        """Generator: hold the TX pipe for the wire time of ``nbytes``."""
        pipe = self._tx
        grant = pipe.request_or_none()
        if grant is not None:
            yield grant
        try:
            timeout = self.env.timeout_or_none(
                nbytes / self.bandwidth * self.inflation)
            if timeout is not None:
                yield timeout
            self.bytes_sent += nbytes
        finally:
            pipe.release()

    def occupy_rx(self, nbytes: int):
        """Generator: hold the RX pipe for the wire time of ``nbytes``."""
        pipe = self._rx
        grant = pipe.request_or_none()
        if grant is not None:
            yield grant
        try:
            timeout = self.env.timeout_or_none(
                nbytes / self.bandwidth * self.inflation)
            if timeout is not None:
                yield timeout
            self.bytes_received += nbytes
        finally:
            pipe.release()

    def __repr__(self) -> str:
        return f"<Nic {self.name} {self.bandwidth / 1e9:.0f} GB/s>"
