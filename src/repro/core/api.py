"""Rio programming model: the ordered block device (§4.6).

:class:`RioDevice` packages the sequencer, the Rio I/O scheduler and the
target-side policy into the abstraction the paper exposes to file systems
and applications:

* ``RioDevice(cluster, num_streams=...)`` — the ``rio_setup`` call:
  configures the streams and associates the networked storage devices
  (a sole SSD, or a logical volume) with them;
* :meth:`RioDevice.submit_ordered` — ``rio_submit``: dispatch an ordered
  write on a stream, with a flag delimiting the end of its group
  (:meth:`~repro.systems.base.OrderedStack.write_ordered` builds the bio);
* :meth:`RioDevice.wait` — ``rio_wait``: wait for a submitted request's
  ordered completion (embed ``flush=True`` in the final request for
  durability);
* :meth:`RioDevice.recovery` — the crash-recovery entry points of §4.4.

Callers push many asynchronous ordered requests through ``submit_ordered``
and use ``wait`` only where durability matters — that is the whole
performance story of the paper.

:class:`RioDevice` is Rio's :class:`~repro.systems.base.OrderedStack`:
``make_stack("rio", cluster)`` builds one per initiator host, and
``"rio-nomerge"`` (``merging_enabled=False``) is the paper's "Rio w/o
merge" ablation (Figure 12); ``qp_affinity=False`` ablates Principle 2.
"""

from __future__ import annotations

from typing import List, Optional

from repro.block.mq import BlockLayer
from repro.block.request import Bio
from repro.block.volume import LogicalVolume
from repro.cluster import Cluster
from repro.core.recovery import RioRecovery
from repro.core.scheduler import RioIoScheduler
from repro.core.sequencer import RioSequencer
from repro.core.target import RioTargetPolicy
from repro.hw.cpu import Core
from repro.sim.engine import Event
from repro.systems.base import OrderedStack

__all__ = ["RioDevice"]


class RioDevice(OrderedStack):
    """An order-preserving networked block device (the ``librio`` facade)."""

    name = "rio"

    def __init__(
        self,
        cluster: Cluster,
        volume: Optional[LogicalVolume] = None,
        num_streams: Optional[int] = None,
        merging_enabled: bool = True,
        qp_affinity: bool = True,
        stream_base: int = 0,
    ):
        self.cluster = cluster
        self.env = cluster.env
        if not merging_enabled:
            self.name = "rio-nomerge"
        self.driver = cluster.driver
        self.volume = volume if volume is not None else cluster.volume()
        num_streams = num_streams or len(cluster.initiator.cpus)
        self.block_layer = BlockLayer(
            self.env, cluster.driver, self.volume, costs=cluster.costs
        )
        self.scheduler = RioIoScheduler(
            self.env,
            self.block_layer,
            cluster.initiator.cpus,
            num_streams=num_streams,
            costs=cluster.costs,
            merging_enabled=merging_enabled,
            qp_affinity=qp_affinity,
        )
        self.sequencer = RioSequencer(
            self.env, self.scheduler, num_streams, costs=cluster.costs,
            stream_base=stream_base,
        )
        self.scheduler.released_seq_of = self.sequencer.released_seq
        #: Volatile-cache member devices needing an explicit fsync fan-out:
        #: on a multi-device volume the FLUSH embedded in a group's final
        #: request drains only the device(s) that request landed on, so a
        #: flush-group's durability needs one FLUSH per volatile member
        #: (single-device volumes are fully covered by the embedded FLUSH).
        self._fanout_namespaces = (
            [
                ns
                for ns in self.volume.namespaces
                if not ns.target.ssds[ns.nsid].profile.plp
            ]
            if len(self.volume.namespaces) > 1
            else []
        )
        self.policies: List[RioTargetPolicy] = []
        for target in self.volume.targets():
            if isinstance(target.policy, RioTargetPolicy):
                # Shared target (multi-initiator, §4.9): reuse the policy
                # so per-stream gate state is not wiped.
                self.policies.append(target.policy)
                continue
            policy = RioTargetPolicy()
            target.install_policy(policy)
            self.policies.append(policy)
        self.env.process(self._release_acker())

    def _release_acker(self):
        """Periodically notify targets of release progress (§4.3.2).

        Recycling acks normally piggyback on later commands' reserved
        fields; this lightweight path guarantees liveness when no later
        command is coming (deep floods against a small PMR log, idle
        tails).  One tiny SEND per target per interval, only when the
        release pointer moved.
        """
        from repro.net.fabric import Message

        interval = 50e-6
        last_sent: dict = {}
        endpoints = []
        for target in self.volume.targets():
            for ns in self.volume.namespaces:
                if ns.target is target:
                    endpoints.append(ns.endpoints[0])
                    break
        while True:
            yield self.env.timeout(interval)
            acks = []
            for local in range(self.sequencer.num_streams):
                released = self.sequencer.released_seq(local)
                if released > last_sent.get(local, 0):
                    last_sent[local] = released
                    acks.append(
                        (self.sequencer.stream_base + local, released)
                    )
            if not acks:
                continue
            for endpoint in endpoints:
                endpoint.post_send(
                    Message(kind="rio_ack", payload=list(acks),
                            nbytes=max(16, 8 * len(acks)))
                )

    @property
    def num_streams(self) -> int:
        return self.sequencer.num_streams

    # ------------------------------------------------------------------
    # rio_submit / rio_wait
    # ------------------------------------------------------------------

    def submit_ordered(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        """``rio_submit``: submit one ordered write request.

        Returns a generator, for the caller to run at once with ``yield
        from``; it returns the ordered completion event.  ``end_of_group``
        delimits the group; ``flush`` embeds a FLUSH for durability.  The
        submission order *is* the storage order of the bio's stream.

        The returned event carries ``event.bio``; after it fires,
        ``event.bio.status`` is nonzero if the write was completed in
        error (e.g. ``STATUS_TIMEOUT`` after the driver's retry budget
        was exhausted under fault injection).
        """
        if flush and self._fanout_namespaces:
            return self._submit_gated(core, bio, end_of_group, kick)
        return self.sequencer.submit(core, bio, end_of_group, flush, kick)

    def _submit_gated(self, core: Core, bio: Bio, end_of_group: bool,
                      kick: Optional[bool]):
        """Generator: a flush group on a multi-device volume.  Its
        durability gates the caller-visible completion behind per-device
        flushes of every volatile member (see :meth:`_fsync_fanout`)."""
        release = yield from self.sequencer.submit(
            core, bio, end_of_group, True, kick
        )
        gate = Event(self.env)
        gate.bio = bio
        self.env.process(
            self._fsync_fanout(core, bio.stream_id, release, gate)
        )
        return gate

    def _fsync_fanout(self, core, stream_local: int, release, gate) -> None:
        """Flush every volatile member device once the group is released.

        The ordered release guarantees all requests of groups <= the
        released seq have *completed* (so their data reached each device's
        cache); the explicit per-device FLUSH then makes them durable, and
        the target marks per-device flush evidence in its PMR log so the
        recovery scan can validate the group (per-nsid rule in
        :func:`repro.core.recovery.rebuild_server_list`).
        """
        if not release.triggered:
            yield release
        seq = release.value
        global_stream = self.sequencer.stream_base + stream_local
        waiters = []
        for ns in self._fanout_namespaces:
            try:
                waiter = yield from self.driver.rpc(
                    core,
                    ns.endpoints[0],
                    "rio_flush",
                    (global_stream, ns.nsid, seq),
                    nbytes=24,
                )
                waiters.append(waiter)
            except Exception:
                continue  # fault plane: a dead link must not wedge fsync
        for waiter in waiters:
            try:
                yield waiter
            except Exception:
                continue
        if not gate.triggered:
            gate.succeed(seq)

    @staticmethod
    def wait(event):
        """Generator (``rio_wait``): wait for an ordered completion."""
        return (yield event)

    # ------------------------------------------------------------------
    # Recovery (§4.4)
    # ------------------------------------------------------------------

    def recovery(self) -> RioRecovery:
        return RioRecovery(self)

    def scheduler_reset_target(self, target) -> None:
        self.scheduler.reset_target(target)
