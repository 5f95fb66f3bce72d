"""Common interface of the compared storage stacks.

A stack accepts *ordered write requests* grouped into ordered groups (the
unit of storage order, §4.2): requests within a group may be reordered
freely; groups must persist in submission order per stream.  ``flush``
additionally requests durability of the group (the fsync path).

The interface is deliberately the shape of ``rio_submit`` (§4.6) so that
one workload/file-system implementation drives all four systems.

:func:`make_stack` is the one way to put a stack on a cluster, at any
number of initiator hosts: it builds the system's stack on every node of
the cluster, and at N > 1 wraps them in a :class:`ShardedStack`, which
routes global stream ``s`` to node ``s % N``.  At N = 1 the caller gets
the node's stack itself.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.block.request import Bio, WriteFlags
from repro.hw.cpu import Core

__all__ = ["OrderedStack", "ShardedStack", "make_stack", "stacks"]

#: Systems whose node stacks number their streams densely (Rio's
#: sequencer indexes streams 0..k-1): each node gets its own stream count
#: and a disjoint wire-stream range from the cluster's directory.
_DENSE_STREAM_SYSTEMS = ("rio", "rio-nomerge")


class OrderedStack:
    """Abstract ordered block device stack."""

    name = "abstract"

    def submit_ordered(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        """Generator: submit one ordered write; returns its completion event.

        The completion event fires when the request's ordering contract is
        satisfied for this stack (for Rio: released in order; for Linux:
        the synchronous chain reached it).  ``kick=False`` stages the
        request for batching where the stack supports it (Figure 12).
        """
        raise NotImplementedError

    def write_ordered(
        self,
        core: Core,
        stream_id: int,
        lba: int,
        nblocks: int,
        payload: Optional[List[Any]] = None,
        end_of_group: bool = True,
        flush: bool = False,
        ipu: bool = False,
        kick: Optional[bool] = None,
        tenant: Optional[int] = None,
    ):
        """Convenience wrapper building the bio inline; returns the
        :meth:`submit_ordered` generator, for the caller to run at once
        with ``yield from``."""
        bio = Bio(
            op="write",
            lba=lba,
            nblocks=nblocks,
            payload=payload,
            stream_id=stream_id,
            flags=WriteFlags(ipu=ipu),
            tenant=tenant,
        )
        return self.submit_ordered(core, bio, end_of_group, flush, kick)

    def read(self, core: Core, stream_id: int, lba: int, nblocks: int):
        """Generator: orderless read; returns (event, bio)."""
        bio = Bio(op="read", lba=lba, nblocks=nblocks, stream_id=stream_id)
        done = yield from self.block_layer.submit_bio(core, bio)
        return done, bio


class ShardedStack(OrderedStack):
    """One ordered stack over the per-node stacks of a multi-host cluster.

    Routes every submission to the owning node: global stream ``s`` goes
    to node ``s % N``, on that node's core of the caller's core index, so
    CPU work lands on — and is accounted to — the host that actually
    issues the I/O.  With ``dense_streams`` the node's stack sees the
    node-local index ``s // N`` (its device translates to the wire);
    otherwise it sees ``s``.  Built by :func:`make_stack`.
    """

    def __init__(self, cluster, stacks: List[OrderedStack],
                 dense_streams: bool):
        self.cluster = cluster
        self.env = cluster.env
        self.stacks = stacks
        self.dense_streams = dense_streams
        self.name = f"sharded-{stacks[0].name}"
        self.volume = stacks[0].volume
        if hasattr(stacks[0], "recovery"):
            # Coordinator recovery (node 0) covers all global streams:
            # the targets' PMR logs are keyed by wire stream id.
            self.recovery = stacks[0].recovery

    def node_for(self, stream_id: int):
        return self.cluster.nodes[stream_id % len(self.stacks)]

    def local_stream(self, stream_id: int) -> int:
        """The stream id the owning node's stack sees."""
        if self.dense_streams:
            return stream_id // len(self.stacks)
        return stream_id

    def submit_ordered(
        self,
        core: Core,
        bio: Bio,
        end_of_group: bool = True,
        flush: bool = False,
        kick: Optional[bool] = None,
    ):
        """Route ``bio`` to its stream's node; returns that node's submit
        generator, for the caller to run at once with ``yield from``."""
        node = self.node_for(bio.stream_id)
        bio.stream_id = self.local_stream(bio.stream_id)
        stack = self.stacks[node.index]
        return stack.submit_ordered(node.cpus.pick(core.index), bio,
                                    end_of_group, flush, kick)


def stacks() -> Dict[str, Callable[..., OrderedStack]]:
    """Every stack :func:`make_stack` builds, by name; the spec validator
    reads it too.  A function because the stack modules import this one."""
    from repro.core.api import RioDevice
    from repro.systems.barrier import BarrierStack
    from repro.systems.horae import HoraeStack
    from repro.systems.linux import LinuxOrderedStack
    from repro.systems.orderless import OrderlessStack

    return {
        "orderless": OrderlessStack,
        "linux": LinuxOrderedStack,
        "horae": HoraeStack,
        "rio": RioDevice,
        "rio-nomerge": partial(RioDevice, merging_enabled=False),
        "barrier": BarrierStack,
    }


def make_stack(name: str, cluster, volume=None, num_streams: Optional[int] = None,
               **kwargs) -> OrderedStack:
    """Put system ``name``'s stack on every initiator host of ``cluster``.

    Each node's stack comes from :func:`stacks`.  A Rio node numbers its
    own streams densely and takes a disjoint wire-stream range from
    ``cluster.directory``; ``num_streams`` (default: one per initiator
    core) counts streams over all hosts.  Returns the node's stack on a
    one-host cluster, else a :class:`ShardedStack` over the node stacks.
    ``volume`` (one host's namespaces) is for one-host clusters only.
    """
    table = stacks()
    if name not in table:
        raise ValueError(f"unknown stack: {name!r} (have {sorted(table)})")
    nodes = cluster.nodes
    count = len(nodes)
    if volume is not None and count > 1:
        raise ValueError("volume: a logical volume spans one host's "
                         "namespaces; pass it on one-initiator clusters only")
    dense = name in _DENSE_STREAM_SYSTEMS
    if dense and not num_streams:
        num_streams = len(cluster.initiator.cpus)
    built = []
    for node in nodes:
        if dense:
            owned = max(len(range(node.index, num_streams, count)), 1)
            built.append(table[name](
                node, volume, owned,
                stream_base=cluster.directory.allocate(owned), **kwargs,
            ))
        else:
            built.append(table[name](node, volume, num_streams, **kwargs))
    if count == 1:
        return built[0]
    return ShardedStack(cluster, built, dense)
