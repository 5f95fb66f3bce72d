"""Common interface of the compared storage stacks.

A stack accepts *ordered write requests* grouped into ordered groups (the
unit of storage order, §4.2): requests within a group may be reordered
freely; groups must persist in submission order per stream.  ``flush``
additionally requests durability of the group (the fsync path).

The interface is deliberately the shape of ``rio_submit`` (§4.6) so that
one workload/file-system implementation drives all four systems.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.block.request import Bio, WriteFlags
from repro.hw.cpu import Core
from repro.sim.engine import Event

__all__ = ["OrderedStack", "make_stack", "stacks"]


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
        deadline: Optional[float] = None,
    ):
        """Generator: convenience wrapper building the bio inline."""
        bio = Bio(
            op="write",
            lba=lba,
            nblocks=nblocks,
            payload=payload,
            stream_id=stream_id,
            flags=WriteFlags(ipu=ipu),
            deadline=deadline,
        )
        return (yield from self.submit_ordered(core, bio, end_of_group, flush, kick))

    def read(self, core: Core, stream_id: int, lba: int, nblocks: int):
        """Generator: orderless read; returns (event, bio)."""
        bio = Bio(op="read", lba=lba, nblocks=nblocks, stream_id=stream_id)
        done = yield from self.block_layer.submit_bio(core, bio)
        return done, bio


def stacks() -> Dict[str, Callable[..., OrderedStack]]:
    """Every stack :func:`make_stack` builds, by name; the spec validator
    reads it too.  A function because the stack modules import this one."""
    from repro.systems.barrier import BarrierStack
    from repro.systems.horae import HoraeStack
    from repro.systems.linux import LinuxOrderedStack
    from repro.systems.orderless import OrderlessStack
    from repro.systems.rio import RioStack

    return {
        "orderless": OrderlessStack,
        "linux": LinuxOrderedStack,
        "horae": HoraeStack,
        "rio": RioStack,
        "rio-nomerge": partial(RioStack, merging_enabled=False),
        "barrier": BarrierStack,
    }


def make_stack(name: str, cluster, volume=None, num_streams: Optional[int] = None,
               **kwargs) -> OrderedStack:
    """Factory used by the experiment harness and the examples."""
    table = stacks()
    if name not in table:
        raise ValueError(f"unknown stack: {name!r} (have {sorted(table)})")
    return table[name](cluster, volume, num_streams, **kwargs)
