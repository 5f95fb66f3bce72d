"""The compared storage stacks (§6.1 "Compared systems").

Every stack exposes the same interface (:class:`~repro.systems.base.OrderedStack`):
ordered write submission with group boundaries and optional durability.
What differs is *how* order is enforced:

* :class:`~repro.systems.orderless.OrderlessStack` — no ordering guarantee;
  the upper bound every figure normalizes against.
* :class:`~repro.systems.linux.LinuxOrderedStack` — stock Linux NVMe over
  RDMA: the next ordered group is dispatched only after the previous one
  completed (plus a FLUSH on volatile-cache SSDs) — synchronous execution.
* :class:`~repro.systems.horae.HoraeStack` — HORAE [OSDI'20] extended to
  NVMe-oF: a synchronous control path persists ordering metadata in PMR
  before the data path runs asynchronously.
* :class:`repro.core.api.RioDevice` — Rio: fully asynchronous I/O
  pipeline with ordering attributes (``"rio"``; ``"rio-nomerge"`` turns
  merging off).

:func:`~repro.systems.base.make_stack` builds any of them by name on any
cluster: the node's stack on one initiator host, a
:class:`~repro.systems.base.ShardedStack` routing streams over N hosts.
"""

from repro.systems.base import OrderedStack, make_stack
from repro.systems.horae import HoraeStack
from repro.systems.linux import LinuxOrderedStack
from repro.systems.orderless import OrderlessStack

__all__ = [
    "OrderedStack",
    "make_stack",
    "OrderlessStack",
    "LinuxOrderedStack",
    "HoraeStack",
]
