"""Rio crash recovery: per-server list rebuild, global merge, roll-back,
replay (§4.4, Figure 6, correctness argument §4.8).

The algorithm, exactly as the paper states it:

1. **Per-server lists** — each target's surviving PMR records are scanned
   and *validated*: on a PLP SSD an attribute is durable-valid iff its and
   all preceding attributes' (in per-server submission order) persist
   fields are 1; on a volatile-cache SSD an attribute is durable-valid iff
   a *later* flush-carrying attribute has persist = 1 (§4.3.2).
2. **Global merge** — the initiator merges per-server lists into one global
   list per stream.  A group is durably complete iff its boundary request
   is known (giving ``num``), all ``num`` member requests are durable, and
   every split request has *all* fragments durable (fragments are "merged
   back into the original request to validate the global order", §4.5).
   The surviving prefix of each stream is the longest run of durably
   complete groups starting at the oldest known group.
3. **Roll-back** (initiator recovery, out-of-place updates) — data blocks
   of covered requests *beyond* the prefix are erased; IPU-flagged blocks
   are never rolled back automatically but reported to the upper layer
   (§4.4.2).
4. **Replay** (target recovery) — with the initiator alive, unreleased
   groups are re-sent to the restarted target until complete; replay is
   idempotent (§4.4.1).

The rebuild logic is pure (no simulation state), so the property-based test
suite can drive it with synthetic crash states directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.attributes import ATTRIBUTE_SIZE, CoveredRequest, OrderingAttribute

__all__ = [
    "ServerList",
    "GlobalOrder",
    "RecoveryReport",
    "rebuild_server_list",
    "merge_global_order",
    "RioRecovery",
]


# ======================================================================
# Pure rebuild logic
# ======================================================================


@dataclass
class ServerList:
    """The validated (durable) per-server ordering list for one stream."""

    target_name: str
    stream_id: int
    #: All deduplicated records of this (server, stream), per-server order.
    records: List[OrderingAttribute] = field(default_factory=list)
    #: The durable-valid prefix of ``records``.
    valid: List[OrderingAttribute] = field(default_factory=list)


def _dedup_latest(records: Iterable[OrderingAttribute]) -> List[OrderingAttribute]:
    """Keep the newest record per identity (replays overwrite old slots)."""
    latest: Dict[Tuple, OrderingAttribute] = {}
    for record in records:
        key = (
            record.stream_id,
            record.start_seq,
            record.end_seq,
            record.group_index,
            record.split_index,
            record.lba,
        )
        old = latest.get(key)
        if old is None or record.log_pos > old.log_pos:
            latest[key] = record
    return list(latest.values())


def rebuild_server_list(
    target_name: str,
    stream_id: int,
    records: Iterable[OrderingAttribute],
    plp: bool,
    plp_by_nsid: Optional[Dict[int, bool]] = None,
) -> ServerList:
    """Validate one server's records for one stream (§4.3.2).

    Durability evidence is *per device*, not per server: a persist=1 flush
    attribute proves a drain of its own SSD's cache and nothing else, and
    a PLP persist bit covers only the device it completed on.  With
    ``plp_by_nsid`` (nsid -> device has PLP) each record is judged against
    its own namespace; a target mixing PLP and volatile-cache SSDs would
    otherwise let an Optane-side toggle validate flash records whose data
    is still sitting in the flash write cache — a hole inside the
    recovered prefix.  Without the map, ``plp`` applies to every record
    (the single-device and uniform-server cases, and the synthetic states
    of the property suite).
    """
    mine = [
        r
        for r in _dedup_latest(records)
        if r.stream_id == stream_id and r.target_name == target_name
    ]
    mine.sort(key=lambda r: (r.server_pos, r.log_pos))
    result = ServerList(target_name=target_name, stream_id=stream_id, records=mine)
    if plp_by_nsid is None:
        plp_by_nsid = {}
    # Volatile devices: valid up to (and including) the latest persist=1
    # flush attribute *of the same namespace* — a FLUSH drains exactly the
    # requests admitted to its own device before it.
    flush_limit: Dict[int, int] = {}
    for record in mine:
        if (
            not plp_by_nsid.get(record.nsid, plp)
            and record.flush
            and record.persist == 1
        ):
            flush_limit[record.nsid] = record.server_pos
    # PLP devices: persist fields contiguously 1 from the front of the
    # namespace's own record subsequence.
    plp_broken: Set[int] = set()
    for record in mine:
        if plp_by_nsid.get(record.nsid, plp):
            if record.persist != 1 or record.nsid in plp_broken:
                plp_broken.add(record.nsid)
                continue
            result.valid.append(record)
        elif record.server_pos <= flush_limit.get(record.nsid, -1):
            result.valid.append(record)
    return result


def _covered(record: OrderingAttribute) -> List[CoveredRequest]:
    if record.covered_ids:
        return list(record.covered_ids)
    return [
        CoveredRequest(
            seq=record.start_seq,
            group_index=record.group_index,
            lba=record.lba,
            nblocks=record.nblocks,
            boundary=record.boundary,
        )
    ]


@dataclass
class GlobalOrder:
    """The merged global ordering decision for one stream (§4.4.1)."""

    stream_id: int
    #: Longest run of durably complete groups from the oldest known group.
    prefix_seq: int = 0
    #: Oldest group seq any record mentions (prefix starts here).
    base_seq: int = 0
    #: Groups that are durably complete.
    complete_seqs: Set[int] = field(default_factory=set)
    #: Extents to erase during roll-back: (target, nsid, lba, nblocks).
    discard_extents: List[Tuple[str, int, int, int]] = field(default_factory=list)
    #: IPU extents beyond the prefix, reported to the upper layer (§4.4.2).
    ipu_extents: List[Tuple[str, int, int, int]] = field(default_factory=list)
    #: Groups mentioned by any record but not durably complete.
    incomplete_seqs: Set[int] = field(default_factory=set)


def merge_global_order(
    server_lists: List[ServerList],
    stream_id: int,
) -> GlobalOrder:
    """Merge per-server lists into the stream's global order (§4.4.1)."""
    order = GlobalOrder(stream_id=stream_id)

    durable_ids: Set[Tuple[int, int]] = set()
    fragment_seen: Dict[Tuple[int, int], Set[int]] = {}
    fragment_total: Dict[Tuple[int, int], int] = {}
    num_of: Dict[int, int] = {}
    all_seqs: Set[int] = set()

    for server in server_lists:
        if server.stream_id != stream_id:
            continue
        valid_set = {id(r) for r in server.valid}
        for record in server.records:
            for covered in _covered(record):
                all_seqs.add(covered.seq)
                if covered.boundary:
                    num_of[covered.seq] = covered.group_index + 1
            if id(record) not in valid_set:
                continue
            # Durable record: credit its covered requests.
            for covered in _covered(record):
                rid = covered.request_id
                if record.split:
                    fragment_seen.setdefault(rid, set()).add(record.split_index)
                    fragment_total[rid] = record.split_total
                else:
                    durable_ids.add(rid)

    # Split requests are durable only when every fragment is (§4.5).
    for rid, seen in fragment_seen.items():
        if rid not in durable_ids and len(seen) == fragment_total.get(rid, -1):
            durable_ids.add(rid)

    # Group completeness: boundary known and all members durable.
    for seq in all_seqs:
        num = num_of.get(seq)
        if num is not None and all(
            (seq, index) in durable_ids for index in range(num)
        ):
            order.complete_seqs.add(seq)
        else:
            order.incomplete_seqs.add(seq)

    if not all_seqs:
        return order

    # The surviving prefix: contiguous complete groups from the oldest.
    order.base_seq = min(all_seqs)
    prefix = order.base_seq - 1
    seq = order.base_seq
    while seq in order.complete_seqs:
        prefix = seq
        seq += 1
    order.prefix_seq = prefix

    # Roll-back set: covered extents beyond the prefix (IPU excepted).
    for server in server_lists:
        if server.stream_id != stream_id:
            continue
        for record in server.records:
            for covered in _covered(record):
                if covered.seq <= prefix:
                    continue
                extent = (
                    record.target_name,
                    record.nsid,
                    covered.lba if not record.split else record.lba,
                    covered.nblocks if not record.split else record.nblocks,
                )
                if record.ipu:
                    if extent not in order.ipu_extents:
                        order.ipu_extents.append(extent)
                elif extent not in order.discard_extents:
                    order.discard_extents.append(extent)
    return order


# ======================================================================
# Orchestration over the simulated cluster
# ======================================================================


@dataclass
class RecoveryReport:
    """What a recovery pass did, and how long each phase took (§6.5)."""

    mode: str  # "initiator" | "target"
    rebuild_seconds: float = 0.0
    data_recovery_seconds: float = 0.0
    records_scanned: int = 0
    prefixes: Dict[int, int] = field(default_factory=dict)
    discarded_extents: int = 0
    replayed_requests: int = 0
    ipu_extents: List[Tuple[str, int, int, int]] = field(default_factory=list)
    global_orders: Dict[int, GlobalOrder] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.rebuild_seconds + self.data_recovery_seconds


class RioRecovery:
    """Drives recovery over a :class:`~repro.core.api.RioDevice`."""

    def __init__(self, stack):
        self.stack = stack

    # -- shared phases ------------------------------------------------------

    def _collect_records(self, core):
        """Generator: fetch surviving PMR records from every target."""
        replies = []
        for target in self.stack.cluster.targets:
            endpoint = self._endpoint_for(target)
            waiter = yield from self.stack.driver.rpc(
                core, endpoint, "rio_read_attrs", None
            )
            replies.append(waiter)
        records: List[OrderingAttribute] = []
        for waiter in replies:
            result = yield waiter
            records.extend(result)
        return records

    def _endpoint_for(self, target):
        for ns in self.stack.cluster.namespaces:
            if ns.target is target:
                return ns.endpoints[0]
        raise ValueError(f"no namespace on {target.name}")

    def _rebuild(self, records) -> Dict[int, GlobalOrder]:
        plp_of = {
            target.name: all(ssd.profile.plp for ssd in target.ssds)
            for target in self.stack.cluster.targets
        }
        plp_by_nsid_of = {
            target.name: {
                nsid: ssd.profile.plp for nsid, ssd in enumerate(target.ssds)
            }
            for target in self.stack.cluster.targets
        }
        stream_ids = sorted({r.stream_id for r in records})
        orders: Dict[int, GlobalOrder] = {}
        for stream_id in stream_ids:
            server_lists = [
                rebuild_server_list(
                    target.name,
                    stream_id,
                    records,
                    plp_of[target.name],
                    plp_by_nsid=plp_by_nsid_of[target.name],
                )
                for target in self.stack.cluster.targets
            ]
            orders[stream_id] = merge_global_order(server_lists, stream_id)
        return orders

    # -- initiator recovery (§4.4.1, roll-back) -----------------------------

    def run_initiator_recovery(self, core):
        """Generator: full roll-back recovery; returns a RecoveryReport.

        Used after a whole-system power outage: surviving PMR records are
        the only source of truth, and every durable block beyond the global
        prefix is erased (out-of-place updates; IPU extents are reported
        instead, §4.4.2).
        """
        report = RecoveryReport(mode="initiator")
        env = self.stack.env
        started = env.now
        records = yield from self._collect_records(core)
        report.records_scanned = len(records)
        # CPU cost of merging the per-server lists at the initiator.
        yield from core.run(0.05e-6 * max(1, len(records)))
        orders = self._rebuild(records)
        report.global_orders = orders
        report.prefixes = {sid: o.prefix_seq for sid, o in orders.items()}
        report.rebuild_seconds = env.now - started

        data_started = env.now
        discards: Dict[str, List[Tuple[int, int, int]]] = {}
        for order in orders.values():
            report.ipu_extents.extend(order.ipu_extents)
            for target_name, nsid, lba, nblocks in order.discard_extents:
                discards.setdefault(target_name, []).append((nsid, lba, nblocks))
        waiters = []
        for target in self.stack.cluster.targets:
            extents = discards.get(target.name)
            if not extents:
                continue
            report.discarded_extents += len(extents)
            endpoint = self._endpoint_for(target)
            waiter = yield from self.stack.driver.rpc(
                core,
                endpoint,
                "rio_discard",
                extents,
                nbytes=max(16, 16 * len(extents)),
            )
            waiters.append(waiter)
        for waiter in waiters:
            yield waiter
        report.data_recovery_seconds = env.now - data_started
        return report

    # -- target recovery (§4.4.1, replay) ------------------------------------

    def run_target_recovery(self, core, failed_target):
        """Generator: replay-based recovery after one target restarts.

        The initiator is alive: unreleased groups retained by the sequencer
        are re-dispatched (idempotently) until every group completes.
        """
        report = RecoveryReport(mode="target")
        env = self.stack.env
        started = env.now
        records = yield from self._collect_records(core)
        report.records_scanned = len(records)
        yield from core.run(0.05e-6 * max(1, len(records)))
        orders = self._rebuild(records)
        report.global_orders = orders
        report.prefixes = {sid: o.prefix_seq for sid, o in orders.items()}
        report.rebuild_seconds = env.now - started

        data_started = env.now
        # Reset per-server dispatch positions for the restarted target: its
        # in-order gate restarted from zero.
        self.stack.scheduler_reset_target(failed_target)
        replay_events = []
        for stream_id in range(self.stack.sequencer.num_streams):
            for group in self.stack.sequencer.unreleased_groups(stream_id):
                for bio in group.bios:
                    if bio.completion is not None and bio.completion.triggered:
                        continue  # already completed; nothing to re-send
                    report.replayed_requests += 1
                    yield from self.stack.scheduler.enqueue(core, bio)
                    replay_events.append(bio.completion)
        for event in replay_events:
            yield event
        report.data_recovery_seconds = env.now - data_started
        return report
