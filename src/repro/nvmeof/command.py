"""NVMe-oF command and response codec, including Rio's field layout.

Implements Table 1 of the paper: Rio transfers ordering attributes inside
the *reserved* fields of standard NVMe-oF I/O commands, so no protocol
change and no extra messages are needed:

=========== =================== ==============================
Dword:bits  NVMe-oF              Rio NVMe-oF
=========== =================== ==============================
00:10-13    reserved             Rio op code (e.g. submit)
02:00-31    reserved             start sequence (seq)
03:00-31    reserved             end sequence (seq)
04:00-31    metadata (reserved)  previous group (prev)
05:00-15    metadata (reserved)  number of requests (num)
05:16-31    metadata (reserved)  stream ID
12:16-19    reserved             special flags (e.g. boundary)
=========== =================== ==============================

The codec packs/unpacks real 64-byte submission-queue entries (and 16-byte
completion-queue entries), proving the layout fits.  The simulator carries
the object form on its virtual wire for speed; the byte form is exercised
by the protocol test-suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = [
    "OP_FLUSH",
    "OP_WRITE",
    "OP_READ",
    "RIO_OP_NONE",
    "RIO_OP_SUBMIT",
    "RIO_OP_RECOVERY",
    "FLAG_BOUNDARY",
    "FLAG_SPLIT",
    "FLAG_IPU",
    "FLAG_MERGED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_QFULL",
    "STATUS_BROWNOUT",
    "RioFields",
    "NvmeCommand",
    "NvmeResponse",
]

# NVMe I/O opcodes (NVM command set).
OP_FLUSH = 0x00
OP_WRITE = 0x01
OP_READ = 0x02

# Rio op codes carried in dword0 bits 10-13.
RIO_OP_NONE = 0x0
RIO_OP_SUBMIT = 0x1
RIO_OP_RECOVERY = 0x2

# Rio special flags carried in dword12 bits 16-19.
FLAG_BOUNDARY = 0x1  # final request of an ordered group (§4.2)
FLAG_SPLIT = 0x2  # fragment of a divided request (§4.5)
FLAG_IPU = 0x4  # in-place update: no automatic roll-back (§4.4.2)

# Completion status codes carried in the CQE status field (and mirrored
# onto BlockRequest.status / Bio.status up the stack).
STATUS_OK = 0x00
#: Host-side expiry: the command's retry budget ran out before any
#: response arrived (mirrors NVMe "Command Abort Requested", 0x07).
STATUS_TIMEOUT = 0x07
#: Target admission control shed this command instead of queueing it
#: (SCSI TASK SET FULL analogue).  Retryable: the driver re-posts the same
#: command after a backoff, so ordering attributes are preserved.
STATUS_QFULL = 0x06
#: Host-side fast-fail: the circuit breaker for the stream's target is
#: open (fail-slow/erroring target) and ordered streams cannot migrate,
#: so the stream surfaces a brownout error instead of wedging.
STATUS_BROWNOUT = 0x0C
FLAG_MERGED = 0x8  # covers several merged requests (atomic unit)

_MASK_32 = 0xFFFF_FFFF
_MASK_16 = 0xFFFF

_SQE_STRUCT = struct.Struct("<16I")  # 64-byte submission queue entry
_CQE_STRUCT = struct.Struct("<4I")  # 16-byte completion queue entry


@dataclass
class RioFields:
    """The ordering-attribute projection carried in one command."""

    rio_op: int = RIO_OP_NONE
    start_seq: int = 0
    end_seq: int = 0
    prev: int = 0
    num: int = 0
    stream_id: int = 0
    flags: int = 0

    def __post_init__(self):
        if not 0 <= self.rio_op <= 0xF:
            raise ValueError(f"rio_op must fit 4 bits: {self.rio_op}")
        if not 0 <= self.flags <= 0xF:
            raise ValueError(f"flags must fit 4 bits: {self.flags}")
        for name in ("start_seq", "end_seq", "prev"):
            value = getattr(self, name)
            if not 0 <= value <= _MASK_32:
                raise ValueError(f"{name} must fit 32 bits: {value}")
        for name in ("num", "stream_id"):
            value = getattr(self, name)
            if not 0 <= value <= _MASK_16:
                raise ValueError(f"{name} must fit 16 bits: {value}")

    @property
    def boundary(self) -> bool:
        return bool(self.flags & FLAG_BOUNDARY)

    @property
    def split(self) -> bool:
        return bool(self.flags & FLAG_SPLIT)

    @property
    def ipu(self) -> bool:
        return bool(self.flags & FLAG_IPU)

    @property
    def merged(self) -> bool:
        return bool(self.flags & FLAG_MERGED)


@dataclass
class NvmeCommand:
    """One NVMe-oF submission-queue entry plus simulator-side context."""

    opcode: int
    cid: int
    nsid: int = 0
    slba: int = 0
    nblocks: int = 0  # 1-based count (encoded 0-based per spec)
    fua: bool = False
    #: A FLUSH follows this write before the response (block-layer postflush).
    flush_after: bool = False
    #: Barrier write: in-order persistence on barrier-enabled SSDs (§2.2).
    barrier: bool = False
    rio: Optional[RioFields] = None
    #: Simulator-side: data payload travels by RDMA READ, not in the SQE.
    payload: Optional[List[Any]] = None
    #: Simulator-side: the originating block request (for completion fan-out).
    context: Any = None

    WIRE_SIZE = 64  # bytes of the SQE on the fabric

    def __post_init__(self):
        if self.opcode not in (OP_FLUSH, OP_WRITE, OP_READ):
            raise ValueError(f"unsupported opcode: {self.opcode:#x}")
        if self.opcode != OP_FLUSH and self.nblocks < 1:
            raise ValueError("read/write command needs nblocks >= 1")
        if self.nblocks > 0x10000:
            raise ValueError("nblocks exceeds the 16-bit NLB field")

    # ------------------------------------------------------------------
    # Bit-level codec (Table 1)
    # ------------------------------------------------------------------

    def pack(self) -> bytes:
        """Encode the 64-byte SQE with Rio fields in reserved space."""
        dwords = [0] * 16
        rio = self.rio or RioFields()
        dwords[0] = (
            (self.opcode & 0xFF)
            | ((rio.rio_op & 0xF) << 10)
            | ((self.cid & _MASK_16) << 16)
        )
        dwords[1] = self.nsid & _MASK_32
        dwords[2] = rio.start_seq & _MASK_32
        dwords[3] = rio.end_seq & _MASK_32
        dwords[4] = rio.prev & _MASK_32
        dwords[5] = (rio.num & _MASK_16) | ((rio.stream_id & _MASK_16) << 16)
        dwords[10] = self.slba & _MASK_32
        dwords[11] = (self.slba >> 32) & _MASK_32
        nlb = (self.nblocks - 1) if self.nblocks else 0
        dwords[12] = (
            (nlb & _MASK_16)
            | ((rio.flags & 0xF) << 16)
            | ((1 << 30) if self.fua else 0)
            | ((1 << 20) if self.flush_after else 0)
            | ((1 << 21) if self.barrier else 0)
        )
        return _SQE_STRUCT.pack(*dwords)

    @classmethod
    def unpack(cls, data: bytes) -> "NvmeCommand":
        """Decode a 64-byte SQE produced by :meth:`pack`."""
        if len(data) != cls.WIRE_SIZE:
            raise ValueError(f"SQE must be {cls.WIRE_SIZE} bytes, got {len(data)}")
        dwords = list(_SQE_STRUCT.unpack(data))
        opcode = dwords[0] & 0xFF
        rio_op = (dwords[0] >> 10) & 0xF
        cid = (dwords[0] >> 16) & _MASK_16
        rio = RioFields(
            rio_op=rio_op,
            start_seq=dwords[2],
            end_seq=dwords[3],
            prev=dwords[4],
            num=dwords[5] & _MASK_16,
            stream_id=(dwords[5] >> 16) & _MASK_16,
            flags=(dwords[12] >> 16) & 0xF,
        )
        slba = dwords[10] | (dwords[11] << 32)
        nblocks = (dwords[12] & _MASK_16) + 1 if opcode != OP_FLUSH else 0
        return cls(
            opcode=opcode,
            cid=cid,
            nsid=dwords[1],
            slba=slba,
            nblocks=nblocks,
            fua=bool(dwords[12] & (1 << 30)),
            flush_after=bool(dwords[12] & (1 << 20)),
            barrier=bool(dwords[12] & (1 << 21)),
            rio=rio,
        )

    @property
    def nbytes(self) -> int:
        from repro.hw.ssd import BLOCK_SIZE

        return self.nblocks * BLOCK_SIZE

    def __repr__(self) -> str:
        kind = {OP_FLUSH: "FLUSH", OP_WRITE: "WRITE", OP_READ: "READ"}[self.opcode]
        return f"<NvmeCommand {kind} cid={self.cid} lba={self.slba} n={self.nblocks}>"


@dataclass
class NvmeResponse:
    """One 16-byte completion-queue entry."""

    cid: int
    status: int = 0  # 0 = success
    sq_head: int = 0
    result: int = 0

    WIRE_SIZE = 16

    def pack(self) -> bytes:
        return _CQE_STRUCT.pack(
            self.result & _MASK_32,
            0,
            self.sq_head & _MASK_16,
            (self.cid & _MASK_16) | ((self.status & 0x7FFF) << 17),
        )

    @classmethod
    def unpack(cls, data: bytes) -> "NvmeResponse":
        if len(data) != cls.WIRE_SIZE:
            raise ValueError(f"CQE must be {cls.WIRE_SIZE} bytes, got {len(data)}")
        result, _rsvd, dword2, dword3 = _CQE_STRUCT.unpack(data)
        return cls(
            cid=dword3 & _MASK_16,
            status=(dword3 >> 17) & 0x7FFF,
            sq_head=dword2 & _MASK_16,
            result=result,
        )
