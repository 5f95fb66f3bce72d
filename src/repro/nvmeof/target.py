"""NVMe-oF target server: driver, SSDs, PMR, and pluggable ordering policy.

The target driver receives I/O commands as two-sided SENDs (costing CPU on
the IRQ core of the arrival queue pair), fetches write data with one-sided
RDMA READs (no CPU), submits to the local NVMe SSD and responds with a SEND
(§2.1, Figure 1(a)).

Ordering behaviour is injected through :class:`TargetPolicy` hooks:

* ``before_submit``  — Rio's in-order submission point (§4.3.1) and
  persistent-ordering-attribute store (§4.3.2, step ⑤ of Figure 4);
* ``after_completion`` — Rio's persist-field toggle (step ⑦);
* ``on_control``     — out-of-band messages (Horae's control path, recovery
  RPCs).

The two data-path hooks may be ``None``, and the target then skips them.
The stock :class:`TargetPolicy` leaves both ``None`` and its
``on_control`` does nothing, which *is* the orderless Linux data path.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.hw.cpu import Core, CoreSteering, CpuSet
from repro.hw.nic import Nic
from repro.hw.pmr import PersistentMemoryRegion
from repro.hw.ssd import CrashedError, DiskIO, NvmeSsd
from repro.net.fabric import Message, QpEndpoint
from repro.nvmeof.command import (
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    STATUS_QFULL,
    NvmeCommand,
    NvmeResponse,
)
from repro.nvmeof.costs import DEFAULT_COSTS, CpuCosts, irq_cost
from repro.sim.engine import Environment, Event

__all__ = ["TargetPolicy", "TargetContext", "TargetServer"]


class TargetContext:
    """Everything a policy hook needs about one in-flight command.

    ``core`` handles the receive path (RECV completion, data fetch, SSD
    submission); ``completion_core`` handles the SSD interrupt path
    (completion, persist toggling, response) — separate vectors, as on the
    real target, so one queue pair does not serialize the whole server.
    """

    def __init__(
        self,
        target: "TargetServer",
        endpoint: QpEndpoint,
        core: Core,
        completion_core: Optional[Core] = None,
    ):
        self.target = target
        self.endpoint = endpoint
        self.core = core
        self.completion_core = completion_core or core
        #: Set by a policy's ``before_submit`` when the command is a
        #: duplicate of one already admitted (a retransmission): the target
        #: skips the SSD entirely and acknowledges immediately, keeping
        #: retried ordered writes idempotent.
        self.duplicate = False
        #: ``target.admit`` span for the command being handled (set by the
        #: target server only when an Observability is attached); policies
        #: and SSD submissions parent their spans under it.
        self.obs_span: Any = None

    @property
    def env(self) -> Environment:
        return self.target.env

    @property
    def pmr(self) -> PersistentMemoryRegion:
        return self.target.pmr


class TargetPolicy:
    """No-op ordering policy: the stock (orderless) NVMe-oF target.

    The data-path hooks ``before_submit`` and ``after_completion`` are
    either ``None`` (the target skips them, as here) or a generator method
    ``hook(ctx, cmd)`` that the target runs inline in the command's frame.
    """

    #: Hook before the command is submitted to the SSD.
    before_submit: Optional[Callable[[TargetContext, NvmeCommand], Generator]] = None
    #: Hook after SSD completion (and post-flush), before the response.
    after_completion: Optional[Callable[[TargetContext, NvmeCommand], Generator]] = None

    def attach(self, target: "TargetServer") -> None:
        """Called when installed on a target."""

    def on_control(self, ctx: TargetContext, message: Message):
        """Hook for non-I/O (control/RPC) messages."""
        return
        yield  # pragma: no cover

    def on_restart(self) -> None:
        """Reset volatile policy state after a target power cycle."""


class TargetServer:
    """One remote storage server: CPU, NIC, SSD array, PMR."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cpus: CpuSet,
        nic: Nic,
        ssds: List[NvmeSsd],
        pmr: Optional[PersistentMemoryRegion] = None,
        costs: CpuCosts = DEFAULT_COSTS,
        steering: str = "pin",
    ):
        if not ssds:
            raise ValueError("a target server needs at least one SSD")
        self.env = env
        self.name = name
        self.cpus = cpus
        self.nic = nic
        self.ssds = ssds
        self.pmr = pmr if pmr is not None else PersistentMemoryRegion(env)
        self.costs = costs
        # IRQ/completion steering (scale-out plane): receive IRQs land on
        # the lower half of the cores, SSD-completion vectors on the upper
        # half — separate subsets, so a flooded receive path cannot starve
        # completions.  ``pin`` with flow key = global endpoint index
        # reproduces the historical static assignment
        # (``pick(i % half)`` / ``pick(half + i % half)``) bit-exactly.
        half = max(1, len(cpus) // 2)
        irq_cores = cpus.cores[:half]
        completion_cores = cpus.cores[half:2 * half] or irq_cores
        self.steering_policy = steering
        self.irq_steering = CoreSteering(irq_cores, steering)
        self.completion_steering = CoreSteering(completion_cores, steering)
        self.policy: TargetPolicy = TargetPolicy()
        #: Optional admission controller (overload plane); installed via
        #: :meth:`install_admission`.  None = admit everything (stock
        #: behaviour, zero extra work).
        self.admission = None
        #: Optional tenant -> class-name resolver (multi-tenant plane);
        #: installed via :meth:`install_tenant_steering`.  None = steer
        #: by flow key alone (stock behaviour).
        self.tenant_classifier = None
        self.crashed = False
        self.endpoints: List[QpEndpoint] = []
        self.commands_received = 0
        self.commands_shed = 0
        self.duplicates_suppressed = 0
        #: Power-cycle count: the epoch column of the audit log (replays
        #: after a restart legitimately reuse per-server positions).
        self.restarts = 0
        #: Audit of every *ordered* write actually applied to an SSD:
        #: (stream_id, server_pos, restart_epoch, virtual time).  The chaos
        #: harness asserts no (stream, pos) is applied twice per epoch and
        #: that per-stream positions are submitted in order.
        self.audit_log: List[Tuple[int, int, int, float]] = []
        self._stall_until = 0.0
        self._stall_done = None
        self._last_irq: Dict[int, float] = {}
        #: SSD completions that command handlers are parked on, in
        #: submission order.  A crashed SSD never fires them, so
        #: :meth:`crash` fails them to unwind those handlers.
        self._ssd_waits: Dict[Event, None] = {}

    def install_policy(self, policy: TargetPolicy) -> None:
        self.policy = policy
        policy.attach(self)

    def install_admission(self, config=None) -> None:
        """Arm admission control (overload plane).  ``config`` is an
        :class:`~repro.robust.admission.AdmissionConfig`, an
        :class:`~repro.robust.admission.AdmissionController`, or None for
        the defaults."""
        from repro.robust.admission import AdmissionController

        if isinstance(config, AdmissionController):
            self.admission = config
        else:
            self.admission = AdmissionController(config)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.register_gauge(
                f"target.{self.name}.commands_shed", lambda: self.commands_shed
            )

    def install_tenant_steering(self, classifier, shares) -> None:
        """Confine tenant classes to core sub-pools (multi-tenant plane).

        ``classifier`` maps a tenant id to a class name;  ``shares`` maps
        class names to fractional ``(lo, hi)`` slices of each steering
        pool, e.g. ``{"gold": (0.0, 0.5), "bronze": (0.5, 1.0)}`` keeps a
        bronze interrupt storm off the lower half of both the IRQ and the
        completion cores.  Classes not in ``shares`` keep the full pool.
        """
        self.tenant_classifier = classifier
        for steering in (self.irq_steering, self.completion_steering):
            n = len(steering.cores)
            for class_name, (lo, hi) in shares.items():
                if not 0.0 <= lo < hi <= 1.0:
                    raise ValueError(
                        f"share for {class_name!r} must satisfy 0 <= lo < hi <= 1"
                    )
                start = int(lo * n)
                stop = max(start + 1, int(hi * n))
                steering.assign_class(
                    class_name,
                    [c.index for c in steering.cores[start:stop]],
                )

    def _tenant_class_of(self, message: Message):
        if self.tenant_classifier is None or message.kind != "nvme_cmd":
            return None
        request = getattr(message.payload, "context", None)
        tenant = getattr(request, "tenant", None) if request is not None else None
        if tenant is None:
            return None
        return self.tenant_classifier(tenant)

    def attach_connection(self, endpoints: List[QpEndpoint]) -> None:
        """Register receive handling for target-side QP endpoints.

        The flow key of each endpoint is its *global* index across every
        attached connection, so two initiators fanning into one target
        land on staggered cores rather than re-colliding on core 0.
        """
        base = len(self.endpoints)
        for offset, endpoint in enumerate(endpoints):
            endpoint.set_receive_handler(
                partial(self._handle_message, endpoint, base + offset)
            )
            self.endpoints.append(endpoint)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power failure of the whole server (§6.5's injected error)."""
        self.crashed = True
        for ssd in self.ssds:
            ssd.crash()
        for endpoint in self.endpoints:
            endpoint.crash()
        self.pmr.crash()
        # The server's software dies with it: every handler parked on the
        # SSD unwinds now through its CrashedError exit, which frees its
        # admission slot and closes its span (no response is sent).
        waits, self._ssd_waits = self._ssd_waits, {}
        for done in waits:
            if not done.triggered:
                done.fail(CrashedError(f"{self.name} crashed"))

    def restart(self) -> None:
        if not self.crashed:
            raise RuntimeError(f"{self.name} is not crashed")
        self.crashed = False
        self.restarts += 1
        for ssd in self.ssds:
            ssd.restart()
        for endpoint in self.endpoints:
            endpoint.restart()
        self.policy.on_restart()
        if self.admission is not None:
            # Per-server positions are legitimately replayed in the new
            # restart epoch — stale suffix markers must not shed them.
            self.admission.reset_markers()

    # ------------------------------------------------------------------
    # Gray failure: fail-slow service degradation
    # ------------------------------------------------------------------

    def degrade(self, factor: float) -> None:
        """Inflate this server's service times by ``factor`` (a gray
        failure: everything still completes, just slower — a dying disk,
        thermal throttling, a misbehaving NIC firmware)."""
        if factor < 1.0:
            raise ValueError("degrade factor must be >= 1")
        self.env.trace("fault", "degrade", target=self.name, factor=factor)
        for ssd in self.ssds:
            ssd.service_inflation = factor
        self.nic.inflation = factor

    def restore(self) -> None:
        """End a :meth:`degrade` episode."""
        self.env.trace("fault", "degrade_end", target=self.name)
        for ssd in self.ssds:
            ssd.service_inflation = 1.0
        self.nic.inflation = 1.0

    # ------------------------------------------------------------------
    # Transient faults: stall + duplicate audit
    # ------------------------------------------------------------------

    def stall(self, duration: float) -> None:
        """Freeze message processing for ``duration`` seconds.

        Models a wedged target (GC pause, dying disk, livelocked IRQ core):
        newly arriving messages queue up behind a gate and are processed in
        arrival order once the stall ends.  Commands already past the gate
        keep executing.  Overlapping stalls extend each other.
        """
        until = self.env.now + duration
        self.env.trace("fault", "target_stall", target=self.name,
                       duration=duration, until=until)
        self._stall_until = max(self._stall_until, until)
        if self._stall_done is None or self._stall_done.triggered:
            self._stall_done = Event(self.env)
            self.env.process(self._stall_timer())

    def _stall_timer(self):
        while self.env.now < self._stall_until:
            yield self.env.timeout(self._stall_until - self.env.now)
        done, self._stall_done = self._stall_done, None
        self.env.trace("fault", "target_stall_end", target=self.name)
        done.succeed()

    def duplicate_applies(self) -> List[Tuple[int, int, int]]:
        """(stream, pos, epoch) keys applied to an SSD more than once."""
        seen = set()
        dups = []
        for stream_id, pos, epoch, _when in self.audit_log:
            key = (stream_id, pos, epoch)
            if key in seen:
                dups.append(key)
            seen.add(key)
        return dups

    def submission_order_violations(self) -> List[Tuple[int, int, int]]:
        """Audit entries whose per-stream position went backwards or
        repeated within one restart epoch (in-order submission broken)."""
        highest: Dict[Tuple[int, int], int] = {}
        violations = []
        for stream_id, pos, epoch, _when in self.audit_log:
            key = (stream_id, epoch)
            last = highest.get(key, -1)
            if pos <= last:
                violations.append((stream_id, pos, epoch))
            highest[key] = max(last, pos)
        return violations

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _handle_message(self, endpoint: QpEndpoint, flow: int, message: Message):
        """Receive handler of one endpoint: the whole life of one message,
        from the receive interrupt to the response SEND, in one frame."""
        if self.crashed:
            return
        # Steer per message: static policies (pin, flow-hash) resolve to
        # the same core every time, dynamic ones (round-robin,
        # least-loaded) re-decide at interrupt time.
        tenant_class = self._tenant_class_of(message)
        core = self.irq_steering.select(flow, tenant_class)
        completion_core = self.completion_steering.select(flow, tenant_class)
        if self._stall_done is not None and not self._stall_done.triggered:
            yield self._stall_done  # wedged target: park until it recovers
            if self.crashed:
                return
        ctx = TargetContext(self, endpoint, core, completion_core)
        costs = self.costs
        yield from core.run(
            irq_cost(costs, self._last_irq, core.index, self.env.now)
        )
        cmd = message.payload
        obs = self.env.obs
        if obs is not None and message.kind == "nvme_cmd":
            req = cmd.context
            parent = None
            if req is not None and getattr(req, "obs", None):
                parent = req.obs.get("fabric")
            ctx.obs_span = obs.spans.open(
                "target.admit", parent=parent, host=self.name,
                cid=cmd.cid, qp=endpoint.qp.index,
            )
        token = None
        try:
            if message.kind != "nvme_cmd":
                yield from core.run(costs.recv_process)
                yield from self.policy.on_control(ctx, message)
                return
            self.commands_received += 1
            yield from core.run(costs.recv_process)
            if self.admission is not None:
                # Admission decision *before* the policy hooks, the
                # barrier-ticket reservation and the data fetch: a shed
                # command costs one receive and one response, never an
                # RDMA READ or an SSD slot.
                token, reason = self.admission.admit(cmd, self.env.now)
                if token is None:
                    self.commands_shed += 1
                    self.env.trace(
                        "target", "shed", target=self.name, cid=cmd.cid,
                        opcode=cmd.opcode, cause=reason,
                    )
                    yield from completion_core.run(costs.response_post)
                    self._respond(endpoint, cmd, status=STATUS_QFULL)
                    return
            if self.crashed:
                return

            barrier_ticket = None
            if cmd.opcode == OP_WRITE:
                if cmd.barrier:
                    # Reserve the device's barrier-order slot *now*, while
                    # command handling is still serialized in QP delivery
                    # order: the data fetch below takes size-dependent
                    # time, so concurrently handled commands reach
                    # ssd.submit() in scrambled order.
                    barrier_ticket = self.ssds[cmd.nsid].reserve_barrier_ticket()
                if endpoint.qp.transport == "tcp":
                    # NVMe/TCP: the data arrived inline; pay the socket
                    # stack and the copy out of the receive buffers.
                    yield from core.run(
                        costs.tcp_stack_per_message
                        + costs.tcp_copy_per_block * cmd.nblocks
                    )
                else:
                    # Fetch data blocks by one-sided RDMA READ (no target
                    # CPU beyond posting the work request).
                    yield from core.run(costs.rdma_read_post)
                    yield from endpoint.rdma(cmd.nbytes)
                if self.crashed:
                    return

            before_submit = self.policy.before_submit
            if before_submit is not None:
                yield from before_submit(ctx, cmd)
            if self.crashed:
                return
            if ctx.duplicate:
                # A retransmission of an already-admitted ordered write:
                # never re-applied (idempotent retry).  Acknowledge
                # immediately — the original execution owns persistence
                # and ordering.
                self.duplicates_suppressed += 1
                if barrier_ticket is not None:
                    self.ssds[cmd.nsid].release_barrier_ticket(barrier_ticket)
                yield from completion_core.run(costs.response_post)
                self._respond(endpoint, cmd)
                return

            ssd = self.ssds[cmd.nsid]
            attr = getattr(cmd.context, "attr", None) if cmd.context is not None else None
            if attr is not None and cmd.opcode == OP_WRITE:
                self.audit_log.append(
                    (attr.stream_id, attr.server_pos, self.restarts, self.env.now)
                )
            yield from core.run(costs.nvme_submit)
            if cmd.opcode == OP_FLUSH:
                io = DiskIO(op="flush")
            elif cmd.opcode == OP_WRITE:
                io = DiskIO(
                    op="write",
                    lba=cmd.slba,
                    nblocks=cmd.nblocks,
                    payload=cmd.payload,
                    fua=cmd.fua,
                    barrier=cmd.barrier,
                )
                if barrier_ticket is not None:
                    io._barrier_ticket = barrier_ticket  # type: ignore[attr-defined]
            else:
                io = DiskIO(op="read", lba=cmd.slba, nblocks=cmd.nblocks)
            io.obs_parent = ctx.obs_span
            done = ssd.submit(io)
            self._ssd_waits[done] = None
            yield done
            self._ssd_waits.pop(done, None)
            yield from completion_core.run(costs.nvme_completion)

            if cmd.flush_after:
                done = ssd.submit(DiskIO(op="flush", obs_parent=ctx.obs_span))
                self._ssd_waits[done] = None
                yield done
                self._ssd_waits.pop(done, None)
                yield from completion_core.run(costs.nvme_completion)
            if self.crashed:
                return

            after_completion = self.policy.after_completion
            if after_completion is not None:
                yield from after_completion(ctx, cmd)
            if self.crashed:
                return

            data, inline = None, 0
            if cmd.opcode == OP_READ:
                data = io.payload
                if endpoint.qp.transport == "tcp":
                    # Read data rides inline in the response PDU.
                    yield from completion_core.run(
                        costs.tcp_stack_per_message
                        + costs.tcp_copy_per_block * cmd.nblocks
                    )
                    inline = cmd.nbytes
                else:
                    # Ship the data back with a one-sided RDMA WRITE.
                    yield from endpoint.rdma(cmd.nbytes)
            yield from completion_core.run(costs.response_post)
            self._respond(endpoint, cmd, data=data, inline=inline)
        except CrashedError:
            # The server lost power while this command was in flight: on
            # real hardware nothing more happens — no response is sent.
            return
        finally:
            # Runs on every exit, the crash unwind included: an admitted
            # command is completed exactly once, then its span closes.
            if token is not None:
                self.admission.complete(token)
            if ctx.obs_span is not None:
                extra = {}
                if ctx.duplicate:
                    extra["duplicate"] = 1
                if self.crashed:
                    extra["crashed"] = 1
                obs.spans.close(ctx.obs_span, **extra)

    @staticmethod
    def _respond(
        endpoint: QpEndpoint,
        cmd: NvmeCommand,
        status: int = 0,
        data: Any = None,
        inline: int = 0,
    ) -> None:
        """Post the ``nvme_resp`` SEND for ``cmd``: ``data`` is the read
        payload, of which ``inline`` bytes ride in the PDU (NVMe/TCP)."""
        endpoint.post_send(
            Message(
                kind="nvme_resp",
                payload=(NvmeResponse(cid=cmd.cid, status=status), data),
                nbytes=NvmeResponse.WIRE_SIZE + inline,
            )
        )

    def __repr__(self) -> str:
        return f"<TargetServer {self.name} ssds={len(self.ssds)}>"
