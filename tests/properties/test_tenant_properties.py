"""Property-based tests of the tenant plane (directory + QoS admission).

Four contracts the multi-tenant harness leans on:

* **token-bucket conservation** — over any admission window a paced
  tenant admits at most ``rate x window + burst`` commands, whatever the
  arrival pattern;
* **weighted-fair work conservation** — a class with no *active*
  competitor is never wfq-shed, and a class returning from idle cannot
  bank idle credit against a backlogged competitor (its first arrivals
  after the competitor goes active are still admitted);
* **Zipf/placement determinism** — the tenant directory is a pure
  function of its seed: placement, classes, popularity ranks and the
  Zipf draw stream under :meth:`DeterministicRNG.fork` all replay
  bit-identically, and placement is a partition (every tenant on
  exactly one stream);
* **ordered gap-freedom under per-tenant sheds** — with QoS pacing and
  weighted-fair sheds in the mix, a stream's first-time admissions are
  still exactly ``0, 1, 2, ...`` (pace/wfq sheds go through the same
  suffix-marker path as capacity sheds).
"""

from dataclasses import dataclass
from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.nvmeof.command import OP_READ, OP_WRITE
from repro.robust.admission import (
    AdmissionConfig,
    AdmissionController,
    QosClass,
    TenantQos,
)
from repro.sim.rng import DeterministicRNG
from repro.tenants import TenantDirectory


@dataclass
class _Attr:
    stream_id: int
    server_pos: int


@dataclass
class _Ctx:
    attr: Optional[_Attr]
    tenant: Optional[int] = None


@dataclass
class _Cmd:
    """The duck-typed slice of an NVMe command that admission looks at."""

    opcode: int
    context: Optional[_Ctx] = None


def _ordered(stream: int, pos: int, tenant: Optional[int] = None) -> _Cmd:
    return _Cmd(opcode=OP_WRITE,
                context=_Ctx(attr=_Attr(stream, pos), tenant=tenant))


def _unordered(tenant: Optional[int] = None) -> _Cmd:
    return _Cmd(opcode=OP_READ, context=_Ctx(attr=None, tenant=tenant))


# ----------------------------------------------------------------------
# Token-bucket conservation
# ----------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=5e-4), min_size=1,
             max_size=120),          # inter-arrival gaps
    st.floats(min_value=1e3, max_value=1e6),   # rate_iops
    st.floats(min_value=1.0, max_value=16.0),  # burst
)
@settings(max_examples=150, deadline=None)
def test_paced_tenant_admits_at_most_rate_window_plus_burst(
    gaps, rate, burst,
):
    qos = TenantQos(
        (QosClass("bronze", weight=1.0, rate_iops=rate, burst=burst),),
        classifier=lambda tenant: "bronze",
    )
    controller = AdmissionController(
        AdmissionConfig(max_inflight_ordered=1024,
                        max_inflight_unordered=1024),
        qos=qos,
    )
    now = 0.0
    admitted = 0
    for gap in gaps:
        now += gap
        token, reason = controller.admit(_unordered(tenant=7), now)
        if token is not None:
            admitted += 1
            controller.complete(token)
        else:
            assert reason == "pace"
    window = now  # the bucket starts full at t=0
    assert admitted <= rate * window + burst + 1e-6, (
        f"{admitted} admits over {window}s at rate {rate} burst {burst}"
    )
    assert controller.admitted == admitted
    assert controller.shed == len(gaps) - admitted


# ----------------------------------------------------------------------
# Weighted-fair work conservation
# ----------------------------------------------------------------------

_TWO_CLASSES = (
    QosClass("gold", weight=8.0),
    QosClass("bronze", weight=1.0),
)


def _two_class_controller(quantum: float = 8.0) -> AdmissionController:
    qos = TenantQos(
        _TWO_CLASSES,
        classifier=lambda tenant: "gold" if tenant == 0 else "bronze",
        quantum=quantum,
    )
    return AdmissionController(
        AdmissionConfig(max_inflight_ordered=1024,
                        max_inflight_unordered=1024),
        qos=qos,
    )


@given(
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.5, max_value=32.0),
    st.booleans(),  # complete each command before the next arrival?
)
@settings(max_examples=100, deadline=None)
def test_sole_active_class_is_never_wfq_shed(n_ops, quantum, drain):
    controller = _two_class_controller(quantum)
    now = 0.0
    tokens: List[int] = []
    for _ in range(n_ops):
        now += 1e-6
        token, reason = controller.admit(_unordered(tenant=1), now)
        assert token is not None, (
            f"sole active class wfq-shed (reason={reason}) after "
            f"{controller.admitted} admits"
        )
        if drain:
            controller.complete(token)
        else:
            tokens.append(token)
    assert "wfq" not in controller.shed_by_reason


@given(
    st.integers(min_value=1, max_value=400),   # bronze head start
    st.floats(min_value=0.5, max_value=32.0),  # quantum
)
@settings(max_examples=100, deadline=None)
def test_idle_class_cannot_bank_credit_against_a_backlog(head, quantum):
    """Gold idles while bronze serves ``head`` commands; when gold wakes
    it is re-anchored, so bronze's next arrival (lagging in virtual
    time) is still admitted — the head start never becomes a starvation
    lever in either direction."""
    controller = _two_class_controller(quantum)
    now = 0.0
    backlog: List[int] = []
    for _ in range(head):
        now += 1e-6
        token, _ = controller.admit(_unordered(tenant=1), now)
        assert token is not None
        backlog.append(token)  # bronze stays active (inflight > 0)

    now += 1e-6
    gold_token, reason = controller.admit(_unordered(tenant=0), now)
    assert gold_token is not None, (
        f"gold shed on wake (reason={reason}) after bronze served {head}"
    )
    # Re-anchoring: gold's virtual clock jumped to bronze's, so gold is
    # at most one admit ahead — bronze keeps being admitted.
    now += 1e-6
    bronze_token, reason = controller.admit(_unordered(tenant=1), now)
    assert bronze_token is not None, (
        f"bronze shed (reason={reason}) right after gold woke"
    )
    gold_v = controller.qos_virtual_work("gold")
    bronze_v = controller.qos_virtual_work("bronze")
    assert gold_v <= bronze_v + 1.0 / 8.0 + 1e-9
    for token in backlog + [gold_token, bronze_token]:
        controller.complete(token)
    assert controller.qos_inflight("gold") == 0
    assert controller.qos_inflight("bronze") == 0


# ----------------------------------------------------------------------
# Zipf / placement determinism
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2 ** 31),  # seed
    st.integers(min_value=1, max_value=200),      # tenants
    st.integers(min_value=1, max_value=16),       # streams
    st.floats(min_value=0.2, max_value=2.5),      # zipf alpha
    st.integers(min_value=1, max_value=64),       # draws
)
@settings(max_examples=100, deadline=None)
def test_directory_is_a_pure_function_of_its_seed(
    seed, tenants, streams, alpha, draws,
):
    kwargs = dict(num_tenants=tenants, num_streams=streams, seed=seed,
                  zipf_alpha=alpha)
    a, b = TenantDirectory(**kwargs), TenantDirectory(**kwargs)

    assert [a.stream_of(t) for t in range(tenants)] == \
           [b.stream_of(t) for t in range(tenants)]
    assert [a.class_name_of(t) for t in range(tenants)] == \
           [b.class_name_of(t) for t in range(tenants)]
    assert [a.tenant_at_rank(r) for r in range(tenants)] == \
           [b.tenant_at_rank(r) for r in range(tenants)]

    # The Zipf draw stream replays bit-identically under fork(label) —
    # the loadgen's per-lane RNG discipline.
    rng_a = DeterministicRNG(seed).fork("tenant-pick")
    rng_b = DeterministicRNG(seed).fork("tenant-pick")
    assert [a.pick(rng_a) for _ in range(draws)] == \
           [b.pick(rng_b) for _ in range(draws)]


@given(
    st.integers(min_value=0, max_value=2 ** 31),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_placement_partitions_the_population(seed, tenants, streams):
    directory = TenantDirectory(num_tenants=tenants, num_streams=streams,
                                seed=seed)
    seen: List[int] = []
    for stream in range(streams):
        members = list(directory.tenants_of_stream(stream, limit=tenants))
        assert len(members) == directory.member_count(stream)
        for tenant in members:
            assert directory.stream_of(tenant) == stream
        seen.extend(members)
    assert sorted(seen) == list(range(tenants))
    # Popularity ranking is a bijection too.
    ranks = [directory.tenant_at_rank(r) for r in range(tenants)]
    assert sorted(ranks) == list(range(tenants))


# ----------------------------------------------------------------------
# Ordered gap-freedom under per-tenant sheds
# ----------------------------------------------------------------------

_qos_steps = st.lists(
    st.tuples(
        st.sampled_from(("offer", "retry", "complete")),
        st.integers(0, 2),       # stream id (== tenant id)
        st.integers(0, 7),       # index into the retry/complete pool
    ),
    min_size=1,
    max_size=80,
)


@given(
    _qos_steps,
    st.floats(min_value=1e3, max_value=1e5),   # bronze pacing rate
    st.floats(min_value=1.0, max_value=4.0),   # bronze burst
    st.floats(min_value=0.5, max_value=8.0),   # wfq quantum
)
@settings(max_examples=120, deadline=None)
def test_ordered_density_survives_pace_and_wfq_sheds(
    script, rate, burst, quantum,
):
    """Pace and wfq sheds ride the same suffix-marker path as capacity
    sheds, so first-time admissions stay dense per stream and the
    retransmission pool still drains (buckets refill with time; wfq
    cannot wedge once competitors complete)."""
    qos = TenantQos(
        (
            QosClass("gold", weight=8.0),
            QosClass("bronze", weight=1.0, rate_iops=rate, burst=burst),
        ),
        classifier=lambda tenant: "gold" if tenant == 0 else "bronze",
        quantum=quantum,
    )
    controller = AdmissionController(
        AdmissionConfig(max_inflight_ordered=4, max_inflight_unordered=4),
        qos=qos,
    )
    now = 0.0
    next_pos = {}
    shed_cmds: List[_Cmd] = []
    outstanding: List[int] = []
    first_admissions = {}
    arrivals = 0

    def offer(cmd: _Cmd):
        nonlocal now, arrivals
        arrivals += 1
        now += 1e-6
        attr = cmd.context.attr
        before = controller.admitted_upto.get(attr.stream_id, -1)
        token, reason = controller.admit(cmd, now)
        if token is None:
            assert reason
            shed_cmds.append(cmd)
            return
        outstanding.append(token)
        if attr.server_pos > before:
            first_admissions.setdefault(attr.stream_id, []).append(
                attr.server_pos
            )

    for op, stream, pick in script:
        if op == "offer":
            pos = next_pos.get(stream, 0)
            next_pos[stream] = pos + 1
            offer(_ordered(stream, pos, tenant=stream))
        elif op == "retry" and shed_cmds:
            offer(shed_cmds.pop(pick % len(shed_cmds)))
        elif op == "complete" and outstanding:
            now += 1e-6
            controller.complete(outstanding.pop(pick % len(outstanding)))

    # Drain: complete everything (wfq has no active competitor left),
    # jump time forward (buckets refill), re-post sheds in position
    # order — the way the driver's requeue pacer does.
    for _round in range(arrivals + len(shed_cmds) + 1):
        if not shed_cmds:
            break
        while outstanding:
            now += 1e-6
            controller.complete(outstanding.pop())
        now += 1.0  # >> burst / rate: every bucket refills to the brim
        batch = sorted(
            shed_cmds, key=lambda c: (c.context.attr.stream_id,
                                      c.context.attr.server_pos)
        )
        shed_cmds.clear()
        for cmd in batch:
            offer(cmd)
    assert not shed_cmds, "retransmission pool never drained"
    while outstanding:
        now += 1e-6
        controller.complete(outstanding.pop())

    assert controller.admitted + controller.shed == arrivals
    assert controller.inflight("ordered") == 0
    assert controller.qos_inflight("gold") == 0
    assert controller.qos_inflight("bronze") == 0
    for stream, positions in first_admissions.items():
        assert positions == list(range(len(positions))), (
            f"stream {stream} admitted {positions}"
        )
