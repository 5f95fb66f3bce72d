"""Property-based tests of the admission controller and retry budget
contracts (robustness plane).

Three invariants the overload harness leans on:

* **command conservation** — every arrival is either admitted or shed,
  every admitted token is completed exactly once, and the inflight
  gauges return to zero when the last admitted command completes;
* **ordered prefix density** — under any interleaving of arrivals,
  retransmissions and completions, a stream's first-time admissions are
  exactly ``0, 1, 2, ...``: a position is only ever admitted when every
  smaller position of its stream was admitted before it (the suffix
  marker and the gap rule together make shed ordered suffixes re-enter
  densely);
* **retry-budget boundedness** — under any earn/spend interleaving the
  retransmissions allowed never exceed ``cap + ratio * fresh``.
"""

from dataclasses import dataclass, field
from typing import Any, List, Optional

from hypothesis import given, settings, strategies as st

from repro.nvmeof.command import OP_READ, OP_WRITE
from repro.robust.admission import (
    AdmissionConfig,
    AdmissionController,
    RetryBudget,
)


@dataclass
class _Attr:
    stream_id: int
    server_pos: int


@dataclass
class _Ctx:
    attr: Optional[_Attr]


@dataclass
class _Cmd:
    """The duck-typed slice of an NVMe command that admission looks at."""

    opcode: int
    context: Optional[_Ctx] = None


def _ordered(stream: int, pos: int) -> _Cmd:
    return _Cmd(opcode=OP_WRITE, context=_Ctx(attr=_Attr(stream, pos)))


def _unordered() -> _Cmd:
    return _Cmd(opcode=OP_READ, context=None)


# One simulated driver step: either offer the next position of a stream,
# re-offer a previously shed position (a retransmission), offer an
# unordered command, or complete an outstanding admitted command.
steps = st.lists(
    st.tuples(
        st.sampled_from(("offer", "retry", "unordered", "complete")),
        st.integers(0, 2),       # stream id
        st.integers(0, 7),       # index into the retry/complete pool
    ),
    min_size=1,
    max_size=80,
)


@given(
    steps,
    st.integers(1, 4),   # ordered cap
    st.integers(1, 4),   # unordered cap
)
@settings(max_examples=150, deadline=None)
def test_conservation_and_ordered_density(script, cap_o, cap_u):
    controller = AdmissionController(AdmissionConfig(
        max_inflight_ordered=cap_o, max_inflight_unordered=cap_u,
    ))
    now = 0.0
    next_pos = {}           # stream -> next fresh position to offer
    shed_cmds: List[_Cmd] = []       # retransmission pool
    outstanding: List[int] = []      # admitted tokens not yet completed
    first_admissions = {}   # stream -> positions in first-admission order
    arrivals = 0

    def offer(cmd: _Cmd):
        nonlocal now, arrivals
        arrivals += 1
        now += 1e-6
        attr = cmd.context.attr if cmd.context is not None else None
        before = (
            controller.admitted_upto.get(attr.stream_id, -1)
            if attr is not None else None
        )
        token, reason = controller.admit(cmd, now)
        if token is None:
            assert reason
            if cmd.opcode == OP_WRITE:
                shed_cmds.append(cmd)
            return
        outstanding.append(token)
        if attr is not None and attr.server_pos > before:
            first_admissions.setdefault(attr.stream_id, []).append(
                attr.server_pos
            )

    for op, stream, pick in script:
        if op == "offer":
            pos = next_pos.get(stream, 0)
            next_pos[stream] = pos + 1
            offer(_ordered(stream, pos))
        elif op == "retry" and shed_cmds:
            offer(shed_cmds.pop(pick % len(shed_cmds)))
        elif op == "unordered":
            offer(_unordered())
        elif op == "complete" and outstanding:
            now += 1e-6
            controller.complete(outstanding.pop(pick % len(outstanding)))

    # The driver drains: every shed ordered command is retransmitted (in
    # position order, the way the requeue pacer re-posts) with capacity
    # freed between attempts, until the pool is dry.
    for _round in range(arrivals + len(shed_cmds) + 1):
        if not shed_cmds:
            break
        while outstanding:
            now += 1e-6
            controller.complete(outstanding.pop())
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

    # Conservation: every arrival admitted or shed, nothing in flight.
    assert controller.admitted + controller.shed == arrivals
    assert controller.inflight("ordered") == 0
    assert controller.inflight("unordered") == 0
    assert sum(controller.shed_by_reason.values()) == controller.shed

    # Ordered prefix density: first admissions are exactly 0, 1, 2, ...
    for stream, positions in first_admissions.items():
        assert positions == list(range(len(positions))), (
            f"stream {stream} admitted {positions}"
        )


@given(steps)
@settings(max_examples=100, deadline=None)
def test_completing_a_token_twice_is_idempotent(script):
    controller = AdmissionController(AdmissionConfig(
        max_inflight_ordered=2, max_inflight_unordered=2,
    ))
    now = 0.0
    tokens = []
    for i, (op, _stream, pick) in enumerate(script):
        now += 1e-6
        if op in ("offer", "retry", "unordered"):
            token, _reason = controller.admit(_unordered(), now)
            if token is not None:
                tokens.append(token)
        elif tokens:
            token = tokens.pop(pick % len(tokens))
            controller.complete(token)
            controller.complete(token)  # crash-unwind double call
    for token in tokens:
        controller.complete(token)
    assert controller.inflight("unordered") == 0


@given(
    st.lists(st.sampled_from(("fresh", "retry")), min_size=1, max_size=200),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=16.0),
)
@settings(max_examples=150, deadline=None)
def test_retry_budget_is_bounded(ops, ratio, cap):
    budget = RetryBudget(ratio=ratio, cap=cap)
    fresh = retries = 0
    for op in ops:
        if op == "fresh":
            budget.earn()
            fresh += 1
        elif budget.try_spend():
            retries += 1
        assert 0.0 <= budget.tokens <= cap + 1e-9
    # The bucket starts full, so the all-time bound is cap + ratio*fresh.
    assert retries <= cap + ratio * fresh + 1e-9
    assert budget.earned == fresh
    assert budget.spent == retries
