"""Differential: :class:`~repro.sim.resources.IssueWindow` against the
closed-loop window it replaced.

``OracleWindow`` is that loop, kept here only as the oracle: an ``all_of``
tracker and a ``watch`` process per op, then ``any_of`` over the whole
window and a rescan for ops that have not triggered::

    tracker = env.all_of(events)
    env.process(watch(tracker, *info))
    inflight.append(tracker)
    while len(inflight) >= depth:
        yield env.any_of(inflight)
        inflight = [t for t in inflight if not t.triggered]

Hypothesis generates issuers that push ops made of one to three member
events through a window of depth 1-4.  A member is already processed
(succeeded or failed) when the op is tracked, as on a synchronous stack,
or is succeeded or failed by a helper process after a delay, or is
succeeded by a shared ticker that fires several members in one step.
Bystander processes log at the same instants, and the program runs in
``run(until=...)`` segments or by ``step()``.  Every issue, completion,
wake and bystander tick is logged with its time; the logs of the two
windows must be equal, up to and including the exception that a failed
member raises out of ``run()``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import Environment
from repro.sim.resources import IssueWindow

_DELAYS = (0.0, 0.0, 1e-6, 1e-6, 2e-6, 3e-6)
_SEGMENTS = (0.0, 1e-6, 2e-6, 5e-6)


class OracleWindow:
    """The replaced loop (module docstring), behind IssueWindow's API."""

    def __init__(self, env, depth, on_complete):
        self.env = env
        self.depth = depth
        self.on_complete = on_complete
        self.inflight = []

    def issue(self, events, *info):
        env = self.env
        tracker = env.all_of(events)
        env.process(self._watch(tracker, info))
        self.inflight.append(tracker)
        while len(self.inflight) >= self.depth:
            yield env.any_of(self.inflight)
            self.inflight = [t for t in self.inflight if not t.triggered]

    def _watch(self, tracker, info):
        yield tracker
        self.on_complete(*info)


def play(window_cls, issuers, bystanders, segments):
    """Run one generated program; returns the observation log."""
    env = Environment()
    log = []
    ticks = []  # members the ticker succeeds, in order

    def complete(tag):
        log.append(("complete", env.now, tag))

    def settle(event, kind, k):
        yield env.timeout(_DELAYS[k % len(_DELAYS)])
        if kind == "at":
            event.succeed(k)
        else:
            event.fail(ValueError(f"member failed at {env.now}"))

    def ticker():
        for _ in range(4):
            yield env.timeout(1e-6)
            while ticks:
                ticks.pop(0).succeed("tick")

    def member(spec):
        event = env.event()
        kind = spec[0]
        if kind == "done":
            event.succeed("done")
            yield event  # processed before it is tracked
        elif kind == "failed":
            event.fail(ValueError("member failed before it was tracked"))
            try:
                yield event
            except ValueError:
                pass
        elif kind == "tick":
            ticks.append(event)
        else:
            env.process(settle(event, kind, spec[1]))
        return event

    def issuer(iid, depth, ops):
        window = window_cls(env, depth, complete)
        for n, (members, gap) in enumerate(ops):
            events = []
            for spec in members:
                events.append((yield from member(spec)))
            tag = f"{iid}.{n}"
            log.append(("issue", env.now, tag))
            yield from window.issue(events, tag)
            log.append(("issued", env.now, tag))
            if gap:
                yield env.timeout(_DELAYS[gap % len(_DELAYS)])

    def bystander(bid, delays):
        for k in delays:
            yield env.timeout(_DELAYS[k % len(_DELAYS)])
            log.append(("tick", env.now, bid))

    for iid, (depth, ops) in enumerate(issuers):
        env.process(issuer(iid, depth, ops))
    for bid, delays in enumerate(bystanders):
        env.process(bystander(bid, delays))
    env.process(ticker())
    try:
        for segment in segments:
            if segment[0] == "until":
                env.run(until=env.now + _SEGMENTS[segment[1] % len(_SEGMENTS)])
            elif env.peek() != float("inf"):
                env.step()
        env.run()
    except ValueError as exc:
        log.append(("raised", env.now, str(exc)))
    log.append(("end", env.now))
    return log


_MEMBER = st.one_of(
    st.tuples(st.sampled_from(["done", "done", "failed"])),
    st.tuples(st.just("tick")),
    st.tuples(st.just("at"), st.integers(0, 5)),
    st.tuples(st.just("fail"), st.integers(0, 5)),
)
_OP = st.tuples(st.lists(_MEMBER, min_size=1, max_size=3), st.integers(0, 5))
_ISSUERS = st.lists(
    st.tuples(st.integers(1, 4), st.lists(_OP, max_size=8)),
    min_size=1, max_size=2,
)
_BYSTANDERS = st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=2)
_SEGMENT_LIST = st.lists(
    st.one_of(st.tuples(st.just("until"), st.integers(0, 3)),
              st.tuples(st.just("step"))),
    max_size=4,
)


def _ok(k=2):
    return ("at", k)


@settings(max_examples=300, deadline=None)
@given(issuers=_ISSUERS, bystanders=_BYSTANDERS, segments=_SEGMENT_LIST)
# Synchronous stack: every op is complete when it is tracked, so its
# completion waits for the watch's start (and, with a bystander due at the
# same instant, for its immediate resume).
@example(issuers=[(2, [([("done",)], 0)] * 5)], bystanders=[[0, 0, 0]],
         segments=[])
@example(issuers=[(1, [([("done",)], 1)] * 3), (2, [([_ok(0)], 0)] * 3)],
         bystanders=[[0, 2]], segments=[("step",), ("step",), ("step",)])
# Multi-event ops: a journal pair and a batch, one member already done.
@example(issuers=[(2, [([_ok(2), _ok(3)], 0), ([("done",), _ok(2)], 0),
                       ([_ok(1), ("tick",), _ok(4)], 0)] * 2)],
         bystanders=[[2, 2]], segments=[])
# A failed member raises out of run().
@example(issuers=[(2, [([_ok(2)], 0), ([("fail", 2)], 0), ([_ok(3)], 0)])],
         bystanders=[], segments=[])
@example(issuers=[(1, [([("done",), ("fail", 0)], 0), ([_ok(1)], 0)])],
         bystanders=[[0]], segments=[])
# ...and one that failed before it was tracked fails the wake it fires.
@example(issuers=[(1, [([("failed",)], 0)])], bystanders=[], segments=[])
# Depth 1: every issue waits for its own op.
@example(issuers=[(1, [([_ok(2)], 0), ([("tick",)], 1), ([_ok(0)], 0)])],
         bystanders=[[2, 3]], segments=[])
# A wake landing exactly on run(until=...), then more after the boundary.
@example(issuers=[(2, [([_ok(2)], 0), ([_ok(3)], 0), ([_ok(2)], 0),
                       ([_ok(2)], 0)])],
         bystanders=[[2]], segments=[("until", 1), ("until", 2)])
def test_issue_window_matches_the_any_of_loop(issuers, bystanders, segments):
    expected = play(OracleWindow, issuers, bystanders, segments)
    assert play(IssueWindow, issuers, bystanders, segments) == expected


def test_oracle_has_teeth():
    """A window that skips the stale count (it refreshes on every issue,
    and so waits less) is told apart from the oracle."""

    class EagerWindow(IssueWindow):
        def issue(self, events, *info):
            self._mark = self._triggered
            yield from super().issue(events, *info)

    issuers = [(2, [([("done",)], 0), ([("done",)], 0)])]
    expected = play(OracleWindow, issuers, [], [])
    assert play(IssueWindow, issuers, [], []) == expected
    assert play(EagerWindow, issuers, [], []) != expected


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        IssueWindow(Environment(), 0)
