"""Conservative parallel DES: sharded models, lookahead-window barriers.

The engine's events-per-core is this repo's analogue of the paper's
CPU-per-IOPS claim, and one core is the serial engine's hard ceiling.
This module scales *out* instead, PADS-style (conservative / CMB):

* a model is split into **shards**, each owning a private
  :class:`~repro.sim.engine.Environment` (or the calendar engine) and a
  :class:`ShardContext` for cross-shard traffic;
* shards interact **only** through time-stamped messages whose delivery
  delay is at least the fabric's minimum latency — the **lookahead**;
* the run advances in windows of exactly one lookahead: every shard
  simulates ``[t, t + L)`` in isolation (no message sent inside the
  window can arrive inside it), then a barrier exchanges the messages
  produced, and the next window begins.

Determinism rule (the DESIGN.md invariant): at every barrier the
messages bound for a shard are injected in sorted
``(arrival_time, src_shard, seq)`` order *before* the next window runs,
so the destination allocates event ids identically no matter which
worker produced the messages or how windows interleaved in wall-clock
time.  Consequently ``jobs=N`` is **bit-identical** to ``jobs=1`` —
the in-process serial reference that runs the very same windowed
protocol on the serial engine.  ``tests/sim/test_parallel.py`` pins
this with message-coupled models; ``tests/harness/test_saturate.py``
pins the degenerate case (independent saturation cells as shards,
infinite lookahead) against the plain serial sweep.

Workers are forked processes (one pipe each); shards are assigned
round-robin.  Fork inheritance means shard builders may be closures —
only messages and shard results cross process boundaries and must
pickle.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from heapq import heappush

from repro.sim.engine import _TRIGGERED, Environment, Event

__all__ = [
    "ShardContext",
    "run_sharded",
    "map_shards",
    "tick_shard",
    "ring_shard",
    "default_jobs",
]


def default_jobs() -> int:
    """Worker count matched to the host (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _make_env(engine: str) -> Environment:
    if engine == "heap":
        return Environment()
    if engine == "calendar":
        from repro.sim.calendar import CalendarEnvironment

        return CalendarEnvironment()
    raise ValueError(f"unknown engine {engine!r} (have: heap, calendar)")


class ShardContext:
    """One shard's handle on the fabric: its environment plus messaging.

    ``send(dst, payload, delay)`` queues a time-stamped message; ``delay``
    must be at least the run's lookahead (that bound is what makes the
    window barrier conservative rather than speculative).  ``on_message``
    registers the handler called as ``handler(src_shard, payload)`` at
    the message's arrival time.
    """

    def __init__(self, env: Environment, shard_id: int, num_shards: int,
                 lookahead: float):
        self.env = env
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.lookahead = lookahead
        self._outbox: List[Tuple[int, float, int, Any]] = []
        self._seq = count()
        self._handler: Optional[Callable[[int, Any], None]] = None

    def on_message(self, handler: Callable[[int, Any], None]) -> None:
        self._handler = handler

    def send(self, dst: int, payload: Any,
             delay: Optional[float] = None) -> None:
        if delay is None:
            delay = self.lookahead
        if delay < self.lookahead:
            raise ValueError(
                f"cross-shard delay {delay} is below the lookahead "
                f"{self.lookahead}: the conservative window barrier "
                "would miss it"
            )
        if not 0 <= dst < self.num_shards:
            raise ValueError(f"no such shard: {dst}")
        self._outbox.append(
            (dst, self.env.now + delay, next(self._seq), payload)
        )

    # -- runtime side -------------------------------------------------------

    def _drain_outbox(self) -> List[Tuple[int, float, int, Any]]:
        out = self._outbox
        self._outbox = []
        return out

    def _inject(self, messages: Sequence[Tuple[float, int, int, Any]]) -> None:
        """Schedule inbound messages, already sorted (arrival, src, seq).

        Event ids are allocated here, in that order, before the next
        window runs — the determinism rule.  The entries go straight onto
        the heap, even one arriving exactly at the window's end (the
        current time): between windows the ready queue is empty, so the
        engine's dispatch order stays ``(time, eid)``.
        """
        env = self.env
        handler = self._handler
        for arrival, src, _seq, payload in messages:
            event = Event(env)
            event._ok = True
            event._value = payload
            event._state = _TRIGGERED
            heappush(env._heap, (arrival, next(env._eid), event))
            if handler is not None:
                event.callbacks.append(
                    lambda _ev, h=handler, s=src, p=payload: h(s, p)
                )


#: A shard builder: receives the context, registers processes/handlers on
#: ``ctx.env``, and returns a zero-arg ``finish`` callable producing the
#: shard's (picklable) result once the run completes.
ShardBuilder = Callable[[ShardContext], Callable[[], Any]]


class _ShardRun:
    """One live shard inside whichever process owns it."""

    def __init__(self, builder: ShardBuilder, shard_id: int, num_shards: int,
                 lookahead: float, engine: str):
        self.ctx = ShardContext(
            _make_env(engine), shard_id, num_shards, lookahead
        )
        finish = builder(self.ctx)
        self._finish = finish if callable(finish) else (lambda: None)

    def advance(self, window_end: float) -> List[Tuple[int, float, int, Any]]:
        self.ctx.env.run(until=window_end)
        return self.ctx._drain_outbox()

    def inject(self, messages) -> None:
        self.ctx._inject(messages)

    def result(self) -> Any:
        return self._finish()


def _route(num_shards: int, tagged) -> Dict[int, list]:
    """Group (dst, arrival, src, seq, payload) tuples per destination, in
    the injection order (arrival, src, seq)."""
    by_dst: Dict[int, list] = {}
    for dst, arrival, src, seq, payload in tagged:
        by_dst.setdefault(dst, []).append((arrival, src, seq, payload))
    for messages in by_dst.values():
        messages.sort(key=lambda m: (m[0], m[1], m[2]))
    return by_dst


def _windows(until: float, lookahead: float):
    t = 0.0
    while t < until:
        t = until if lookahead == float("inf") else min(t + lookahead, until)
        yield t


def _window_worker(conn, owned, num_shards, lookahead, engine):
    """Child process: own a set of shards, advance them window by window."""
    try:
        shards = {
            sid: _ShardRun(builder, sid, num_shards, lookahead, engine)
            for sid, builder in owned
        }
        while True:
            op, *rest = conn.recv()
            if op == "window":
                window_end, inbound = rest
                for sid, messages in inbound.items():
                    shards[sid].inject(messages)
                out = []
                for sid in sorted(shards):
                    out.extend(
                        (dst, arrival, sid, seq, payload)
                        for dst, arrival, seq, payload
                        in shards[sid].advance(window_end)
                    )
                conn.send(("ok", out))
            elif op == "finish":
                conn.send(
                    ("ok", {sid: s.result() for sid, s in shards.items()})
                )
                return
    except BaseException as exc:  # surface the failure in the parent
        try:
            conn.send(("err", exc))
        except (BrokenPipeError, OSError):
            pass  # parent already gone; nothing left to tell
    finally:
        conn.close()


def run_sharded(
    builders: Sequence[ShardBuilder],
    *,
    lookahead: float,
    until: float,
    jobs: int = 1,
    engine: str = "heap",
) -> List[Any]:
    """Run a sharded model to ``until``; returns results in shard order.

    ``jobs=1`` executes the identical windowed protocol in-process (the
    bit-identity reference); ``jobs>1`` forks workers and exchanges the
    barrier messages over pipes.  Results are whatever each builder's
    ``finish`` callable returns.
    """
    if lookahead <= 0:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    if until <= 0:
        raise ValueError(f"until must be positive, got {until}")
    num_shards = len(builders)
    if num_shards == 0:
        return []
    jobs = max(1, min(jobs, num_shards))

    if jobs == 1:
        shards = [
            _ShardRun(builder, sid, num_shards, lookahead, engine)
            for sid, builder in enumerate(builders)
        ]
        for window_end in _windows(until, lookahead):
            tagged = []
            for shard in shards:
                tagged.extend(
                    (dst, arrival, shard.ctx.shard_id, seq, payload)
                    for dst, arrival, seq, payload
                    in shard.advance(window_end)
                )
            for dst, messages in sorted(_route(num_shards, tagged).items()):
                shards[dst].inject(messages)
        return [shard.result() for shard in shards]

    ctx = multiprocessing.get_context("fork")
    workers = []  # (conn, process, owned shard ids)
    for w in range(jobs):
        owned = [(sid, builders[sid])
                 for sid in range(w, num_shards, jobs)]
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_window_worker,
            args=(child_conn, owned, num_shards, lookahead, engine),
        )
        proc.start()
        child_conn.close()
        workers.append((parent_conn, proc, [sid for sid, _ in owned]))

    def _recv(conn):
        status, value = conn.recv()
        if status == "err":
            raise value
        return value

    def _send(conn, message):
        # A worker that died mid-protocol closed its pipe end; the send
        # then breaks, but its ("err", exc) — if it managed one — is
        # still buffered in the socket.  Read it so the builder's real
        # exception surfaces instead of a bare BrokenPipeError.
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            _recv(conn)  # raises the worker's error, or EOFError
            raise

    completed = False
    try:
        inbound_by_worker: List[Dict[int, list]] = [{} for _ in workers]
        for window_end in _windows(until, lookahead):
            for (conn, _proc, _owned), inbound in zip(workers,
                                                      inbound_by_worker):
                _send(conn, ("window", window_end, inbound))
            tagged = []
            for conn, _proc, _owned in workers:
                tagged.extend(_recv(conn))
            by_dst = _route(num_shards, tagged)
            inbound_by_worker = [
                {sid: by_dst[sid] for sid in owned if sid in by_dst}
                for _conn, _proc, owned in workers
            ]
        # Deliver any final-barrier messages (they arrive >= until, so
        # they cannot change results, but keep the protocol uniform),
        # then collect.
        results: Dict[int, Any] = {}
        for (conn, _proc, _owned), inbound in zip(workers,
                                                  inbound_by_worker):
            _send(conn, ("finish",))
        for conn, _proc, _owned in workers:
            results.update(_recv(conn))
        completed = True
    finally:
        for conn, _proc, _owned in workers:
            conn.close()
        for _conn, proc, _owned in workers:
            # Closing our pipe end does not EOF a worker stuck in recv():
            # fork hands every worker an inherited copy of its own
            # parent-side fd, so the socket stays half-open.  On the
            # error path, terminate instead of waiting on a join that
            # can never return.
            if not completed:
                proc.terminate()
            proc.join()
    return [results[sid] for sid in range(num_shards)]


# ----------------------------------------------------------------------
# Degenerate sharding: independent cells, infinite lookahead
# ----------------------------------------------------------------------


def _cell_worker(conn, items):
    try:
        conn.send(("ok", [(i, fn()) for i, fn in items]))
    except BaseException as exc:
        conn.send(("err", exc))
    finally:
        conn.close()


def map_shards(fns: Sequence[Callable[[], Any]], jobs: int = 1) -> List[Any]:
    """Run independent zero-arg cells across forked workers.

    The infinite-lookahead degenerate case of :func:`run_sharded`: no
    cross-shard messages, one window spanning the whole run.  Results
    come back in input order, so a reduce over them is bit-identical to
    the serial in-process loop (each cell is itself the serial engine).
    """
    if jobs <= 1 or len(fns) <= 1:
        return [fn() for fn in fns]
    ctx = multiprocessing.get_context("fork")
    workers = []
    for w in range(min(jobs, len(fns))):
        items = [(i, fns[i]) for i in range(w, len(fns), jobs)]
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_cell_worker, args=(child_conn, items))
        proc.start()
        child_conn.close()
        workers.append((parent_conn, proc))
    results: Dict[int, Any] = {}
    error = None
    for conn, proc in workers:
        try:
            status, value = conn.recv()
        except EOFError as exc:  # worker died before reporting anything
            status, value = "err", exc
        if status == "err":
            error = error or value
        else:
            results.update(dict(value))
        conn.close()
        proc.join()
    if error is not None:
        raise error
    return [results[i] for i in range(len(fns))]


# ----------------------------------------------------------------------
# Stock shard models (benchmarks and tests)
# ----------------------------------------------------------------------


def tick_shard(ctx: ShardContext, events: int = 5000,
               interval: float = 1e-6) -> Callable[[], Any]:
    """A local ticker: ``events`` timeouts, no cross-shard traffic.

    The parallel counterpart of the gated serial benchmark's workload —
    aggregate events-per-second across shards is the scaling metric.
    """
    env = ctx.env

    def ticker():
        for _ in range(events):
            yield env.timeout(interval)
        return env.now

    proc = env.process(ticker())
    return lambda: {"shard": ctx.shard_id, "end": proc.value,
                    "events": events}


def ring_shard(ctx: ShardContext, tokens: int = 2, hops: int = 12,
               latency: float = 5e-6) -> Callable[[], Any]:
    """A message-coupled ring: tokens hop shard-to-shard at fabric
    latency.  Every shard logs (time, src, token, hop) — the log is the
    bit-identity witness for the windowed barrier protocol."""
    env = ctx.env
    log: List[Tuple[float, int, int, int]] = []

    def on_message(src: int, payload) -> None:
        token, hop = payload
        log.append((env.now, src, token, hop))
        if hop < hops:
            ctx.send((ctx.shard_id + 1) % ctx.num_shards,
                     (token, hop + 1), delay=latency)

    ctx.on_message(on_message)
    if ctx.shard_id == 0:
        for token in range(tokens):
            ctx.send(1 % ctx.num_shards, (token, 0),
                     delay=latency * (token + 1))
    return lambda: log
