"""Parallel experiment runner: hashable run specs, a worker pool, a cache.

Every figure, claims scorecard and chaos suite in this repository is a
*sweep*: dozens of completely independent simulations (one per
system × thread-count × ... cell) whose outputs are then reduced into one
table.  The seed code replayed them serially in one process; this module
decomposes them instead:

* :class:`RunSpec` — one cell, named by ``"module:function"`` plus a
  frozen kwargs tuple.  Specs are *content-addressed*: :meth:`RunSpec.digest`
  hashes a canonical JSON encoding, so the same cell always has the same
  identity across processes and runs.
* :class:`SweepRunner` — executes a list of specs, optionally across a
  ``multiprocessing`` pool (processes, not threads: runs are CPU-bound
  pure Python, so threads would serialize on the GIL) and optionally
  memoized through :class:`~repro.harness.cache.ResultCache`.  Results
  always come back **in spec order**, never completion order, so a
  parallel sweep is bit-identical to a serial one.
* :class:`Sweep` — specs plus a reduce step.  The figure entry points in
  :mod:`repro.harness.figures` each build a ``Sweep`` and feed it through
  the process-wide default runner, which :func:`configured` swaps for
  one run (``repro sweep --jobs N`` does, via ``run_scenario``).  The
  scenario builders (``saturation_sweep(spec)`` and friends) build one
  from a validated :class:`~repro.spec.ScenarioSpec`, and
  ``run_scenario`` runs it on its runner.

Cells must be *top-level* functions taking only canonically-encodable
kwargs (JSON scalars, lists/tuples, dicts) and returning picklable values
— that is what makes them shippable to workers and hashable for the
cache.  See ``probe_fio`` and friends in :mod:`repro.harness.figures`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.cache import ResultCache

__all__ = [
    "RunSpec",
    "Sweep",
    "SweepStats",
    "SweepRunner",
    "configured",
    "get_runner",
    "run_sweep",
]


# ----------------------------------------------------------------------
# Run specs
# ----------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-encodable form (or raise).

    Tuples and lists normalize to lists (a spec built with ``threads=(1, 2)``
    and one built with ``threads=[1, 2]`` are the same cell); dict keys are
    sorted by the JSON encoder.  Anything else is rejected so digests can
    never silently depend on ``repr`` formatting or object identity.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in value.items()}
    raise TypeError(
        f"RunSpec kwargs must be JSON-encodable scalars/lists/dicts, "
        f"got {value!r} ({type(value).__name__})"
    )


def _freeze(value: Any) -> Any:
    """Hashable mirror of :func:`_canonical` for storing kwargs in a spec."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class RunSpec:
    """One independent, hashable unit of sweep work.

    ``fn`` is a ``"package.module:function"`` path to a top-level callable;
    ``kwargs`` is a frozen, sorted tuple of ``(name, value)`` pairs.  The
    spec — not the callable — crosses process boundaries, so workers under
    any ``multiprocessing`` start method can re-resolve it by import.
    """

    fn: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""

    @classmethod
    def make(cls, fn: Any, label: str = "", **kwargs) -> "RunSpec":
        """Build a spec from a callable (or ``module:name`` string)."""
        if callable(fn):
            name = getattr(fn, "__qualname__", fn.__name__)
            if "." in name or "<" in name:
                raise TypeError(
                    f"sweep cells must be top-level functions, got {name!r}"
                )
            fn = f"{fn.__module__}:{name}"
        frozen = tuple(sorted((key, _freeze(val)) for key, val in kwargs.items()))
        spec = cls(fn=fn, kwargs=frozen, label=label)
        spec.digest()  # validate encodability eagerly, at build time
        return spec

    def resolve(self) -> Callable:
        module_name, _, fn_name = self.fn.partition(":")
        if not fn_name:
            raise ValueError(f"spec fn {self.fn!r} is not 'module:function'")
        module = importlib.import_module(module_name)
        return getattr(module, fn_name)

    def call_kwargs(self) -> Dict[str, Any]:
        # Frozen values call as-is: lists arrive as tuples and dicts as
        # sorted (key, value) tuples, which every probe accepts.
        return dict(self.kwargs)

    def execute(self) -> Any:
        return self.resolve()(**self.call_kwargs())

    def digest(self) -> str:
        """Content hash: same fn + same kwargs -> same digest, everywhere."""
        payload = json.dumps(
            {"fn": self.fn,
             "kwargs": {key: _canonical(val) for key, val in self.kwargs}},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _execute_spec(spec: RunSpec) -> Any:
    """Top-level pool target (must be importable for pickling)."""
    return spec.execute()


# ----------------------------------------------------------------------
# Sweeps and the runner
# ----------------------------------------------------------------------


@dataclass
class Sweep:
    """A named batch of independent specs plus a reduce step.

    ``reduce`` receives the raw results **in spec order** and assembles
    the figure table; it runs in the parent process and may close over
    whatever context it likes.
    """

    name: str
    specs: List[RunSpec]
    reduce: Callable[[List[Any]], Any] = lambda results: results


@dataclass
class SweepStats:
    """What one :meth:`SweepRunner.map` call actually did."""

    scheduled: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1

    def merged(self, other: "SweepStats") -> "SweepStats":
        return SweepStats(
            scheduled=self.scheduled + other.scheduled,
            cache_hits=self.cache_hits + other.cache_hits,
            executed=self.executed + other.executed,
            jobs=max(self.jobs, other.jobs),
        )

    def summary(self) -> str:
        return (f"{self.scheduled} spec(s): {self.cache_hits} cached, "
                f"{self.executed} executed (jobs={self.jobs})")


def _pool_context():
    """Prefer fork (cheap, inherits the imported simulator); fall back to
    the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SweepRunner:
    """Executes spec lists serially or across a process pool, with memoization.

    ``jobs=1`` runs in-process (and is the reference for bit-identity);
    ``jobs=N`` fans uncached specs across ``N`` worker processes.  With a
    :class:`ResultCache` attached, completed specs are skipped on re-runs
    and fresh results are written back as they arrive.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        #: Aggregated over every ``map``/``run`` call on this runner.
        self.stats = SweepStats(jobs=jobs)

    # ------------------------------------------------------------------

    def map(self, specs: Sequence[RunSpec]) -> List[Any]:
        """All spec results, in spec order (parallel or not, cached or not)."""
        stats = SweepStats(scheduled=len(specs), jobs=self.jobs)
        results: List[Any] = [None] * len(specs)
        pending: List[Tuple[int, RunSpec, str]] = []

        if self.cache is not None:
            for index, spec in enumerate(specs):
                digest = spec.digest()
                hit, value = self.cache.get(digest)
                if hit:
                    results[index] = value
                    stats.cache_hits += 1
                else:
                    pending.append((index, spec, digest))
        else:
            pending = [(i, spec, "") for i, spec in enumerate(specs)]

        stats.executed = len(pending)
        if pending:
            if self.jobs == 1 or len(pending) == 1:
                fresh = [_execute_spec(spec) for _i, spec, _d in pending]
            else:
                workers = min(self.jobs, len(pending))
                with _pool_context().Pool(processes=workers) as pool:
                    fresh = pool.map(
                        _execute_spec, [spec for _i, spec, _d in pending]
                    )
            for (index, _spec, digest), value in zip(pending, fresh):
                results[index] = value
                if self.cache is not None:
                    self.cache.put(digest, value)

        self.stats = self.stats.merged(stats)
        return results

    def run(self, sweep: Sweep) -> Any:
        """Map the sweep's specs, then reduce them to the final artifact."""
        return sweep.reduce(self.map(sweep.specs))


# ----------------------------------------------------------------------
# Process-wide default runner (what the figure entry points use)
# ----------------------------------------------------------------------

_default_runner = SweepRunner(jobs=1, cache=None)


def get_runner() -> SweepRunner:
    """The process-wide runner used by :func:`run_sweep`."""
    return _default_runner


@contextmanager
def configured(jobs: int = 1, cache: Optional[ResultCache] = None):
    """Temporarily swap the default runner (``run_scenario``, tests)."""
    global _default_runner
    previous = _default_runner
    _default_runner = SweepRunner(jobs=jobs, cache=cache)
    try:
        yield _default_runner
    finally:
        _default_runner = previous


def run_sweep(sweep: Sweep) -> Any:
    """Run a sweep on the default runner (serial and uncached unless
    :func:`configured` said otherwise)."""
    return _default_runner.run(sweep)
