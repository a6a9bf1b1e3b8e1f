"""The sweep executor: one ``map`` over independent shards.

:class:`SweepExecutor` runs a worker over
:class:`~repro.parallel.shard.ShardSpec` jobs — inline at ``jobs=1`` (a
plain loop: no pool, no pickling), otherwise one submission per shard
to a warm ``fork`` process pool that sweep points share across
``map()`` calls, so workers fork once.  Platforms without ``fork``
fall back to the inline loop.  A shard that raised or whose worker
died is retried once, and values come back in spec order: a parallel
sweep is indistinguishable from a serial one — except for the wall
clock.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
# The executor reads the host wall clock for per-shard statistics
# (ShardStats.wall_s, SweepStats.wall_s) and nowhere else.  Wall time
# never feeds simulation state or result tables — the determinism smoke
# in CI diffs serial vs parallel output precisely to prove that — so
# each read carries an inline RL101 pragma and any other read is flagged.
import time
import traceback
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.metrics import ShardStats, SweepStats
from repro.parallel.shard import ShardPayload, ShardSpec

__all__ = ["SweepExecutor", "owned_executor", "resolve_jobs", "fork_available", "ensure_ok"]

#: (value, wall_s, error) — the raw entry one attempt at a shard produces.
_Entry = Tuple[Any, float, Optional[str]]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: ``None`` → 1; ≤0 → all cores."""
    jobs = 1 if jobs is None else int(jobs)
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def fork_available() -> bool:
    """Whether the platform offers the ``fork`` start method (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _run_shard(fn: Callable[[ShardSpec], Any], spec: ShardSpec) -> _Entry:
    """Run one shard, timing it and trapping exceptions into the entry.

    Executes inside the worker process (or inline on the serial path);
    catching here means an ordinary worker exception comes back as data
    instead of poisoning the pool.
    """
    start = time.perf_counter()  # repro: allow[RL101]
    try:
        value: Any = fn(spec)
        error: Optional[str] = None
    except Exception:
        value = None
        error = traceback.format_exc(limit=16)
    return value, time.perf_counter() - start, error  # repro: allow[RL101]


def ensure_ok(shards: Sequence[ShardStats], label: str) -> None:
    """Raise with every failed shard's last error line, if any failed."""
    failed = [s for s in shards if s.error is not None]
    if not failed:
        return
    details = "; ".join(
        f"shard {s.index} (after {s.attempts} attempt{'s' if s.attempts > 1 else ''}): "
        f"{s.error.strip().splitlines()[-1]}"
        for s in failed
    )
    raise RuntimeError(f"{label}: {len(failed)} of {len(shards)} shards failed — {details}")


class SweepExecutor:
    """Execute independent shards serially or across a warm process pool."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        # jobs=1 must stay a zero-overhead loop, and a fork-less
        # platform (e.g. Windows spawn-only) degrades gracefully.
        self.backend = "process" if self.jobs > 1 and fork_available() else "serial"
        self.last_stats: Optional[SweepStats] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=multiprocessing.get_context("fork")
            )
        return self._pool

    def _recycle_pool(self) -> None:
        """Drop a broken pool; the next use forks afresh."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def map(
        self, fn: Callable[[ShardSpec], Any], specs: Iterable[ShardSpec], label: str = "sweep"
    ) -> List[Any]:
        """Run every shard; return the values in spec order.

        A worker may return a :class:`ShardPayload`; its counts go to
        :attr:`last_stats` (one :class:`ShardStats` row per spec), which
        is set before any shard that failed its retry is raised on.
        """
        spec_list = list(specs)
        start = time.perf_counter()  # repro: allow[RL101]
        inline = self.backend == "serial" or len(spec_list) <= 1
        attempt = self._run_inline if inline else self._run_pooled
        entries = attempt(fn, spec_list)
        failed = [i for i, (_value, _wall, error) in enumerate(entries) if error is not None]
        retried = dict(zip(failed, attempt(fn, [spec_list[i] for i in failed])))
        wall = time.perf_counter() - start  # repro: allow[RL101]

        values: List[Any] = []
        shards: List[ShardStats] = []
        for i, spec in enumerate(spec_list):
            value, wall_s, error = entries[i]
            if i in retried:
                value, retry_wall, error = retried[i]
                wall_s += retry_wall
            payload = value if isinstance(value, ShardPayload) else ShardPayload(value)
            values.append(payload.value)
            shards.append(
                ShardStats(
                    index=spec.index,
                    seed=spec.seed,
                    wall_s=wall_s,
                    events=payload.events,
                    sim_seconds=payload.sim_seconds,
                    queries=payload.queries,
                    attempts=2 if i in retried else 1,
                    error=error,
                )
            )
        self.last_stats = SweepStats(
            jobs=self.jobs, backend="serial" if inline else "process", wall_s=wall, shards=shards
        )
        ensure_ok(shards, label)
        return values

    # -- backends ------------------------------------------------------------

    @staticmethod
    def _run_inline(fn: Callable[[ShardSpec], Any], specs: Sequence[ShardSpec]) -> List[_Entry]:
        return [_run_shard(fn, spec) for spec in specs]

    def _run_pooled(
        self, fn: Callable[[ShardSpec], Any], specs: Sequence[ShardSpec]
    ) -> List[_Entry]:
        pool = self._ensure_pool()
        futures = [pool.submit(_run_shard, fn, spec) for spec in specs]
        return [self._collect(future) for future in futures]

    def _collect(self, future: Future) -> _Entry:
        try:
            return future.result()
        except (BrokenProcessPool, CancelledError) as exc:
            # A worker died, or recycling the broken pool cancelled this
            # future; either way the shard gets its retry on a fresh pool.
            self._recycle_pool()
            return None, 0.0, f"worker died: {exc!r}"
        except Exception as exc:  # e.g. an unpicklable payload
            return None, 0.0, f"dispatch failed: {exc!r}"


@contextlib.contextmanager
def owned_executor(
    executor: Optional[SweepExecutor], jobs: Optional[int] = None
) -> Iterator[SweepExecutor]:
    """Yield a caller-provided executor as-is, or own a fresh one.

    The one idiom every ``repro.analysis`` sweep uses: a caller-supplied
    executor stays the caller's to close (warm pools survive across
    sweep points), while an executor this context constructed is always
    closed on exit — fork pools never outlive the sweep that created
    them, without any ``__del__`` finalizer.
    """
    if executor is not None:
        yield executor
        return
    own = SweepExecutor(jobs)
    try:
        yield own
    finally:
        own.close()
