"""Sharded parallel sweep execution with deterministic merge.

The paper's headline results are sweeps over *independent* testbeds —
one fresh client fleet per refresh stage (§VII), one fresh testbed per
slice of the OS-profile list (§V).  Independent testbeds share no
simulated events, so the sweep parallelises as pure replication: this
package fans the shards out over a reusable ``multiprocessing`` pool
and merges the results in a way that is byte-identical to the serial
run.

Entry points:

- :class:`SweepExecutor` — ``map(fn, specs)``: inline at ``jobs=1``,
  one warm-pool submission per shard otherwise, one retry per failed
  shard, per-shard statistics in ``last_stats``;
- :func:`derive_seed` — the one per-shard seed rule both backends
  apply, so ``jobs=1`` and ``jobs=N`` agree byte-for-byte;
- :func:`make_shards` / :class:`ShardSpec` / :class:`ShardPayload` —
  the picklable job protocol;
- :func:`owned_executor` — the call-site idiom: borrow a caller's warm
  executor or own (and always close) a fresh one.
"""

from repro.parallel.executor import (
    ensure_ok,
    fork_available,
    owned_executor,
    resolve_jobs,
    SweepExecutor,
)
from repro.parallel.shard import derive_seed, make_shards, ShardPayload, ShardSpec

__all__ = [
    "SweepExecutor",
    "ShardPayload",
    "ShardSpec",
    "derive_seed",
    "ensure_ok",
    "fork_available",
    "make_shards",
    "owned_executor",
    "resolve_jobs",
]
