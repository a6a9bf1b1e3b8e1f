"""The shard protocol: picklable job descriptions and outcome payloads.

A *shard* is one independent unit of a sweep — one fleet mix of the
§VII adoption trajectory, one slice of the §V device matrix, one
benchmark round.  Shards share no simulated events, which makes the
sweep embarrassingly parallel: the classic PADS observation that
replication-style parallelism needs no rollback machinery at all.

Everything that crosses a process boundary lives here and must stay
picklable: :class:`ShardSpec` travels parent → worker, and the worker
answers with either a bare value or a :class:`ShardPayload` wrapping
the value with engine statistics.  The executor folds both into
:class:`ShardResult` rows, ordered like the input specs.

Seeds follow one rule — :func:`derive_seed` — applied identically by
the serial and process backends, so a sweep's per-shard RNG streams
(and therefore its merged tables) are byte-identical at any ``jobs``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro._compat import slotted_dataclass

__all__ = [
    "derive_seed",
    "make_shards",
    "ShardSpec",
    "ShardPayload",
    "ShardResult",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, the splitmix64 increment


def derive_seed(base_seed: int, shard_index: int) -> int:
    """Derive the engine seed for shard ``shard_index`` of a sweep.

    A single splitmix64 step over ``base_seed + (index+1) * golden``:
    deterministic, order-free (shard 7 gets the same seed whether it
    runs first or last, serially or in a pool), and well-mixed so
    neighbouring shards don't get correlated RNG streams.  The result
    is clamped to a non-negative 63-bit value, comfortably inside
    every consumer's seed range.

    **Collision guarantee (million-shard fleets).**  For a fixed
    ``base_seed``, distinct shard indices produce distinct 64-bit
    values before the final clamp: the pre-mix input
    ``base + (i+1)·golden mod 2^64`` is injective in ``i`` over any
    window of 2^64 indices (the golden-ratio increment is odd, hence a
    unit modulo 2^64), and the splitmix64 finalizer is a bijection on
    64-bit words.  The only collision source left is the final drop to
    63 bits, which can pair at most two distinct 64-bit outputs per
    63-bit value; for a fleet of ``n`` shards the expected number of
    such pairs is ``n·(n-1)/2^64`` — about 1 in 17 million sweeps at
    n = 2^20 shards, and 0 for every base seed our deterministic tests
    sample (see ``tests/parallel/test_seed_property.py``, which proves
    a dense 2^20-index window plus sparse indices up to 2^40 collision
    free).  Engine seeds across shards of one sweep can therefore be
    treated as unique at million-shard scale.
    """
    z = (int(base_seed) + (shard_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


@slotted_dataclass(frozen=True)
class ShardSpec:
    """One picklable job description: what to run and with which seed.

    ``cost`` is a relative size hint (any positive unit — device count,
    profile count, expected wall seconds) the executor's adaptive
    scheduler uses to build size-weighted chunks; 1.0 means "like any
    other shard" and never changes *what* runs, only how shards group
    into pool submissions.
    """

    index: int
    seed: int
    payload: Any = None
    label: str = ""
    cost: float = 1.0


@slotted_dataclass()
class ShardPayload:
    """What a worker returns when it wants its engine stats merged.

    Workers may also return any bare picklable value; wrapping it in a
    payload lets the executor fold per-shard event/query counts into
    :class:`repro.core.metrics.SweepStats` without re-deriving them.
    """

    value: Any
    events: int = 0
    sim_seconds: float = 0.0
    queries: int = 0


@slotted_dataclass()
class ShardResult:
    """The structured per-shard outcome row the executor hands back.

    ``error`` is ``None`` on success; on failure it carries the worker
    traceback (or the timeout/crash description) after the shard's one
    retry was exhausted — the "structured failure row" of the sweep.
    """

    index: int
    seed: int
    value: Any = None
    wall_s: float = 0.0
    events: int = 0
    sim_seconds: float = 0.0
    queries: int = 0
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def make_shards(
    payloads: Iterable[Any],
    base_seed: int,
    costs: Optional[Sequence[float]] = None,
) -> List[ShardSpec]:
    """Wrap payloads into specs, seeding each via :func:`derive_seed`.

    ``costs`` (optional, parallel to ``payloads``) attaches relative
    size hints for the executor's adaptive chunk planner; omitted, every
    shard weighs 1.0.  Costs never affect seeds or results — only how
    shards group into pool submissions.
    """
    specs = []
    for i, payload in enumerate(payloads):
        cost = float(costs[i]) if costs is not None else 1.0
        specs.append(
            ShardSpec(index=i, seed=derive_seed(base_seed, i), payload=payload, cost=cost)
        )
    return specs
