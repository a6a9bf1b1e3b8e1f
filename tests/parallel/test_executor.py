"""The sweep executor: backends, retry, stats, job resolution and
executor ownership.

Worker functions live at module level so the process backend can pickle
them by reference; with the ``fork`` start method the forked workers
inherit this module already imported.
"""

import os

import pytest

from repro.core.metrics import SweepStats
from repro.parallel import (
    derive_seed,
    ensure_ok,
    fork_available,
    make_shards,
    owned_executor,
    resolve_jobs,
    ShardPayload,
    ShardSpec,
    SweepExecutor,
)
from repro.parallel import executor as executor_module


def _double(spec: ShardSpec):
    return spec.payload * 2


def _echo_seed(spec: ShardSpec):
    return spec.seed


def _with_stats(spec: ShardSpec):
    return ShardPayload(spec.payload + 1, events=10, sim_seconds=2.0, queries=3)


def _fail_always(spec: ShardSpec):
    raise RuntimeError(f"shard {spec.index} exploded")


def _fail_first_attempt(spec: ShardSpec):
    # A sentinel file marks the first attempt; the retry finds it and
    # succeeds.  Works identically in-process and across fork.
    marker = spec.payload
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1")
        raise RuntimeError("first attempt crashes")
    return "recovered"


def _die_first_attempt(spec: ShardSpec):
    # Like _fail_first_attempt, but the first attempt kills its worker
    # process outright instead of raising.
    marker = spec.payload
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1")
        os._exit(3)
    return "recovered"


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2024, 5) == derive_seed(2024, 5)

    def test_distinct_across_shards_and_bases(self):
        seeds = {derive_seed(2024, i) for i in range(200)}
        assert len(seeds) == 200
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_range(self):
        for i in range(50):
            seed = derive_seed(0xDEADBEEF, i)
            assert 0 <= seed < 1 << 63

    def test_make_shards_applies_rule(self):
        specs = make_shards(["a", "b", "c"], base_seed=7)
        assert [s.index for s in specs] == [0, 1, 2]
        assert [s.seed for s in specs] == [derive_seed(7, i) for i in range(3)]
        assert [s.payload for s in specs] == ["a", "b", "c"]


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_one(self):
        assert resolve_jobs(None) == 1
        assert SweepExecutor().jobs == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestBackendSelection:
    def test_jobs_one_is_serial(self):
        assert SweepExecutor(jobs=1).backend == "serial"

    def test_jobs_many_is_process(self):
        executor = SweepExecutor(jobs=2)
        assert executor.backend == ("process" if fork_available() else "serial")
        executor.close()

    def test_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(executor_module, "fork_available", lambda: False)
        executor = executor_module.SweepExecutor(jobs=4)
        assert executor.backend == "serial"
        assert executor.map(_double, make_shards([1, 2], base_seed=0)) == [2, 4]
        assert executor._pool is None


@pytest.mark.parametrize("jobs", [1, 3])
class TestRunBothBackends:
    def test_values_in_spec_order(self, jobs):
        specs = make_shards(list(range(10)), base_seed=1)
        with SweepExecutor(jobs=jobs) as executor:
            values = executor.map(_double, specs)
            shards = executor.last_stats.shards
        assert values == [i * 2 for i in range(10)]
        assert [s.index for s in shards] == list(range(10))
        assert all(s.error is None and s.attempts == 1 for s in shards)

    def test_seeds_identical_across_backends(self, jobs):
        # The per-shard seed is carried by the spec, not the backend:
        # any jobs count observes the same derive_seed stream.
        specs = make_shards([None] * 6, base_seed=2024)
        with SweepExecutor(jobs=jobs) as executor:
            seeds = executor.map(_echo_seed, specs)
        assert seeds == [derive_seed(2024, i) for i in range(6)]

    def test_payload_stats_folded(self, jobs):
        specs = make_shards([10, 20, 30], base_seed=0)
        with SweepExecutor(jobs=jobs) as executor:
            values = executor.map(_with_stats, specs)
            stats = executor.last_stats
        assert values == [11, 21, 31]
        assert isinstance(stats, SweepStats)
        assert stats.total_events == 30
        assert stats.total_queries == 9
        assert stats.total_sim_seconds == pytest.approx(6.0)
        assert stats.shard_wall_s > 0
        assert len(stats.shards) == 3

    def test_crash_retried_once_then_fails(self, jobs):
        specs = make_shards(["x"], base_seed=0)
        with SweepExecutor(jobs=jobs) as executor:
            with pytest.raises(RuntimeError, match="unit sweep: 1 of 1 shards failed"):
                executor.map(_fail_always, specs, label="unit sweep")
            (shard,) = executor.last_stats.shards
        assert shard.attempts == 2
        assert "exploded" in shard.error
        with pytest.raises(RuntimeError, match="shard 0 \\(after 2 attempts\\)"):
            ensure_ok([shard], "unit sweep")

    def test_crash_recovered_on_retry(self, jobs, tmp_path):
        markers = [str(tmp_path / f"marker-{jobs}-{i}") for i in range(3)]
        specs = make_shards(markers, base_seed=0)
        with SweepExecutor(jobs=jobs) as executor:
            values = executor.map(_fail_first_attempt, specs)
            shards = executor.last_stats.shards
        assert values == ["recovered"] * 3
        assert all(s.error is None and s.attempts == 2 for s in shards)

    def test_empty_specs(self, jobs):
        with SweepExecutor(jobs=jobs) as executor:
            assert executor.map(_double, []) == []
            assert executor.last_stats.shards == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_shard_row_survives_the_raise(jobs):
    """A shard failing both attempts makes ``map`` raise; its stats row,
    the only record of the failure, is in ``last_stats`` afterwards."""
    specs = [
        ShardSpec(index=0, seed=1, payload=1),
        ShardSpec(index=1, seed=2, payload=None),  # None * 2 raises TypeError
        ShardSpec(index=2, seed=3, payload=3),
    ]
    with SweepExecutor(jobs=jobs) as executor:
        with pytest.raises(RuntimeError, match="1 of 3 shards failed — shard 1"):
            executor.map(_double, specs, label="unit sweep")
        shards = executor.last_stats.shards
    assert [s.index for s in shards] == [0, 1, 2]
    assert [s.attempts for s in shards] == [1, 2, 1]
    assert shards[1].error and "TypeError" in shards[1].error
    assert shards[0].error is None and shards[2].error is None


class TestProcessBackend:
    pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")

    def test_warm_pool_reused_across_runs(self):
        with SweepExecutor(jobs=2) as executor:
            executor.map(_double, make_shards(range(4), base_seed=0))
            pool_first = executor._pool
            executor.map(_double, make_shards(range(4), base_seed=0))
            assert executor._pool is pool_first
            assert pool_first is not None

    def test_unpicklable_payload_is_structured_failure(self):
        specs = [
            ShardSpec(index=0, seed=1, payload=lambda: None),  # lambdas don't pickle
            ShardSpec(index=1, seed=2, payload=3),
        ]
        with SweepExecutor(jobs=2) as executor:
            with pytest.raises(RuntimeError, match="1 of 2 shards failed — shard 0"):
                executor.map(_double, specs)
            shards = executor.last_stats.shards
        assert "dispatch failed" in shards[0].error
        assert shards[1].error is None

    def test_dead_worker_retried_on_a_fresh_pool(self, tmp_path):
        markers = [str(tmp_path / f"marker-{i}") for i in range(2)]
        open(markers[1], "w").close()  # only shard 0 kills its worker
        with SweepExecutor(jobs=2) as executor:
            values = executor.map(_die_first_attempt, make_shards(markers, base_seed=0))
            shards = executor.last_stats.shards
        assert values == ["recovered"] * 2
        # Shard 1 is retried too if the dying worker broke the pool
        # before shard 1 finished; shard 0 always is.
        assert shards[0].attempts == 2


class TestOwnedExecutor:
    def test_no_del_finalizer(self):
        # Shutdown is structural (context managers all the way down),
        # never interpreter-dependent garbage collection.
        assert "__del__" not in SweepExecutor.__dict__

    def test_constructed_executor_is_closed(self):
        with owned_executor(None, jobs=2) as executor:
            executor.map(_double, make_shards([1, 2], base_seed=0))
            assert executor.last_stats is not None
        assert executor._pool is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_borrowed_executor_stays_open(self):
        with SweepExecutor(jobs=2) as outer:
            outer.map(_double, make_shards([1, 2], base_seed=0))
            pool = outer._pool
            with owned_executor(outer, jobs=4) as inner:
                assert inner is outer
            assert outer._pool is pool  # context did not close the warm pool
