"""The sweep executor: backends, retry, timeout, stats, job resolution,
chunk planning and executor ownership.

Worker functions live at module level so the process backend can pickle
them by reference; with the ``fork`` start method the forked workers
inherit this module already imported.
"""

import os
import time

import pytest

from repro.core.metrics import SweepStats
from repro.parallel import (
    derive_seed,
    ensure_ok,
    fork_available,
    JOBS_ENV_VAR,
    make_shards,
    owned_executor,
    plan_chunks,
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


def _sleep_long(spec: ShardSpec):
    # Long enough to trip any sane test timeout, short enough that the
    # orphaned worker exits promptly after the pool is recycled.
    time.sleep(5.0)
    return "never"


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
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_invalid_env_is_one(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "lots")
        assert resolve_jobs(None) == 1

    def test_invalid_env_warns_on_stderr(self, monkeypatch, capsys):
        # A typo'd REPRO_JOBS silently running serial would be
        # indistinguishable from a slow machine — it must say so once.
        monkeypatch.setenv(JOBS_ENV_VAR, "four")
        assert resolve_jobs(None) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ignoring invalid REPRO_JOBS='four'" in captured.err

    def test_valid_env_is_silent(self, monkeypatch, capsys):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        assert resolve_jobs(None) == 2
        assert capsys.readouterr().err == ""

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestBackendSelection:
    def test_jobs_one_is_serial(self):
        assert SweepExecutor(jobs=1).backend == "serial"
        assert SweepExecutor(jobs=1, backend="process").backend == "serial"

    def test_jobs_many_is_process(self):
        executor = SweepExecutor(jobs=2)
        assert executor.backend == ("process" if fork_available() else "serial")
        executor.close()

    def test_fallback_without_fork(self, monkeypatch):
        monkeypatch.setattr(executor_module, "fork_available", lambda: False)
        assert executor_module.SweepExecutor(jobs=4, backend="process").backend == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=2, backend="threads")


@pytest.mark.parametrize("jobs", [1, 3])
class TestRunBothBackends:
    def test_values_in_spec_order(self, jobs):
        specs = make_shards(list(range(10)), base_seed=1)
        with SweepExecutor(jobs=jobs) as executor:
            results = executor.run(_double, specs)
        assert [r.index for r in results] == list(range(10))
        assert [r.value for r in results] == [i * 2 for i in range(10)]
        assert all(r.ok and r.attempts == 1 for r in results)

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
            results = executor.run(_with_stats, specs)
            stats = executor.last_stats
        assert [r.value for r in results] == [11, 21, 31]
        assert isinstance(stats, SweepStats)
        assert stats.total_events == 30
        assert stats.total_queries == 9
        assert stats.total_sim_seconds == pytest.approx(6.0)
        assert stats.shard_wall_s > 0
        assert len(stats.shards) == 3

    def test_crash_retried_once_then_fails(self, jobs):
        specs = make_shards(["x"], base_seed=0)
        with SweepExecutor(jobs=jobs) as executor:
            results = executor.run(_fail_always, specs)
        (result,) = results
        assert not result.ok
        assert result.attempts == 2
        assert "exploded" in result.error
        with pytest.raises(RuntimeError, match="1 of 1 shards failed"):
            ensure_ok(results, "unit sweep")

    def test_crash_recovered_on_retry(self, jobs, tmp_path):
        markers = [str(tmp_path / f"marker-{jobs}-{i}") for i in range(3)]
        specs = make_shards(markers, base_seed=0)
        # chunk_size=1 so each shard's first attempt runs exactly once
        # before its retry (a chunked rerun would double-run neighbours).
        with SweepExecutor(jobs=jobs, chunk_size=1) as executor:
            results = executor.run(_fail_first_attempt, specs)
        assert [r.value for r in results] == ["recovered"] * 3
        assert all(r.ok and r.attempts == 2 for r in results)

    def test_empty_specs(self, jobs):
        with SweepExecutor(jobs=jobs) as executor:
            assert executor.run(_double, []) == []
            assert executor.last_stats.shards == []


class TestProcessBackend:
    pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")

    def test_warm_pool_reused_across_runs(self):
        with SweepExecutor(jobs=2) as executor:
            executor.run(_double, make_shards(range(4), base_seed=0))
            pool_first = executor._pool
            executor.run(_double, make_shards(range(4), base_seed=0))
            assert executor._pool is pool_first
            assert pool_first is not None

    def test_timeout_is_structured_failure(self):
        # Two shards because a single spec short-circuits to the serial
        # path (which cannot preempt); chunk_size=1 keeps each sleeper
        # in its own chunk.
        specs = make_shards(["sleep", "sleep"], base_seed=0)
        with SweepExecutor(jobs=2, timeout=0.3, chunk_size=1) as executor:
            results = executor.run(_sleep_long, specs)
        assert all(not r.ok for r in results)
        assert any("timed out" in r.error for r in results)

    def test_unpicklable_payload_is_structured_failure(self):
        specs = [
            ShardSpec(index=0, seed=1, payload=lambda: None),  # lambdas don't pickle
            ShardSpec(index=1, seed=2, payload=3),
        ]
        with SweepExecutor(jobs=2, chunk_size=1) as executor:
            results = executor.run(_double, specs)
        assert not results[0].ok
        assert results[1].ok and results[1].value == 6

    def test_stats_speedup_and_table(self):
        specs = make_shards(range(6), base_seed=0)
        with SweepExecutor(jobs=2) as executor:
            executor.run(_with_stats, specs)
            stats = executor.last_stats
        assert stats.jobs == 2
        assert stats.backend == "process"
        assert stats.speedup >= 0
        table = stats.table()
        assert "jobs=2" in table
        assert "failures=0" in table


class TestSweepStatsTable:
    def test_failure_rows_marked(self):
        specs = make_shards(["x", "y"], base_seed=0)
        with SweepExecutor(jobs=1) as executor:
            executor.run(_fail_always, specs)
            stats = executor.last_stats
        assert len(stats.failures) == 2
        table = stats.table()
        assert "FAILED" in table
        assert "failures=2" in table


class TestPlanChunks:
    def _specs(self, costs):
        return make_shards(list(range(len(costs))), base_seed=0, costs=costs)

    def test_explicit_chunk_size_is_fixed_slicing(self):
        specs = self._specs([1.0] * 7)
        plan = plan_chunks(specs, jobs=4, chunk_size=3)
        assert [len(c) for c in plan] == [3, 3, 1]

    def test_covers_all_specs_in_order(self):
        specs = self._specs([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        plan = plan_chunks(specs, jobs=2)
        flat = [spec for chunk in plan for spec in chunk]
        assert [s.index for s in flat] == [s.index for s in specs]

    def test_deterministic_for_same_inputs(self):
        costs = [float((i * 37) % 11 + 1) for i in range(40)]
        a = plan_chunks(self._specs(costs), jobs=4)
        b = plan_chunks(self._specs(costs), jobs=4)
        assert [[s.index for s in c] for c in a] == [[s.index for s in c] for c in b]

    def test_cost_weighting_shrinks_toward_the_tail(self):
        """Uniform costs: early chunks are large (amortized dispatch),
        the tail splits into single-spec chunks for redistribution."""
        plan = plan_chunks(self._specs([1.0] * 64), jobs=4)
        assert len(plan[0]) > 1
        assert len(plan[-1]) == 1
        assert len(plan) > 4  # more chunks than workers: work can rebalance

    def test_heavy_spec_closes_its_chunk(self):
        """A spec whose cost exceeds the chunk target ends the chunk:
        cheap specs after it can never be serialized behind it."""
        plan = plan_chunks(self._specs([1.0, 1.0, 100.0, 1.0, 1.0]), jobs=2)
        (heavy,) = [c for c in plan if any(s.index == 2 for s in c)]
        assert heavy[-1].index == 2


class TestOwnedExecutor:
    def test_no_del_finalizer(self):
        # Shutdown is structural (context managers all the way down),
        # never interpreter-dependent garbage collection.
        assert "__del__" not in SweepExecutor.__dict__

    def test_constructed_executor_is_closed(self):
        with owned_executor(None, jobs=2) as executor:
            executor.run(_double, make_shards([1, 2], base_seed=0))
            assert executor.last_stats is not None
        assert executor._pool is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_borrowed_executor_stays_open(self):
        with SweepExecutor(jobs=2) as outer:
            outer.run(_double, make_shards([1, 2], base_seed=0))
            pool = outer._pool
            with owned_executor(outer, jobs=4) as inner:
                assert inner is outer
            assert outer._pool is pool  # context did not close the warm pool
