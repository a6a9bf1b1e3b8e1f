# repro-lint-module: repro.sweeps.fix402g
"""RL402 negative: the worker is a picklable module-level function."""
from repro.parallel.executor import SweepExecutor
from repro.parallel.shard import ShardPayload, ShardSpec


def double(spec: ShardSpec) -> ShardPayload:
    return ShardPayload(float(spec.seed * 2))


def sweep(specs):
    executor = SweepExecutor(jobs=2)
    return executor.map(double, specs)
