# repro-lint-module: repro.sweeps.fix401g
"""RL401 negative: per-shard state rides in the ShardPayload."""
from repro.parallel.executor import SweepExecutor
from repro.parallel.shard import ShardPayload, ShardSpec


def measure(spec: ShardSpec) -> ShardPayload:
    local = {}
    local[spec.index] = spec.seed
    return ShardPayload(float(sum(local.values())))


def sweep(specs):
    executor = SweepExecutor(jobs=2)
    return executor.map(measure, specs)
