# repro-lint-module: repro.sweeps.fix401
"""RL401 positive: a shard worker mutates a module-level dict."""
from repro.parallel.executor import SweepExecutor
from repro.parallel.shard import ShardPayload, ShardSpec

_RESULTS = {}


def measure(spec: ShardSpec) -> ShardPayload:
    # The race: each forked worker writes a private copy the parent
    # never sees; thread/serial backends interleave writes instead.
    _RESULTS[spec.index] = spec.seed
    return ShardPayload(float(spec.seed))


def sweep(specs):
    executor = SweepExecutor(jobs=2)
    return executor.map(measure, specs)
