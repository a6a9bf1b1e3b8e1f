# repro-lint-module: repro.analysis.fix104seed
"""RL104 positive: an RNG is seeded from object identity via a helper
— the "seed" changes with memory layout, bypassing derive_seed."""
import random


def shard_token(spec):
    return id(spec)


def make_rng(spec):
    return random.Random(shard_token(spec))
