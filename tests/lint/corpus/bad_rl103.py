# repro-lint-module: repro.sim.fixture
"""RL103 positive: set iteration order leaks into emitted rows."""


def emit_rows(pending: set) -> list:
    return [f"row {name}" for name in pending]


def first_pending(pending: set) -> str:
    return next(iter(pending))
