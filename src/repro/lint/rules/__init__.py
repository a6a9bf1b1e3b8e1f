"""Rule plugins.

Importing this package registers every rule with the core registry.
Modules are imported in sorted order so registration — and therefore
``--list-rules`` output — is deterministic (the linter holds itself to
its own RL103 standard).
"""

from __future__ import annotations

from repro.lint.rules import (
    compile_ready,
    determinism,
    exception_flow,
    hygiene,
    shard_safety,
    suppression,
    wire,
)

__all__ = [
    "compile_ready",
    "determinism",
    "exception_flow",
    "hygiene",
    "shard_safety",
    "suppression",
    "wire",
]
