"""Whole-program analysis: symbol tables, call graph, incremental cache.

This package turns per-file lint into interprocedural analysis.  Each
source file is digested into a :class:`~repro.lint.program.summary.
ModuleSummary` (cached by content hash); summaries assemble into a
:class:`~repro.lint.program.callgraph.ProgramIndex` and
:class:`~repro.lint.program.callgraph.CallGraph`; the
:class:`~repro.lint.program.analyzer.ProgramContext` on top knows which
functions are reachable from shard-worker entry points and from the
timing-wheel dispatch loop.  The RL4xx/RL5xx/RL7xx rule families
consume that context (see :mod:`repro.lint.rules.shard_safety`,
:mod:`repro.lint.rules.compile_ready` and
:mod:`repro.lint.rules.exception_flow`).
"""

from __future__ import annotations

from repro.lint.program.analyzer import build_program, ProgramContext, ProgramReporter
from repro.lint.program.cache import analyzer_signature, content_hash, LintCache
from repro.lint.program.callgraph import CallGraph, func_id, ProgramIndex
from repro.lint.program.summary import extract_summary, ModuleSummary

__all__ = [
    "build_program",
    "ProgramContext",
    "ProgramReporter",
    "LintCache",
    "analyzer_signature",
    "content_hash",
    "CallGraph",
    "ProgramIndex",
    "func_id",
    "extract_summary",
    "ModuleSummary",
]
