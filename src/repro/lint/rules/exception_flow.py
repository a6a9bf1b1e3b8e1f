"""RL7xx — exception-flow rules.

A shard worker that swallows an exception does not fail — it returns a
*wrong table*, and the fold happily merges it.  The event-dispatch
path is just as exposed: a callback that silences errors leaves the
timing wheel consistent but the simulated world half-updated.  These
rules check the per-function exception records of each module summary
(:mod:`repro.lint.program.summary` — handler kinds and ``finally``
jumps are purely syntactic) against the whole-program reachability
cones:

- RL701 — a broad/bare ``except`` inside the fork-pool worker cone or
  the event-dispatch path that neither re-raises nor demonstrably
  records the failure (references the bound exception, formats the
  traceback).  The executor's own crash-retry boundary re-raises into
  a structured failure row and stays silent here by construction.
- RL702 — ``return``/``break``/``continue`` lexically inside a
  ``finally`` block in a deterministic package: the jump silently
  discards any in-flight exception (and with it the scheduler state
  the handler was supposed to restore or report).
"""

from __future__ import annotations

from repro.lint.core import LintContext, register_rule, Rule
from repro.lint.program.analyzer import ProgramContext, ProgramReporter
from repro.lint.program.callgraph import func_id
from repro.lint.rules.determinism import DETERMINISTIC_PACKAGES

__all__ = ["SwallowedWorkerException", "FinallyMasksFlow"]


@register_rule
class SwallowedWorkerException(Rule):
    code = "RL701"
    name = "swallowed-worker-exception"
    summary = "broad except swallows failures in the worker or dispatch cone"
    program = True

    def check(self, ctx: LintContext) -> None:
        return None

    def check_program(self, program: ProgramContext, report: ProgramReporter) -> None:
        for ms, fs in program.index.iter_functions():
            fid = func_id(ms.module, fs.qualname)
            in_worker = fid in program.worker_reachable
            in_dispatch = fid in program.dispatch_reachable
            if not (in_worker or in_dispatch):
                continue
            cone = (
                "the fork-pool worker cone"
                if in_worker
                else "the event-dispatch path"
            )
            consequence = (
                "a crashed shard folds into the tables as silently wrong rows"
                if in_worker
                else "the event loop keeps dispatching over half-updated state"
            )
            for handler in fs.handlers:
                if handler["handled"]:
                    continue
                what = (
                    "a bare `except:`"
                    if handler["what"] == "bare"
                    else f"`except {handler['what']}:`"
                )
                report.add(
                    ms,
                    handler,
                    self.code,
                    f"`{fs.qualname}` is reachable from {cone} and {what} "
                    f"swallows the exception — {consequence}",
                    "catch the narrowest exception that is actually expected, "
                    "or re-raise / record the failure (keep the exception "
                    "object in the structured failure row)",
                )


@register_rule
class FinallyMasksFlow(Rule):
    code = "RL702"
    name = "finally-masks-flow"
    summary = "return/break/continue inside finally discards in-flight exceptions"
    program = True

    def check(self, ctx: LintContext) -> None:
        return None

    def check_program(self, program: ProgramContext, report: ProgramReporter) -> None:
        for ms, fs in program.index.iter_functions():
            if not ms.in_package(DETERMINISTIC_PACKAGES):
                continue
            for jump in fs.finally_jumps:
                report.add(
                    ms,
                    jump,
                    self.code,
                    f"`{fs.qualname}` has `{jump['kind']}` inside a "
                    "`finally` block — it silently replaces any in-flight "
                    "exception, so scheduler/shard failures vanish mid-cleanup",
                    "keep finally blocks straight-line cleanup; move the "
                    f"`{jump['kind']}` after the try statement so exceptions "
                    "keep propagating",
                )
