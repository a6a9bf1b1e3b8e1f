"""RL1xx — determinism rules.

The simulation's headline guarantee is bit-for-bit reproducibility:
identical seeds produce identical packet traces and result tables at
any ``--jobs`` and any ``PYTHONHASHSEED``.  These rules ban the inputs
that historically break that class of guarantee — wall clocks, ambient
entropy, object identity, and hash-order-dependent iteration — from
every package whose output feeds a trace or a table.  They flag the
*source* wherever its value would go, so no dataflow analysis is
needed to follow the value to a sink.
"""

from __future__ import annotations

import ast
from typing import Set, Tuple

from repro.lint.core import LintContext, register_rule, Rule
from repro.lint.rules._util import import_aliases, resolve_call_target

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "BannedTimeSource",
    "BannedEntropySource",
    "UnorderedSetIteration",
    "IdBasedOrdering",
    "HashBasedOrdering",
    "DirectHeapqUse",
]

#: Packages whose behaviour must be a pure function of the seed.  The
#: parallel engine and the analysis/report layer are included: their
#: output *is* the artifact the byte-identical guarantee covers.
DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.net",
    "repro.dns",
    "repro.dhcp",
    "repro.nd",
    "repro.clients",
    "repro.xlat",
    "repro.parallel",
    "repro.core",
    "repro.analysis",
    "repro.services",
    "repro._kernel",
)

_BANNED_TIME = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register_rule
class BannedTimeSource(Rule):
    code = "RL101"
    name = "banned-time-source"
    summary = "wall-clock reads in deterministic simulation code"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target in _BANNED_TIME:
                ctx.add(
                    node,
                    self.code,
                    f"wall-clock read `{target}` in deterministic package "
                    f"`{ctx.module}`",
                    "take time from the simulation clock (EventEngine.now / "
                    "engine.clock()); wall timing belongs in benchmarks or the "
                    "allowlisted executor statistics",
                )


@register_rule
class BannedEntropySource(Rule):
    code = "RL102"
    name = "banned-entropy-source"
    summary = "ambient randomness in deterministic simulation code"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target is None:
                continue
            banned = (
                target == "os.urandom"
                or target.startswith("secrets.")
                or target in ("uuid.uuid1", "uuid.uuid4")
                or target == "random.SystemRandom"
                or (
                    target.startswith("random.")
                    and not target.startswith("random.Random")
                )
            )
            if banned:
                ctx.add(
                    node,
                    self.code,
                    f"ambient entropy `{target}` in deterministic package "
                    f"`{ctx.module}`",
                    "draw from the engine's seeded RNG (engine.rng, a "
                    "random.Random(seed) instance) so every byte is a function "
                    "of the seed",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _set_annotation(annotation: ast.expr) -> bool:
    text = ast.dump(annotation)
    for marker in ("'set'", "'Set'", "'frozenset'", "'FrozenSet'"):
        if marker in text:
            return True
    return False


class _SetTypeTable(ast.NodeVisitor):
    """File-global inference of set-typed names.

    Coarse on purpose: a name assigned a set *anywhere* in the file is
    treated as set-typed everywhere.  The occasional false positive is
    an inline pragma away; a missed trace-ordering leak is a silently
    wrong artifact.
    """

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()

    def _note_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                self._note_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _set_annotation(node.annotation) or (
            node.value is not None and _is_set_expr(node.value)
        ):
            self._note_target(node.target)
        self.generic_visit(node)

    def _note_args(self, node: ast.arguments) -> None:
        for arg in node.posonlyargs + node.args + node.kwonlyargs:
            if arg.annotation is not None and _set_annotation(arg.annotation):
                self.names.add(arg.arg)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._note_args(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._note_args(node.args)
        self.generic_visit(node)


@register_rule
class UnorderedSetIteration(Rule):
    code = "RL103"
    name = "unordered-set-iteration"
    summary = "iteration order of a set leaks into events/traces/tables"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        table = _SetTypeTable()
        table.visit(ctx.tree)

        def is_set_typed(node: ast.expr) -> bool:
            if _is_set_expr(node):
                return True
            if isinstance(node, ast.Name):
                return node.id in table.names
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return node.attr in table.attrs
            return False

        def flag(node: ast.AST, what: str) -> None:
            ctx.add(
                node,
                self.code,
                f"{what} iterates a set — order depends on PYTHONHASHSEED "
                "and insertion history",
                "wrap the iterable in sorted(...) with a deterministic key, "
                "or use a list/dict (insertion-ordered) instead of a set",
            )

        # Generators consumed by an order-insensitive boolean reduction
        # (`any(... for x in s)`, `all(...)`) cannot leak iteration
        # order into output — don't flag those.
        order_insensitive = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("any", "all")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                order_insensitive.add(id(node.args[0]))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and is_set_typed(node.iter):
                flag(node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                if id(node) in order_insensitive:
                    continue
                for gen in node.generators:
                    if is_set_typed(gen.iter):
                        flag(gen.iter, "comprehension")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate", "iter")
                and node.args
                and is_set_typed(node.args[0])
            ):
                flag(node, f"{node.func.id}() over a set")


@register_rule
class IdBasedOrdering(Rule):
    """Any use of the builtin ``id``, not only ``key=id`` sorts.

    An object's identity is its memory address: it differs between
    runs, workers and hash salts.  Wherever the value goes — a sort
    key, a trace tag, a wire field, a seed, a fold — the output stops
    being a function of the seed, and the sink may sit several calls
    away.  Banning the source catches every such path at once (the
    same shape as RL105 for ``hash()``).  A reference counts as much
    as a call: ``key=id`` and ``map(id, ...)`` call it later.
    """

    code = "RL104"
    name = "id-based-ordering"
    summary = "any id() call or reference (object identity is a memory address)"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Name)
                and node.id == "id"
                and isinstance(node.ctx, ast.Load)
            ):
                ctx.add(
                    node,
                    self.code,
                    "id() in deterministic code — memory addresses differ "
                    "between runs and workers",
                    "key, tag or seed on a stable field of the object (name, "
                    "sequence number, wire bytes), never its identity",
                )


#: The modules allowed to touch :mod:`heapq` directly — the timing-wheel
#: kernel owns the ``(time, sequence)`` tie-break contract.  Two names
#: for one implementation: :mod:`repro._kernel.wheel` is the engine
#: itself, :mod:`repro.sim.engine` the facade that re-exports it (the
#: facade no longer imports heapq, but it remains the contract's home).
_SCHEDULER_MODULES = ("repro.sim.engine", "repro._kernel.wheel")


@register_rule
class DirectHeapqUse(Rule):
    code = "RL106"
    name = "direct-heapq-use"
    summary = "heapq used outside the timing-wheel kernel (repro._kernel.wheel)"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        if ctx.module in _SCHEDULER_MODULES:
            return
        hint = (
            "schedule through the event engine (engine.schedule / "
            "schedule_every) — it owns the (time, sequence) tie-break "
            "that keeps traces byte-identical; a side heap invents its "
            "own ordering"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "heapq":
                        ctx.add(
                            node,
                            self.code,
                            f"`import heapq` in `{ctx.module}` — event ordering "
                            f"belongs to `{_SCHEDULER_MODULES[-1]}`",
                            hint,
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and node.module.split(".")[0] == "heapq":
                    ctx.add(
                        node,
                        self.code,
                        f"`from heapq import ...` in `{ctx.module}` — event "
                        f"ordering belongs to `{_SCHEDULER_MODULES[-1]}`",
                        hint,
                    )


@register_rule
class HashBasedOrdering(Rule):
    code = "RL105"
    name = "hash-based-ordering"
    summary = "builtin hash() in deterministic code (str hashes vary per process)"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        # hash() delegation inside __hash__ is the one legitimate use:
        # the *value* never escapes into an ordering decision there.
        hash_methods = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                for inner in ast.walk(node):
                    hash_methods.add(id(inner))
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and id(node) not in hash_methods
            ):
                ctx.add(
                    node,
                    self.code,
                    "builtin hash() outside __hash__ — string hashes are "
                    "salted per process (PYTHONHASHSEED)",
                    "derive ordering/bucketing from explicit bytes (e.g. the "
                    "wire encoding or a stable integer field), or use "
                    "hashlib for content digests",
                )
