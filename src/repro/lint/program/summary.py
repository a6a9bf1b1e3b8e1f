"""Per-module extraction: everything the whole-program analyzer needs.

One :class:`ModuleSummary` is a JSON-serializable digest of one source
file — symbols, imports, call references, and *candidate* findings
(module-state mutations, RNG constructions, attribute writes, …) with
their source locations.  Candidates carry no verdict: whether a
mutation is a shard-safety violation depends on reachability from the
worker entry points, which only the assembled program knows.

Summaries are what the content-hash cache persists: a warm run never
re-parses an unchanged file, it rebuilds the call graph from these
digests alone.  That is the design constraint shaping this module —
every location a program rule might report must be recorded here, at
extraction time, together with the first line of its enclosing
statement (so ``# repro: allow[...]`` pragmas keep working without the
AST).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

__all__ = [
    "SUMMARY_SCHEMA",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "extract_summary",
]

#: Bump when the extraction output changes shape — invalidates cached
#: summaries (the lint-package content hash normally does this
#: automatically; the constant documents the contract).
SUMMARY_SCHEMA = 1

#: Module-level value kinds treated as shared mutable state.
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}

#: Receiver methods that mutate their object in place.
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}

_INIT_METHODS = ("__init__", "__post_init__", "__new__")

_GETATTR_HOOKS = ("__getattr__", "__getattribute__", "__setattr__", "__delattr__")


@dataclass
class FunctionSummary:
    """One function or method (nested functions get their own entry)."""

    qualname: str  # "f", "Cls.f", "f.<locals>.g"
    name: str
    lineno: int
    col: int
    cls: str = ""  # owning class name, "" for module-level functions
    nested: bool = False
    is_public: bool = False
    #: Parameter names lacking an annotation (``self``/``cls`` and
    #: ``*args``/``**kwargs`` exempt) plus ``"return"`` when the return
    #: annotation is missing.  Dunders other than ``__init__`` still count.
    untyped: List[str] = field(default_factory=list)
    #: Raw dotted call targets (``"foo"``, ``"mod.foo"``, ``"self.x.f"``).
    calls: List[str] = field(default_factory=list)
    #: Bare method names of calls whose receiver could not be resolved —
    #: the dynamic-dispatch over-approximation feeds from these.
    attr_calls: List[str] = field(default_factory=list)
    #: Dotted names passed as call arguments (potential callbacks).
    refs: List[str] = field(default_factory=list)
    #: Names of functions defined directly inside this one.
    nested_defs: List[str] = field(default_factory=list)
    #: Candidate shared-state mutations: ``{"name", "kind", "lineno",
    #: "col", "stmt_line"}`` where ``name`` is the raw (possibly dotted)
    #: receiver and ``kind`` one of ``rebind-global``/``subscript``/
    #: ``del``/``method:<m>``/``augassign``.
    mutations: List[Dict[str, Any]] = field(default_factory=list)
    #: ``random.Random`` constructions: ``{"lineno", "col", "stmt_line",
    #: "seeded"}`` — ``seeded`` when the argument expression mentions a
    #: seed or calls ``derive_seed``.
    rng_sites: List[Dict[str, Any]] = field(default_factory=list)
    #: ``SweepExecutor.run/map`` call sites: ``{"arg", "hazard",
    #: "lineno", "col", "stmt_line", "method"}``; ``arg`` is the dotted
    #: name of the worker argument (or "" for a lambda), ``hazard`` a
    #: human reason when the argument cannot cross a pickle boundary.
    executor_calls: List[Dict[str, Any]] = field(default_factory=list)
    #: Lambdas passed into ``ShardSpec``/``make_shards`` payload flows.
    payload_hazards: List[Dict[str, Any]] = field(default_factory=list)
    #: Attribute writes through a parameter: ``{"param", "ann", "attr",
    #: "lineno", "col", "stmt_line"}`` (``ann`` is the raw annotation
    #: source; for ``self`` it is the owning class name).
    attr_writes: List[Dict[str, Any]] = field(default_factory=list)
    #: ``setattr``/``delattr`` with a non-literal attribute name.
    dynamic_setattr: List[Dict[str, Any]] = field(default_factory=list)
    #: Attribute assignments on imported modules / class objects:
    #: ``{"base", "attr", "lineno", "col", "stmt_line"}``.
    monkeypatches: List[Dict[str, Any]] = field(default_factory=list)
    #: Broad ``except`` handlers (bare/``Exception``/``BaseException``):
    #: ``{"what", "handled", "lineno", "col", "stmt_line"}`` — ``handled``
    #: when the handler re-raises, references the bound exception, or
    #: formats the traceback (RL701).
    handlers: List[Dict[str, Any]] = field(default_factory=list)
    #: ``return``/``break``/``continue`` exiting a ``finally`` block:
    #: ``{"kind", "lineno", "col", "stmt_line"}`` (RL702).
    finally_jumps: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    #: Class-level annotations/assignments, ``__slots__`` entries and
    #: ``self.x`` writes in ``__init__``-family methods.
    declared_attrs: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: ``__getattr__``-family hooks: ``{"method", "lineno", "col", "stmt_line"}``.
    getattr_hooks: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ModuleSummary:
    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Local name -> dotted import target (modules and symbols alike).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level assigned names -> value kind ("list"/"dict"/…/"other").
    module_globals: Dict[str, str] = field(default_factory=dict)
    #: lineno -> suppressed codes (mirror of the single-file pragma map).
    pragmas: Dict[int, List[str]] = field(default_factory=dict)

    def in_package(self, prefixes: Sequence[str]) -> bool:
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )

    # -- JSON round-trip (the cache stores summaries as plain dicts) ---------

    def to_json(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "functions": {q: vars(f) for q, f in self.functions.items()},
            "classes": {n: vars(c) for n, c in self.classes.items()},
            "imports": self.imports,
            "module_globals": self.module_globals,
            "pragmas": {str(k): v for k, v in self.pragmas.items()},
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            module=data["module"],
            path=data["path"],
            functions={
                q: FunctionSummary(**f) for q, f in data["functions"].items()
            },
            classes={n: ClassSummary(**c) for n, c in data["classes"].items()},
            imports=dict(data["imports"]),
            module_globals=dict(data["module_globals"]),
            pragmas={int(k): list(v) for k, v in data["pragmas"].items()},
        )


# -- extraction --------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _value_kind(value: Optional[ast.expr]) -> str:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        callee = _dotted(value.func)
        if callee:
            tail = callee.split(".")[-1]
            if tail in _MUTABLE_CONSTRUCTORS:
                return tail if tail in ("list", "dict", "set") else "dict"
    return "other"


def _collect_imports(tree: ast.Module, module: str, is_package: bool) -> Dict[str, str]:
    """Local name -> absolute dotted target, relative imports resolved."""
    package = module if is_package else module.rsplit(".", 1)[0] if "." in module else ""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # ``import a.b`` binds ``a`` but also makes the full
                    # dotted path resolvable; record it under itself so
                    # prefix resolution can find it.
                    imports.setdefault(alias.name, alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return imports


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names bound in ``fn``'s own scope (params, assignments, loops…)."""
    bound: Set[str] = set()
    args = fn.args  # type: ignore[attr-defined]
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    globals_declared: Set[str] = set()

    def note_target(t: ast.expr) -> None:
        if isinstance(t, ast.Name):
            bound.add(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                note_target(e)
        elif isinstance(t, ast.Starred):
            note_target(t.value)

    for node in _walk_own_scope(fn):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                note_target(t)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            note_target(node.target)
        elif isinstance(node, ast.For):
            note_target(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            note_target(node.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            note_target(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.comprehension,)):
            note_target(node.target)
    return bound - globals_declared


def _walk_own_scope(fn: ast.AST) -> List[ast.AST]:
    """Every node in ``fn``'s body without descending into nested defs."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scope gets its own summary
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _annotation_source(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    # Defensive only (unparse is total on 3.9+); the annotation text is
    # cosmetic, so the empty fallback loses nothing worth recording.
    except Exception:  # pragma: no cover  # repro: allow[RL701]
        return ""


def _handler_kind(handler: ast.ExceptHandler) -> Optional[str]:
    """"bare"/"Exception"/"BaseException" for broad handlers, else None."""
    if handler.type is None:
        return "bare"
    candidates = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for candidate in candidates:
        tail = (_dotted(candidate) or "").rsplit(".", 1)[-1]
        if tail in ("Exception", "BaseException"):
            return tail
    return None


def _handler_records_failure(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or demonstrably keeps the error:
    it references the bound exception name, or formats the traceback.
    Swallowing means none of those — the failure becomes silence."""
    for node in _walk_own_scope(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            handler.name
            and isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
        if isinstance(node, ast.Call):
            if (_dotted(node.func) or "").split(".", 1)[0] == "traceback":
                return True
    return False


def _finally_jumps(finalbody: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Jump statements that exit a ``finally`` block, discarding any
    in-flight exception.  ``break``/``continue`` targeting a loop fully
    inside the block are local and exempt."""
    out: List[ast.stmt] = []

    def walk(stmts: Sequence[ast.stmt], loop_depth: int) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Return) or (
                isinstance(stmt, (ast.Break, ast.Continue)) and loop_depth == 0
            ):
                out.append(stmt)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                walk(stmt.body, loop_depth + 1)
                walk(stmt.orelse, loop_depth)
            elif not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                for name in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, name, []), loop_depth)
                for handler in getattr(stmt, "handlers", []):
                    walk(handler.body, loop_depth)

    walk(finalbody, 0)
    return out


def _expr_mentions_seed(node: ast.expr) -> bool:
    text = ast.unparse(node)
    return "seed" in text.lower()


class _Extractor:
    """Walks one module tree, producing its :class:`ModuleSummary`."""

    def __init__(self, module: str, path: str, tree: ast.Module, is_package: bool,
                 pragmas: Dict[int, Set[str]], statement_starts: Dict[int, int]) -> None:
        self.summary = ModuleSummary(
            module=module,
            path=path,
            imports=_collect_imports(tree, module, is_package),
            pragmas={k: sorted(v) for k, v in pragmas.items()},
        )
        self.tree = tree
        self.starts = statement_starts

    def run(self) -> ModuleSummary:
        self._module_level()
        synthetic = FunctionSummary(
            qualname="<module>", name="<module>", lineno=1, col=0
        )
        self._scan_body(self.tree.body, synthetic, bound=set(), top_level=True)
        if (
            synthetic.monkeypatches
            or synthetic.dynamic_setattr
            or synthetic.executor_calls
        ):
            self.summary.functions["<module>"] = synthetic
        return self.summary

    # -- module level --------------------------------------------------------

    def _module_level(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.summary.module_globals[t.id] = _value_kind(node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kind = _value_kind(node.value)
                if kind == "other":
                    ann = _annotation_source(node.annotation).lower()
                    for marker in ("list", "dict", "set"):
                        if marker in ann:
                            kind = marker
                            break
                self.summary.module_globals[node.target.id] = kind
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, qual=node.name, cls=None, nested=False,
                                    enclosing_bound=set())
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)

    def _scan_class(self, node: ast.ClassDef) -> None:
        cs = ClassSummary(
            name=node.name,
            lineno=node.lineno,
            bases=[b for b in (_dotted(base) for base in node.bases) if b],
        )
        declared: Set[str] = set()
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                declared.add(item.target.id)
            elif isinstance(item, ast.Assign):
                for t in item.targets:
                    if isinstance(t, ast.Name):
                        declared.add(t.id)
                        if t.id == "__slots__":
                            declared.update(_slot_names(item.value))
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cs.methods.append(item.name)
                if item.name in _GETATTR_HOOKS:
                    cs.getattr_hooks.append(self._site(item, {"method": item.name}))
                if item.name in _INIT_METHODS:
                    for inner in ast.walk(item):
                        if isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                            targets = (
                                inner.targets
                                if isinstance(inner, ast.Assign)
                                else [inner.target]
                            )
                            for t in targets:
                                if (
                                    isinstance(t, ast.Attribute)
                                    and isinstance(t.value, ast.Name)
                                    and t.value.id == "self"
                                ):
                                    declared.add(t.attr)
        cs.declared_attrs = sorted(declared)
        self.summary.classes[node.name] = cs
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(
                    item,
                    qual=f"{node.name}.{item.name}",
                    cls=node.name,
                    nested=False,
                    enclosing_bound=set(),
                )

    # -- functions -----------------------------------------------------------

    def _scan_function(
        self,
        node: ast.AST,
        qual: str,
        cls: Optional[str],
        nested: bool,
        enclosing_bound: Set[str],
    ) -> None:
        args = node.args  # type: ignore[attr-defined]
        name = node.name  # type: ignore[attr-defined]
        fs = FunctionSummary(
            qualname=qual,
            name=name,
            lineno=node.lineno,  # type: ignore[attr-defined]
            col=node.col_offset,  # type: ignore[attr-defined]
            cls=cls or "",
            nested=nested,
            is_public=(
                not nested
                and not name.startswith("_")
                and (cls is None or not cls.startswith("_"))
            ),
        )
        positional = args.posonlyargs + args.args
        for i, a in enumerate(positional):
            if i == 0 and cls is not None and a.arg in ("self", "cls"):
                continue
            if a.annotation is None:
                fs.untyped.append(a.arg)
        for a in args.kwonlyargs:
            if a.annotation is None:
                fs.untyped.append(a.arg)
        if node.returns is None and name != "__init__":  # type: ignore[attr-defined]
            fs.untyped.append("return")

        bound = _local_bindings(node)
        param_anns: Dict[str, str] = {}
        for a in positional + args.kwonlyargs:
            param_anns[a.arg] = _annotation_source(a.annotation)
        if cls is not None and positional and positional[0].arg in ("self", "cls"):
            param_anns[positional[0].arg] = cls

        globals_declared: Set[str] = set()
        for inner in _walk_own_scope(node):
            if isinstance(inner, (ast.Global, ast.Nonlocal)):
                globals_declared.update(inner.names)
        self._scan_body(
            list(getattr(node, "body", [])),
            fs,
            bound=bound | enclosing_bound,
            param_anns=param_anns,
            globals_declared=globals_declared,
        )
        self._scan_exceptions(node, fs)
        self.summary.functions[qual] = fs
        for inner in _walk_own_scope(node):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fs.nested_defs.append(inner.name)
                self._scan_function(
                    inner,
                    qual=f"{qual}.<locals>.{inner.name}",
                    cls=None,
                    nested=True,
                    enclosing_bound=bound | enclosing_bound,
                )

    def _scan_exceptions(self, node: ast.AST, fs: FunctionSummary) -> None:
        for inner in _walk_own_scope(node):
            if isinstance(inner, ast.ExceptHandler):
                what = _handler_kind(inner)
                if what is not None:
                    handled = _handler_records_failure(inner)
                    fs.handlers.append(self._site(inner, {"what": what, "handled": handled}))
            elif isinstance(inner, ast.Try) or type(inner).__name__ == "TryStar":
                for jump in _finally_jumps(getattr(inner, "finalbody", [])):
                    kind = type(jump).__name__.lower()
                    fs.finally_jumps.append(self._site(jump, {"kind": kind}))

    def _site(self, node: ast.AST, extra: Dict[str, Any]) -> Dict[str, Any]:
        lineno = getattr(node, "lineno", 1)
        out = {
            "lineno": lineno,
            "col": getattr(node, "col_offset", 0),
            "stmt_line": self.starts.get(lineno, lineno),
        }
        out.update(extra)
        return out

    def _scan_body(
        self,
        body: List[ast.stmt],
        fs: FunctionSummary,
        bound: Set[str],
        param_anns: Optional[Dict[str, str]] = None,
        globals_declared: Optional[Set[str]] = None,
        top_level: bool = False,
    ) -> None:
        param_anns = param_anns or {}
        globals_declared = globals_declared or set()
        executor_names = self._executor_locals(body, param_anns)
        fake_scope = ast.Module(body=body, type_ignores=[])
        for node in _walk_own_scope(fake_scope):
            if isinstance(node, ast.Call):
                self._scan_call(node, fs, bound, executor_names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._scan_assign(node, fs, bound, param_anns, globals_declared,
                                  top_level)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if isinstance(t, ast.Subscript):
                        base = _dotted(t.value)
                        if base and base.split(".")[0] not in bound:
                            fs.mutations.append(
                                self._site(node, {"name": base, "kind": "del"})
                            )

    def _executor_locals(
        self, body: List[ast.stmt], param_anns: Dict[str, str]
    ) -> Set[str]:
        """Names in this scope that hold a ``SweepExecutor`` instance."""
        names = {p for p, ann in param_anns.items() if "SweepExecutor" in ann}
        fake_scope = ast.Module(body=body, type_ignores=[])
        for node in _walk_own_scope(fake_scope):
            if isinstance(node, ast.Assign):
                if self._constructs_executor(node.value):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            names.add(t.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if "SweepExecutor" in _annotation_source(node.annotation) or (
                    node.value is not None and self._constructs_executor(node.value)
                ):
                    names.add(node.target.id)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                if self._constructs_executor(node.context_expr) and isinstance(
                    node.optional_vars, ast.Name
                ):
                    names.add(node.optional_vars.id)
        return names

    @staticmethod
    def _constructs_executor(value: ast.expr) -> bool:
        # ``owned_executor(...)`` yields a SweepExecutor (borrowed or
        # constructed), so a ``with ... as ex`` binding counts too.
        for inner in ast.walk(value):
            if isinstance(inner, ast.Call):
                callee = _dotted(inner.func)
                if callee and callee.split(".")[-1] in (
                    "SweepExecutor",
                    "owned_executor",
                ):
                    return True
        return False

    def _scan_call(
        self,
        node: ast.Call,
        fs: FunctionSummary,
        bound: Set[str],
        executor_names: Set[str],
    ) -> None:
        raw = _dotted(node.func)
        if raw:
            fs.calls.append(raw)
        elif isinstance(node.func, ast.Attribute):
            fs.attr_calls.append(node.func.attr)
        # Function references handed over as arguments (callbacks).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = _dotted(arg)
            if ref is not None:
                fs.refs.append(ref)
        tail = raw.split(".")[-1] if raw else ""
        # Mutating method call on a non-local receiver.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            recv = _dotted(node.func.value)
            if recv and recv.split(".")[0] not in bound:
                fs.mutations.append(
                    self._site(node, {"name": recv, "kind": f"method:{node.func.attr}"})
                )
        # random.Random construction (alias-resolved at rule time via imports).
        if tail == "Random":
            seeded = any(
                _expr_mentions_seed(a)
                or (isinstance(a, ast.Call) and (_dotted(a.func) or "").endswith("derive_seed"))
                for a in list(node.args) + [kw.value for kw in node.keywords]
            )
            fs.rng_sites.append(self._site(node, {"seeded": seeded, "callee": raw or ""}))
        # setattr/delattr with a computed attribute name.
        if tail in ("setattr", "delattr") and raw in ("setattr", "delattr"):
            if len(node.args) >= 2 and not (
                isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                fs.dynamic_setattr.append(self._site(node, {"builtin": tail}))
        # SweepExecutor.run/map dispatch sites.
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("run", "map"):
            recv = _dotted(node.func.value)
            recv_is_executor = (
                recv in executor_names
                if recv
                else self._constructs_executor(node.func.value)
            )
            if recv_is_executor and node.args:
                worker = node.args[0]
                entry: Dict[str, Any] = {"method": node.func.attr, "arg": "", "hazard": ""}
                if isinstance(worker, ast.Lambda):
                    entry["hazard"] = "lambda"
                else:
                    dotted = _dotted(worker)
                    if dotted:
                        entry["arg"] = dotted
                    else:
                        entry["hazard"] = "dynamic"
                fs.executor_calls.append(self._site(node, entry))
        # Lambdas flowing into the shard payload protocol.
        if tail in ("ShardSpec", "make_shards"):
            for arg in ast.walk(node):
                if isinstance(arg, ast.Lambda):
                    fs.payload_hazards.append(
                        self._site(arg, {"flow": tail})
                    )
                    break

    def _scan_assign(
        self,
        node: ast.stmt,
        fs: FunctionSummary,
        bound: Set[str],
        param_anns: Dict[str, str],
        globals_declared: Set[str],
        top_level: bool,
    ) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        kind = "augassign" if isinstance(node, ast.AugAssign) else "assign"
        for t in targets:
            if isinstance(t, ast.Name):
                if t.id in globals_declared:
                    fs.mutations.append(
                        self._site(node, {"name": t.id, "kind": "rebind-global"})
                    )
            elif isinstance(t, ast.Subscript):
                base = _dotted(t.value)
                if base and base.split(".")[0] not in bound:
                    fs.mutations.append(
                        self._site(
                            node,
                            {
                                "name": base,
                                "kind": "subscript" if kind == "assign" else "augassign",
                            },
                        )
                    )
            elif isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
                base = t.value.id
                if base in param_anns:
                    fs.attr_writes.append(
                        self._site(
                            node,
                            {"param": base, "ann": param_anns[base], "attr": t.attr},
                        )
                    )
                elif base not in bound or top_level:
                    # Receiver is not a local: an imported module, a
                    # class object, or a module-level singleton.
                    fs.monkeypatches.append(
                        self._site(node, {"base": base, "attr": t.attr})
                    )


def _slot_names(value: ast.expr) -> Set[str]:
    out: Set[str] = set()
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.add(element.value)
    elif isinstance(value, ast.Constant) and isinstance(value.value, str):
        out.add(value.value)
    return out


def extract_summary(
    module: str,
    path: str,
    tree: ast.Module,
    *,
    is_package: bool = False,
    pragmas: Optional[Dict[int, Set[str]]] = None,
    statement_starts: Optional[Dict[int, int]] = None,
) -> ModuleSummary:
    """Digest one parsed module into its cacheable summary."""
    return _Extractor(
        module,
        path,
        tree,
        is_package,
        pragmas or {},
        statement_starts or {},
    ).run()
