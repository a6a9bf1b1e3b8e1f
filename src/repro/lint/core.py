"""The analysis driver: file discovery, pragma handling, rule dispatch.

The linter is a plain ``ast`` walker — no third-party dependencies —
organised around small rule plugins (see :mod:`repro.lint.rules`).
Each rule owns one error code, a scope (the dotted module prefixes it
applies to) and either a per-file ``check(ctx)`` or — for the
interprocedural RL4xx/RL5xx/RL7xx families — a ``check_program(program,
report)`` that runs once over the whole-tree call graph built by
:mod:`repro.lint.program`.  Suppression happens in exactly two places:

- an inline pragma ``# repro: allow[CODE]`` on the flagged line (or on
  the first line of the flagged statement), for one-off exceptions that
  deserve a justification comment right where they live;
- the per-path allowlist table in :mod:`repro.lint.allowlist`, for
  whole-file policy decisions (e.g. the parallel executor may read the
  wall clock for shard statistics).

Both are kept honest by RL001: a pragma or allowlist entry that no
longer suppresses anything is itself a finding.

``lint_paths`` is the one orchestration point: it parses each file at
most once (single-file rules and the program summary extractor share
the AST), consults the content-hash cache from
:mod:`repro.lint.program.cache` when one is given, and — with
``program=True`` — assembles the cached/fresh summaries into the call
graph the interprocedural rules need.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "register_rule",
    "all_rules",
    "module_name_for",
    "lint_file",
    "lint_paths",
    "LintRun",
]

#: Inline suppression pragma — ``allow[...]`` takes one code or a comma list.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s*]+)\]")

#: Optional fixture directive overriding the module scope derived from
#: the file path (a comment line starting ``# repro-lint-module:``
#: within the first few lines).  Lets the test corpus exercise
#: package-scoped rules from ``tests/lint/``.
_MODULE_DIRECTIVE_RE = re.compile(r"^# repro-lint-module:\s*([A-Za-z0-9_.]+)\s*$", re.MULTILINE)
_MODULE_DIRECTIVE_WINDOW = 5  # lines from the top of the file

#: Code of the stale-suppression meta rule (see rules/suppression.py).
STALE_SUPPRESSION_CODE = "RL001"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f"\n    fix: {self.hint}"
        return text

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Finding":
        return cls(
            data["path"], data["line"], data["col"], data["code"],
            data["message"], data.get("hint", ""),
        )


@dataclass
class LintContext:
    """Everything a per-file rule needs to inspect one file."""

    path: Path
    module: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    #: Codes allowlisted for this path (from :mod:`repro.lint.allowlist`).
    allowed_codes: Set[str] = field(default_factory=set)
    #: line number -> codes suppressed by an inline pragma on that line.
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: line -> first line of the statement that contains it (pragmas on a
    #: multi-line statement's first line cover the whole statement).
    statement_starts: Dict[int, int] = field(default_factory=dict)
    #: ``(pragma_line, code)`` pairs that suppressed at least one finding.
    used_pragmas: Set[Tuple[int, str]] = field(default_factory=set)
    #: Allowlist codes that suppressed at least one finding.
    used_allowlist: Set[str] = field(default_factory=set)

    def in_module(self, prefixes: Sequence[str]) -> bool:
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )

    def is_suppressed(self, line: int, code: str) -> bool:
        for probe in (line, self.statement_starts.get(line, line)):
            codes = self.pragmas.get(probe)
            if codes is not None and (code in codes or "*" in codes):
                self.used_pragmas.add((probe, code))
                return True
        if code in self.allowed_codes:
            self.used_allowlist.add(code)
            return True
        return False

    def add(self, node: ast.AST, code: str, message: str, hint: str = "") -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.is_suppressed(line, code):
            return
        self.findings.append(
            Finding(str(self.path), line, col, code, message, hint)
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`scope` (dotted
    module prefixes the rule applies to; empty = every file) and
    implement :meth:`check`.  Interprocedural rules set
    :attr:`program` and implement :meth:`check_program` instead — they
    run once per invocation, over the assembled program, not per file.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Dotted module prefixes this rule fires in; () applies everywhere.
    scope: Tuple[str, ...] = ()
    #: True for whole-program (RL4xx/RL5xx/RL7xx) rules.
    program: bool = False

    def applies_to(self, ctx: LintContext) -> bool:
        return not self.scope or ctx.in_module(self.scope)

    def check(self, ctx: LintContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def check_program(self, program, report) -> None:  # pragma: no cover - interface
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by code."""
    from repro.lint import rules as _rules  # noqa: F401  (triggers registration)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def module_name_for(path: Path) -> str:
    """Dotted module path for ``path``, anchored at the ``repro`` package.

    Files outside a ``repro`` package tree (tests, examples) get their
    bare stem — package-scoped rules then simply don't apply, unless the
    file carries a ``# repro-lint-module:`` directive (see fixtures).
    """
    parts = list(path.parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:]
        if dotted[-1].endswith(".py"):
            dotted[-1] = dotted[-1][:-3]
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return path.stem


def _collect_pragmas(source: str) -> Dict[int, Set[str]]:
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            pragmas.setdefault(lineno, set()).update(codes)
    return pragmas


def _collect_statement_starts(tree: ast.Module) -> Dict[int, int]:
    starts: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            for line in range(node.lineno, end + 1):
                # Innermost statement wins: later (deeper) assignments
                # overwrite only when they start later.
                if line not in starts or node.lineno > starts[line]:
                    starts[line] = node.lineno
    return starts


def _effective_module(path: Path, source: str) -> str:
    module = module_name_for(path)
    header = "\n".join(source.splitlines()[:_MODULE_DIRECTIVE_WINDOW])
    directive = _MODULE_DIRECTIVE_RE.search(header)
    if directive:
        module = directive.group(1)
    return module


def _parse(path: Path, source: str) -> Tuple[Optional[ast.Module], Optional[Finding]]:
    try:
        return ast.parse(source, filename=str(path)), None
    except SyntaxError as exc:
        return None, Finding(
            str(path),
            exc.lineno or 1,
            exc.offset or 0,
            "RL000",
            f"syntax error: {exc.msg}",
        )


def _make_context(path: Path, source: str, tree: ast.Module) -> LintContext:
    from repro.lint.allowlist import allowed_codes_for

    return LintContext(
        path=path,
        module=_effective_module(path, source),
        tree=tree,
        source=source,
        lines=source.splitlines(),
        allowed_codes=allowed_codes_for(path),
        pragmas=_collect_pragmas(source),
        statement_starts=_collect_statement_starts(tree),
    )


def lint_file(
    path: Path,
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run every applicable per-file rule over one file."""
    source = path.read_text(encoding="utf-8")
    tree, error = _parse(path, source)
    if tree is None:
        return [error] if error is not None else []
    ctx = _make_context(path, source, tree)
    for rule in rules if rules is not None else all_rules():
        if rule.program:
            continue
        if select is not None and rule.code not in select:
            continue
        if rule.applies_to(ctx):
            rule.check(ctx)
    ctx.findings.sort(key=lambda f: (f.line, f.col, f.code))
    return ctx.findings


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(
                sorted(
                    p
                    for p in path.rglob("*.py")
                    # _kernel_c is the build-generated staging copy of the
                    # kernel — byte-identical sources already linted at
                    # their canonical repro/_kernel paths.
                    if "__pycache__" not in p.parts and "_kernel_c" not in p.parts
                )
            )
        elif path.suffix == ".py":
            out.append(path)
    return out


@dataclass
class LintRun:
    """Everything one :func:`lint_paths` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    parsed: int = 0


def _run_file_rules(
    ctx: LintContext, rules: Sequence[Rule]
) -> List[Finding]:
    for rule in rules:
        if not rule.program and rule.applies_to(ctx):
            rule.check(ctx)
    ctx.findings.sort(key=lambda f: (f.line, f.col, f.code))
    return ctx.findings


def _stale_suppression_findings(
    pragma_maps: Dict[str, Dict[int, Set[str]]],
    used_pragmas: Dict[str, Set[Tuple[int, str]]],
    used_allowlist: Dict[str, Set[str]],
    checked_codes: Set[str],
    files: Sequence[Path],
    registered_codes: Optional[Set[str]] = None,
) -> List[Finding]:
    """RL001: pragmas and allowlist entries that suppressed nothing.

    A pragma is judged only when every code it names was actually
    checked this run (a ``--select RL101`` run says nothing about an
    ``allow[RL302]`` pragma).  An allowlist entry is judged per glob:
    stale when at least one linted file matched it and none of them
    used any of its codes.  A suppression naming a code that is not in
    the registry at all — a rule that was renamed or deleted — is
    flagged unconditionally: it can never suppress anything again.
    """
    from repro.lint.allowlist import ALLOWLIST, match_paths

    registered = registered_codes if registered_codes is not None else checked_codes
    findings: List[Finding] = []
    for path, pragmas in pragma_maps.items():
        used = used_pragmas.get(path, set())
        for line in sorted(pragmas):
            for code in sorted(pragmas[line]):
                if code == "*":
                    continue
                # Only real rule-code shapes are audited for existence:
                # docs legitimately write placeholder pragmas like
                # ``allow[CODE]`` in prose.
                if re.fullmatch(r"RL\d{3}", code) and code not in registered:
                    findings.append(
                        Finding(
                            path,
                            line,
                            0,
                            STALE_SUPPRESSION_CODE,
                            f"suppression references unknown rule code "
                            f"`{code}` — no registered rule emits it",
                            "the rule was renamed or removed; delete the "
                            "pragma or update the code",
                        )
                    )
                    continue
                if code not in checked_codes:
                    continue
                if (line, code) not in used:
                    findings.append(
                        Finding(
                            path,
                            line,
                            0,
                            STALE_SUPPRESSION_CODE,
                            f"stale suppression: `# repro: allow[{code}]` no "
                            "longer suppresses any finding",
                            "delete the pragma (or the justification comment "
                            "is describing code that moved — re-anchor it)",
                        )
                    )
    linted = [str(p) for p in files]
    for pattern, codes in ALLOWLIST.items():
        matched = match_paths(pattern, linted)
        for code in codes:
            if code not in registered:
                findings.append(
                    Finding(
                        sorted(matched)[0] if matched else pattern,
                        1,
                        0,
                        STALE_SUPPRESSION_CODE,
                        f"allowlist entry `{pattern}` references unknown rule "
                        f"code `{code}` — no registered rule emits it",
                        "the rule was renamed or removed; drop the code from "
                        "repro/lint/allowlist.py",
                    )
                )
                continue
            if not matched:
                continue
            if code not in checked_codes:
                continue
            if not any(code in used_allowlist.get(path, set()) for path in matched):
                findings.append(
                    Finding(
                        sorted(matched)[0],
                        1,
                        0,
                        STALE_SUPPRESSION_CODE,
                        f"stale allowlist entry: `{pattern}` permits {code} "
                        "but no finding in any matched file needed it",
                        "drop the code from repro/lint/allowlist.py so the "
                        "exception table stays honest",
                    )
                )
    return findings


def lint_paths(
    paths: Iterable[Path],
    select: Optional[Set[str]] = None,
    *,
    program: bool = False,
    cache=None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; deterministic order.

    ``program=True`` additionally runs the whole-program RL4xx/RL5xx/
    RL7xx rules over the assembled call graph.  ``cache`` is an
    optional :class:`repro.lint.program.cache.LintCache`; unchanged
    files are neither re-parsed nor re-checked.
    """
    return lint_paths_run(paths, select, program=program, cache=cache).findings


def lint_paths_run(
    paths: Iterable[Path],
    select: Optional[Set[str]] = None,
    *,
    program: bool = False,
    cache=None,
) -> LintRun:
    """Like :func:`lint_paths` but returns the full :class:`LintRun`."""
    from repro.lint.program.cache import content_hash
    from repro.lint.program.summary import extract_summary

    rules = all_rules()
    if select is not None and not program:
        # A selected interprocedural rule silently implies --program.
        program = any(r.program for r in rules if r.code in select)
    file_rules = [r for r in rules if not r.program]
    program_rules = [r for r in rules if r.program]

    run = LintRun()
    files = iter_python_files(paths)
    run.files = len(files)

    findings: List[Finding] = []
    summaries: Dict[str, Any] = {}
    pragma_maps: Dict[str, Dict[int, Set[str]]] = {}
    used_pragmas: Dict[str, Set[Tuple[int, str]]] = {}
    used_allowlist: Dict[str, Set[str]] = {}

    for path in files:
        data = path.read_bytes()
        file_hash = content_hash(data) if cache is not None else ""
        entry = cache.get(path, file_hash) if cache is not None else None
        if entry is not None and (not program or entry.get("summary") is not None):
            findings.extend(Finding.from_json(f) for f in entry["findings"])
            pragma_maps[str(path)] = {
                int(k): set(v) for k, v in entry["pragmas"].items()
            }
            used_pragmas[str(path)] = {
                (int(line), code) for line, code in entry["used_pragmas"]
            }
            used_allowlist[str(path)] = set(entry["used_allowlist"])
            if program and entry.get("summary") is not None:
                from repro.lint.program.summary import ModuleSummary

                summary = ModuleSummary.from_json(entry["summary"])
                summaries[summary.module] = summary
            continue

        source = data.decode("utf-8")
        tree, error = _parse(path, source)
        run.parsed += 1
        if tree is None:
            if error is not None:
                findings.append(error)
            pragma_maps[str(path)] = {}
            continue
        ctx = _make_context(path, source, tree)
        file_findings = _run_file_rules(ctx, file_rules)
        findings.extend(file_findings)
        pragma_maps[str(path)] = ctx.pragmas
        used_pragmas[str(path)] = set(ctx.used_pragmas)
        used_allowlist[str(path)] = set(ctx.used_allowlist)
        summary = None
        if program or cache is not None:
            summary = extract_summary(
                ctx.module,
                str(path),
                tree,
                is_package=path.name == "__init__.py",
                pragmas=ctx.pragmas,
                statement_starts=ctx.statement_starts,
            )
            if program:
                summaries[summary.module] = summary
        if cache is not None:
            cache.put(
                path,
                file_hash,
                {
                    "findings": [f.to_json() for f in file_findings],
                    "pragmas": {str(k): sorted(v) for k, v in ctx.pragmas.items()},
                    "used_pragmas": sorted(
                        [line, code] for line, code in ctx.used_pragmas
                    ),
                    "used_allowlist": sorted(ctx.used_allowlist),
                    "summary": summary.to_json() if summary is not None else None,
                },
            )

    checked_codes = {r.code for r in file_rules}
    if program and summaries:
        from repro.lint.allowlist import allowed_codes_for
        from repro.lint.program.analyzer import build_program, ProgramReporter

        context = build_program(summaries)
        reporter = ProgramReporter(allowed_codes_for)
        for rule in program_rules:
            rule.check_program(context, reporter)
        findings.extend(reporter.findings)  # type: ignore[arg-type]
        for path_str, used in reporter.used_pragmas.items():
            used_pragmas.setdefault(path_str, set()).update(used)
        for path_str, used_codes in reporter.used_allowlist.items():
            used_allowlist.setdefault(path_str, set()).update(used_codes)
        checked_codes.update(r.code for r in program_rules)

    if select is None or STALE_SUPPRESSION_CODE in select:
        findings.extend(
            _stale_suppression_findings(
                pragma_maps,
                used_pragmas,
                used_allowlist,
                checked_codes,
                files,
                registered_codes={r.code for r in rules},
            )
        )

    if select is not None:
        findings = [f for f in findings if f.code in select or f.code == "RL000"]

    if cache is not None:
        run.cache_hits = cache.hits
        run.cache_misses = cache.misses
        cache.save()

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    run.findings = findings
    return run
