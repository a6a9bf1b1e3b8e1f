"""Per-rule fixture tests: every code has a minimal positive and
negative snippet in ``tests/lint/corpus`` (one pair per shipped rule).

Fixtures are linted through :func:`lint_paths` with ``program=True``
so the whole-program RL4xx/RL5xx/RL7xx rules and the RL001
stale-suppression check all see the same pipeline the CLI runs under
``--program``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_file, lint_paths

CORPUS = Path(__file__).parent / "corpus"
ALL_CODES = sorted(rule.code for rule in all_rules())


def codes_in(path: Path) -> set:
    return {finding.code for finding in lint_paths([path], program=True)}


def test_corpus_covers_every_rule():
    """A bad/good fixture pair exists for every registered code."""
    for code in ALL_CODES:
        stem = code.lower()
        assert (CORPUS / f"bad_{stem}.py").is_file(), f"missing positive fixture for {code}"
        assert (CORPUS / f"good_{stem}.py").is_file(), f"missing negative fixture for {code}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_positive_fixture_triggers(code):
    found = codes_in(CORPUS / f"bad_{code.lower()}.py")
    assert code in found, f"bad_{code.lower()}.py did not trigger {code} (got {found})"


@pytest.mark.parametrize("code", ALL_CODES)
def test_negative_fixture_clean(code):
    found = codes_in(CORPUS / f"good_{code.lower()}.py")
    assert code not in found, f"good_{code.lower()}.py unexpectedly triggered {code}"


def test_rule_codes_follow_families():
    """Codes stay within the documented families: RL0xx meta, RL1xx
    determinism, RL2xx wire, RL3xx hygiene, RL4xx shard-safety, RL5xx
    compile-readiness, RL7xx exception-flow."""
    for code in ALL_CODES:
        assert code.startswith("RL") and len(code) == 5, code
        assert code[2] in "0123457", f"unknown family for {code}"


@pytest.mark.parametrize("name", ["bad_rl104_trace", "bad_rl104_wire", "bad_rl104_seed"])
def test_interprocedural_id_fixtures_caught_at_source(name):
    """An id() value that crosses helpers before reaching a trace, the
    wire or an RNG seed is flagged where it is made; no dataflow needed."""
    findings = lint_paths([CORPUS / f"{name}.py"], program=True)
    assert [(f.code, f.line) for f in findings] == [("RL104", 8)]


def test_interprocedural_fixture_caught_by_syntactic_rules():
    """The source (bare id()) and the trace sink sit in different
    functions, yet the per-file determinism rules alone flag it: no
    whole-program pass is needed."""
    path = CORPUS / "bad_rl104_trace.py"
    syntactic = {
        f.code
        for f in lint_paths([path], select={"RL101", "RL102", "RL103", "RL104", "RL105"})
    }
    assert syntactic == {"RL104"}


def test_id_into_trace_and_wire_flagged_at_source(tmp_path):
    """id() headed for a trace record and for packed wire bytes is
    flagged at each load, whatever the sink."""
    target = tmp_path / "mod.py"
    target.write_text(
        "# repro-lint-module: repro.sim.sinkfix\n"
        "import struct\n"
        "def f(trace, pkt):\n"
        "    trace.record('n', 'p', 'tx', id(pkt))\n"
        "    return struct.pack('!H', id(pkt))\n"
    )
    findings = lint_paths([target])
    assert [(f.code, f.line) for f in findings] == [("RL104", 4), ("RL104", 5)]


def test_findings_report_location_and_hint():
    findings = [
        f for f in lint_file(CORPUS / "bad_rl101.py") if f.code == "RL101"
    ]
    assert findings, "expected an RL101 finding"
    finding = findings[0]
    assert finding.line > 0
    assert "time.time" in finding.message
    assert finding.hint  # fix-it hint is part of the rule contract
    assert str(CORPUS / "bad_rl101.py") in finding.render()
