"""Pragma, allowlist and scoping behaviour of the analysis driver."""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_file, module_name_for
from repro.lint.allowlist import allowed_codes_for, ALLOWLIST


def _lint_source(tmp_path: Path, source: str, name: str = "fixture.py") -> set:
    path = tmp_path / name
    path.write_text(source)
    return {finding.code for finding in lint_file(path)}


BANNED_CALL = (
    "# repro-lint-module: repro.sim.fixture\n"
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time(){pragma}\n"
)


def test_inline_pragma_suppresses(tmp_path):
    assert "RL101" in _lint_source(tmp_path, BANNED_CALL.format(pragma=""))
    assert "RL101" not in _lint_source(
        tmp_path, BANNED_CALL.format(pragma="  # repro: allow[RL101]")
    )


def test_pragma_is_code_specific(tmp_path):
    """A pragma for a different code does not suppress the finding."""
    assert "RL101" in _lint_source(
        tmp_path, BANNED_CALL.format(pragma="  # repro: allow[RL301]")
    )


def test_pragma_comma_list(tmp_path):
    assert "RL101" not in _lint_source(
        tmp_path, BANNED_CALL.format(pragma="  # repro: allow[RL301, RL101]")
    )


def test_pragma_on_statement_first_line_covers_multiline(tmp_path):
    source = (
        "# repro-lint-module: repro.sim.fixture\n"
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return (  # repro: allow[RL101]\n"
        "        time.time()\n"
        "    )\n"
    )
    assert "RL101" not in _lint_source(tmp_path, source)


def test_out_of_scope_module_not_flagged(tmp_path):
    """Without a directive the tmp file is not in any repro package, so
    package-scoped rules must not fire."""
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    assert "RL101" not in _lint_source(tmp_path, source)


def test_module_name_derivation():
    assert module_name_for(Path("src/repro/sim/engine.py")) == "repro.sim.engine"
    assert module_name_for(Path("/x/y/src/repro/dns/__init__.py")) == "repro.dns"
    assert module_name_for(Path("tests/lint/test_rules.py")) == "test_rules"


def test_allowlist_matches_anchored_suffix():
    codes = allowed_codes_for(Path("/anywhere/checkout/src/repro/net/arp.py"))
    assert "RL401" in codes
    assert allowed_codes_for(Path("src/repro/sim/engine.py")) == set()


def test_allowlist_entries_documented():
    """Policy: every allowlist entry names codes, not bare globs."""
    for pattern, codes in ALLOWLIST.items():
        assert pattern.startswith("repro/"), pattern
        assert codes, f"empty code tuple for {pattern}"


def test_executor_wall_timing_is_allowlisted_not_rewritten():
    """The real executor keeps perf_counter for shard stats.  Each read
    carries its own inline pragma — there is no whole-file allowlist
    entry — so the tree lints clean without touching the timing."""
    executor = Path(__file__).parents[2] / "src" / "repro" / "parallel" / "executor.py"
    reads = [line for line in executor.read_text().splitlines() if "perf_counter()" in line]
    assert len(reads) == 4
    assert all("# repro: allow[RL101]" in line for line in reads)
    assert not allowed_codes_for(executor)
    assert not [f for f in lint_file(executor) if f.code == "RL101"]
