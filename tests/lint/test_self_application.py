"""The linter applied to its own repository: the committed tree must be
clean (whole-program rules included), and the CLI must fail loudly on
the deliberately-broken corpus.

The whole-tree checks share one analyzed tree: a single cold
``--program`` CLI run fills a cache that the warm CLI rerun and the
in-process run then read back.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro.lint import all_rules, lint_paths
from repro.lint.program.cache import LintCache

REPO_ROOT = Path(__file__).parents[2]
CORPUS = Path(__file__).parent / "corpus"


def _run_cli(*args: str, cache: Optional[Path] = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Tests must not leave a cache file in the checkout.
    cache_args = ["--cache", str(cache)] if cache is not None else ["--no-cache"]
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *cache_args, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def analyzed_tree(tmp_path_factory):
    """One cold whole-program CLI run over ``src``: (cache path, result)."""
    cache = tmp_path_factory.mktemp("lint") / "cache.json"
    return cache, _run_cli("src", "--program", cache=cache)


def test_src_tree_lints_clean_via_cli(analyzed_tree):
    _cache, cold = analyzed_tree
    assert cold.returncode == 0, f"tree not clean:\n{cold.stdout}"
    assert "repro.lint: clean" in cold.stdout


def test_cli_cache_round_trip(analyzed_tree):
    """The warm CLI rerun over src parses nothing and stays clean."""
    cache, _cold = analyzed_tree
    warm = _run_cli("src", "--program", cache=cache)
    assert warm.returncode == 0, warm.stdout
    assert ", 0 parsed" in warm.stdout


def test_src_tree_lints_clean_in_process(analyzed_tree, monkeypatch):
    cache, _cold = analyzed_tree
    # The cache is keyed by the CLI's relative paths.
    monkeypatch.chdir(REPO_ROOT)
    assert lint_paths([Path("src")], program=True, cache=LintCache(cache)) == []


def test_broken_corpus_fails_with_every_code():
    bad_files = sorted(str(p) for p in CORPUS.glob("bad_*.py"))
    result = _run_cli("--program", *bad_files)
    assert result.returncode == 1
    for rule in all_rules():
        assert rule.code in result.stdout, f"{rule.code} missing from CLI output"


def test_cli_select_filters_codes():
    result = _run_cli("--select", "RL301", str(CORPUS / "bad_rl301.py"))
    assert result.returncode == 1
    assert "RL301" in result.stdout
    result = _run_cli("--select", "RL101", str(CORPUS / "bad_rl301.py"))
    assert result.returncode == 0


def test_cli_select_program_rule_implies_program():
    """Selecting an RL4xx code runs the whole-program analysis."""
    result = _run_cli("--select", "RL402", str(CORPUS / "bad_rl402.py"))
    assert result.returncode == 1
    assert "RL402" in result.stdout


def test_cli_list_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for rule in all_rules():
        assert rule.code in result.stdout
    # Grouped by family, in order.
    for header in ("RL1xx", "RL4xx", "RL7xx"):
        assert header in result.stdout
    assert "RL6xx" not in result.stdout
    assert result.stdout.index("RL4xx") < result.stdout.index("RL7xx")


def test_cli_list_rules_json():
    import json as _json

    result = _run_cli("--list-rules", "--format", "json")
    assert result.returncode == 0
    inventory = _json.loads(result.stdout)
    codes = [entry["code"] for entry in inventory["rules"]]
    assert codes == sorted(rule.code for rule in all_rules())
    by_code = {entry["code"]: entry for entry in inventory["rules"]}
    assert by_code["RL401"]["kind"] == "program"
    assert by_code["RL701"]["kind"] == "program"
    assert by_code["RL702"]["kind"] == "program"
    assert by_code["RL101"]["kind"] == "file"
    assert by_code["RL701"]["family"].startswith("RL7xx")


def test_cli_missing_path_is_usage_error():
    result = _run_cli("does/not/exist.py")
    assert result.returncode == 2


def test_cli_flow_option_is_usage_error():
    """The dataflow engine and its ``--flow`` switch are gone."""
    result = _run_cli("--flow", str(CORPUS / "bad_rl101.py"))
    assert result.returncode == 2


def test_repro_lint_subcommand_forwards():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "RL101" in result.stdout
