"""Whole-program analysis units: call graph, resolution, cache, CLI.

Fixture modules are built in-memory through :func:`extract_summary` so
each test states its tree in a few lines; the CLI-facing behaviours
(``--format``, ``--max-seconds``) go through real subprocesses like CI
does; the whole-tree warm-cache run lives with the self-application
tests, which share one analyzed tree.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.core import lint_paths_run
from repro.lint.program import (
    build_program,
    CallGraph,
    extract_summary,
    func_id,
    LintCache,
    ModuleSummary,
    ProgramIndex,
)

REPO_ROOT = Path(__file__).parents[2]
CORPUS = Path(__file__).parent / "corpus"


def summarize(module: str, source: str, is_package: bool = False):
    return extract_summary(
        module, f"{module.replace('.', '/')}.py", ast.parse(source),
        is_package=is_package,
    )


def _run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# -- call graph ---------------------------------------------------------------


def test_call_graph_handles_cycles():
    index = ProgramIndex(
        {"m": summarize("m", "def a():\n    b()\n\n\ndef b():\n    a()\n")}
    )
    graph = CallGraph.build(index)
    reach = graph.reachable({func_id("m", "a")})
    assert func_id("m", "a") in reach
    assert func_id("m", "b") in reach


def test_dynamic_dispatch_over_approximates():
    """An untypeable receiver resolves to *every* same-named method."""
    summaries = {
        "m1": summarize("m1", "class Codec:\n    def handle(self):\n        return 1\n"),
        "m2": summarize("m2", "class Other:\n    def handle(self):\n        return 2\n"),
        "m3": summarize("m3", "def run(x):\n    x.handle()\n"),
    }
    graph = CallGraph.build(ProgramIndex(summaries))
    targets = graph.edges[func_id("m3", "run")]
    assert func_id("m1", "Codec.handle") in targets
    assert func_id("m2", "Other.handle") in targets


def test_package_reexport_resolution():
    """``from pkg import Worker`` follows the __init__ hop to pkg.impl."""
    summaries = {
        "pkg": summarize("pkg", "from .impl import Worker\n", is_package=True),
        "pkg.impl": summarize(
            "pkg.impl",
            "class Worker:\n    def __init__(self):\n        self.n = 0\n",
        ),
        "client": summarize(
            "client", "from pkg import Worker\n\n\ndef go():\n    Worker()\n"
        ),
    }
    index = ProgramIndex(summaries)
    entity = index.resolve(summaries["client"], "Worker")
    assert entity is not None
    assert (entity.kind, entity.module, entity.name) == ("class", "pkg.impl", "Worker")
    graph = CallGraph.build(index)
    assert func_id("pkg.impl", "Worker.__init__") in graph.edges[func_id("client", "go")]


def test_worker_entry_discovery_and_cone():
    source = (
        "from repro.parallel.executor import SweepExecutor\n"
        "\n"
        "def worker(spec):\n"
        "    return helper(spec)\n"
        "\n"
        "def helper(spec):\n"
        "    return spec\n"
        "\n"
        "def sweep(specs):\n"
        "    ex = SweepExecutor(jobs=2)\n"
        "    return ex.map(worker, specs)\n"
    )
    program = build_program({"repro.sweeps.m": summarize("repro.sweeps.m", source)})
    assert func_id("repro.sweeps.m", "worker") in program.worker_entries
    # Transitive: helper is in the worker cone without being an entry.
    assert func_id("repro.sweeps.m", "helper") in program.worker_reachable
    assert func_id("repro.sweeps.m", "helper") not in program.worker_entries


# -- exception records (RL7xx raw material) -----------------------------------


def test_exception_digest_classifies_handlers():
    swallowed = summarize(
        "m",
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except Exception:\n"
        "        pass\n",
    )
    assert swallowed.functions["f"].handlers == [
        {"lineno": 4, "col": 4, "stmt_line": 4, "what": "Exception", "handled": False}
    ]
    handled = summarize(
        "m",
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except Exception as exc:\n"
        "        return repr(exc)\n",
    )
    assert handled.functions["f"].handlers[0]["handled"] is True
    narrow = summarize(
        "m",
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except ValueError:\n"
        "        pass\n",
    )
    assert narrow.functions["f"].handlers == []


def test_finally_jump_local_loop_exempt():
    local = summarize(
        "m",
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        while q:\n"
        "            if not q.pop():\n"
        "                break\n",
    )
    assert local.functions["f"].finally_jumps == []
    bad = summarize(
        "m",
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        return 0\n",
    )
    assert [j["kind"] for j in bad.functions["f"].finally_jumps] == ["return"]


def test_summary_json_round_trip():
    summary = summarize(
        "m",
        "def f(trace, x):\n"
        "    try:\n"
        "        trace.record(x)\n"
        "    except Exception:\n"
        "        pass\n"
        "    finally:\n"
        "        return x\n",
    )
    restored = ModuleSummary.from_json(json.loads(json.dumps(summary.to_json())))
    assert restored.to_json() == summary.to_json()
    assert restored.functions["f"].handlers and restored.functions["f"].finally_jumps


# -- incremental cache --------------------------------------------------------


def test_exception_records_cached_and_invalidated(tmp_path):
    """RL702 comes back from a warm cache unchanged and goes away when
    the edit removes the jump."""
    target = tmp_path / "mod.py"
    target.write_text(
        "# repro-lint-module: repro.sim.cachefix\n"
        "def drain(engine):\n"
        "    try:\n"
        "        engine.step()\n"
        "    finally:\n"
        "        return 0\n"
    )
    cache_path = tmp_path / "cache.json"
    cold = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert cold.parsed == 1
    assert [f.code for f in cold.findings] == ["RL702"]
    warm = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert warm.parsed == 0, "unchanged file must come from the cache"
    assert warm.findings == cold.findings
    target.write_text(
        "# repro-lint-module: repro.sim.cachefix\n"
        "def drain(engine):\n"
        "    try:\n"
        "        engine.step()\n"
        "    finally:\n"
        "        engine.reset()\n"
    )
    edited = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert edited.parsed == 1
    assert edited.findings == []



def test_cache_warm_run_skips_parsing_and_reproduces_findings(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "# repro-lint-module: repro.sim.fixture\n"
        "import time\n"
        "\n"
        "\n"
        "def now() -> float:\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    cache_path = tmp_path / "cache.json"
    cold = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert cold.parsed == 1 and cold.cache_hits == 0
    assert any(f.code == "RL101" for f in cold.findings)
    warm = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert warm.parsed == 0 and warm.cache_hits == 1
    assert warm.findings == cold.findings


def test_cache_invalidated_by_content_change(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    cache_path = tmp_path / "cache.json"
    first = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert first.findings == []
    target.write_text(
        "# repro-lint-module: repro.sim.fixture\n"
        "import time\n"
        "\n"
        "\n"
        "def now() -> float:\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    second = lint_paths_run([target], program=True, cache=LintCache(cache_path))
    assert second.parsed == 1 and second.cache_hits == 0
    assert any(f.code == "RL101" for f in second.findings)


def test_cache_dropped_when_analyzer_changes(tmp_path):
    cache_path = tmp_path / "cache.json"
    original = LintCache(cache_path, signature="analyzer-v1")
    original.put(Path("x.py"), "hash-1", {"findings": []})
    original.save()
    same = LintCache(cache_path, signature="analyzer-v1")
    assert same.get(Path("x.py"), "hash-1") is not None
    changed = LintCache(cache_path, signature="analyzer-v2")
    assert changed.get(Path("x.py"), "hash-1") is None


def test_stale_allowlist_entry_reported(monkeypatch):
    from repro.lint import allowlist

    monkeypatch.setitem(allowlist.ALLOWLIST, "repro/lint/cli.py", ("RL301",))
    run = lint_paths_run([REPO_ROOT / "src" / "repro" / "lint" / "cli.py"])
    assert any(
        f.code == "RL001" and "allowlist" in f.message for f in run.findings
    )


# -- CLI surfaces -------------------------------------------------------------


def test_cli_json_format():
    result = _run_cli(
        "--no-cache", "--program", "--format", "json", str(CORPUS / "bad_rl101.py")
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert {"findings", "stats"} <= set(payload)
    codes = {f["code"] for f in payload["findings"]}
    assert "RL101" in codes
    assert payload["stats"]["files"] == 1
    for key in ("parsed", "elapsed_s", "findings"):
        assert key in payload["stats"]


def test_cli_gha_format():
    result = _run_cli(
        "--no-cache", "--program", "--format", "gha",
        str(CORPUS / "bad_rl101.py"), str(CORPUS / "bad_rl001.py"),
    )
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert any(
        line.startswith("::error file=") and "title=RL101" in line for line in lines
    )
    # Stale suppressions annotate as warnings, not errors.
    assert any(
        line.startswith("::warning file=") and "title=RL001" in line for line in lines
    )


def test_cli_max_seconds_gate(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    result = _run_cli("--no-cache", "--max-seconds", "0", str(clean))
    assert result.returncode == 3
    result = _run_cli("--no-cache", "--max-seconds", "600", str(clean))
    assert result.returncode == 0
