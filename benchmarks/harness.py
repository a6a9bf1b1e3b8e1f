"""Performance-regression harness for the simulator's hot paths.

Runs the scale scenarios behind the ``test_bench_*`` suites directly
(no pytest required), emits a ``BENCH_<date>.json`` trajectory file and
compares the result against the last committed baseline
(``benchmarks/baseline.json``) with a configurable tolerance.

Usage::

    PYTHONPATH=src python benchmarks/harness.py            # full run
    PYTHONPATH=src python benchmarks/harness.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/harness.py --check    # exit 1 on regression
    PYTHONPATH=src python benchmarks/harness.py --jobs 4   # shard sweeps over 4 workers
    PYTHONPATH=src python benchmarks/harness.py --update-baseline

Metrics per scenario:

- ``events_per_sec`` — simulated events processed per wall-clock second;
- ``queries_per_sec`` — DNS queries served per wall-clock second;
- ``p50_wall_s`` / ``p99_wall_s`` — wall time per round;
- ``sim_per_wall_p50`` / ``sim_per_wall_p99`` — simulated seconds
  advanced per wall second (higher is better);
- ``jobs`` / ``parallel_speedup`` — worker count and effective
  parallelism for scenarios sharded over :class:`repro.parallel`
  (``parallel_speedup`` is null for serial scenarios);
- ``devices_per_sec`` — fleet devices evaluated per wall second, for
  the closed-form fleet scenarios (null elsewhere);
- ``calibration_wall_s`` / ``fold_wall_s`` — best-round wall time of
  the fleet scenarios' two steps: calibrating the distinct profiles on
  a live testbed, and folding every stage's profile runs (null for
  non-fleet scenarios);
- ``table_matches_golden`` — whether every round's fleet table is
  byte-equal to ``tests/golden/fleet_<devices>.txt``; ``--check``
  fails on ``false`` (null for non-fleet scenarios);
- ``speedup_gate`` — verdict on ``parallel_speedup`` against the 0.6 x
  jobs floor, or a "skipped (...)" marker naming why the number cannot
  gate on this run (quick mode, <4 cores, jobs<2, serial scenario);
- ``peak_rss_bytes`` — process peak RSS (children included) sampled
  after the scenario's rounds.  ``ru_maxrss`` is a high-water mark, so
  the value is cumulative across the scenarios run before it in the
  same process — a per-scenario ceiling, not a per-scenario delta.

The emitted file also embeds ``seed_baseline`` — the numbers measured on
the unoptimized seed tree — so every trajectory file records the
improvement factor against where the repository started.

Quick mode runs smaller scenario sizes, so its throughputs are not
comparable to a full run's; ``baseline.json`` therefore keeps separate
``scenarios`` (full) and ``scenarios_quick`` sections, each refreshed by
``--update-baseline`` in the matching mode, and ``--check`` only ever
gates same-mode pairs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro import _accel  # noqa: E402
from repro.analysis.adoption import (  # noqa: E402
    FleetMix,
    run_adoption_sweep_stats,
    sweep_table,
    windows_refresh_mixes,
)
from repro.analysis.fleet import calibrate_fleet, fold_fleet  # noqa: E402
from repro.clients.profiles import (  # noqa: E402
    ANDROID,
    IOS,
    LINUX,
    MACOS,
    NINTENDO_SWITCH,
    WINDOWS_10,
    WINDOWS_11,
    WINDOWS_11_RFC8925,
)
from repro.core.intervention import InterventionConfig, PoisonedDNSServer  # noqa: E402
from repro.core.testbed import TestbedConfig, Testbed  # noqa: E402
from repro.dns.message import DnsMessage  # noqa: E402
from repro.dns.rdata import RRType  # noqa: E402
from repro.dns.zone import Zone  # noqa: E402
from repro.core.rss import peak_rss_bytes  # noqa: E402
from repro.net.addresses import IPv4Address  # noqa: E402
from repro.parallel import SweepExecutor  # noqa: E402
from repro.sim.engine import EventEngine  # noqa: E402
from repro.xlat.dns64 import DNS64Resolver  # noqa: E402

BASELINE_PATH = HERE / "baseline.json"
SEED_BASELINE_PATH = HERE / "seed_baseline.json"
#: Fleet tables captured from the materialised columnar sweep, one file
#: per fleet size; the closed-form fold must reproduce them byte-for-byte.
GOLDEN_DIR = REPO / "tests" / "golden"

#: Show-floor population mix (fractions mirror test_bench_scale.SHOW_FLOOR).
SHOW_FLOOR = (
    (IOS, 12),
    (ANDROID, 10),
    (MACOS, 8),
    (WINDOWS_10, 8),
    (WINDOWS_11, 5),
    (LINUX, 4),
    (NINTENDO_SWITCH, 3),
)


class RoundResult:
    """Raw observations from one scenario round.

    ``shard_wall`` is the summed worker-equivalent wall clock; dividing
    it by the round's observed wall gives the effective parallel
    speedup.  Scenarios that fan out over a :class:`SweepExecutor` set
    ``parallel=True`` (their ``jobs`` field reports the pool size);
    serial scenarios may still report their own wall as ``shard_wall``
    so the speedup field records ~1.0 instead of null.
    """

    def __init__(
        self,
        events: int,
        sim_seconds: float,
        queries: int,
        shard_wall: float = 0.0,
        parallel: bool = False,
        devices: int = 0,
        calibration_wall: float = 0.0,
        fold_wall: float = 0.0,
        table_ok: Optional[bool] = None,
    ) -> None:
        self.events = events
        self.sim_seconds = sim_seconds
        self.queries = queries
        self.shard_wall = shard_wall
        self.parallel = parallel
        self.devices = devices
        self.calibration_wall = calibration_wall
        self.fold_wall = fold_wall
        self.table_ok = table_ok
        self.wall = 0.0


def _dns_queries_served(testbed: Testbed) -> int:
    return len(testbed.dns64.query_log) + len(testbed.poisoner.query_log)


def scenario_show_floor(quick: bool, executor: SweepExecutor) -> RoundResult:
    """The test_bench_scale show-floor population: every device joins the
    network and browses once.  One shared broadcast domain — inherently
    serial — so the worker-equivalent wall equals the scenario wall and
    ``parallel_speedup`` records ~1.0 rather than hiding as null."""
    del executor
    scale = 1 if quick else 2
    start = time.perf_counter()
    testbed = Testbed(TestbedConfig())
    index = 0
    for profile, count in SHOW_FLOOR:
        for _ in range(count * scale):
            testbed.add_client(profile, f"attendee-{index}")
            index += 1
    for client in testbed.clients:
        client.fetch("sc24.supercomputing.org")
    shard_wall = time.perf_counter() - start
    return RoundResult(
        testbed.engine.events_run,
        testbed.engine.now,
        _dns_queries_served(testbed),
        shard_wall=shard_wall,
    )


def scenario_adoption_sweep(quick: bool, executor: SweepExecutor) -> RoundResult:
    """The test_bench_scale Windows-refresh adoption sweep: a fresh
    testbed per refresh stage, live clients at each stage.  Stages are
    independent shards, fanned out across the executor's pool."""
    fleet = 8 if quick else 15
    stages = (0.0, 0.5, 1.0) if quick else (0.0, 0.25, 0.5, 0.75, 1.0)
    windows_count = fleet - 3
    mixes = []
    for fraction in stages:
        upgraded = round(windows_count * fraction)
        mixes.append(
            FleetMix(
                devices=(
                    (WINDOWS_10, windows_count - upgraded),
                    (WINDOWS_11_RFC8925, upgraded),
                    (MACOS, 2),
                ),
                label=f"{int(fraction * 100)}% refreshed",
            )
        )
    _points, stats = run_adoption_sweep_stats(mixes, TestbedConfig(), executor=executor)
    return RoundResult(
        stats.total_events,
        stats.total_sim_seconds,
        stats.total_queries,
        shard_wall=stats.shard_wall_s,
        parallel=True,
    )


def scenario_dns_fast_path(quick: bool, executor: SweepExecutor) -> RoundResult:
    """The resolver-side per-query cost in isolation: poisoned A answers
    and DNS64 AAAA synthesis, straight through handle_query."""
    del executor
    n = 2_000 if quick else 10_000
    zone = Zone("supercomputing.org")
    for i in range(50):
        zone.add_a(f"host{i}.supercomputing.org", str(IPv4Address(0xBE000000 + i)))
    upstream = DNS64Resolver([zone])
    poisoner = PoisonedDNSServer(
        InterventionConfig(poison_address=IPv4Address("23.153.8.71")),
        upstream.handle_query,
    )
    queries = 0
    for i in range(n):
        host = f"host{i % 50}.supercomputing.org"
        a_wire = DnsMessage.query(host, RRType.A, ident=i & 0xFFFF).encode()
        aaaa_wire = DnsMessage.query(host, RRType.AAAA, ident=(i + 1) & 0xFFFF).encode()
        assert poisoner.handle_query(a_wire) is not None
        assert upstream.handle_query(aaaa_wire) is not None
        queries += 2
    # No event engine in this scenario: it measures codec + server cost.
    return RoundResult(0, 0.0, queries)


def scenario_scheduler_wheel(quick: bool, executor: SweepExecutor) -> RoundResult:
    """Pure-engine scheduler microbenchmark — no packets, no codecs.

    Exercises every tier of the timing wheel (behind-cursor heap,
    tier-0/tier-1 slots, far-future overflow) through self-rescheduling
    event chains drawn from a fixed-seed delay table, plus tombstone
    pressure (cancelled entries must recycle through the slab without
    dispatching) and a fleet of coalesced periodic cadences riding one
    wheel timer.  Isolates schedule/dispatch cost from the protocol
    stack so scheduler regressions can't hide behind codec noise.
    """
    del executor
    n = 50_000 if quick else 250_000
    engine = EventEngine()
    rng = random.Random(20240806)
    # Delay scales matched to the wheel geometry: 0 lands behind the
    # cursor, sub-125 ms in tier-0, sub-32 s in tier-1, minutes in the
    # overflow heap.
    scales = (0.0, 0.0004, 0.004, 0.09, 0.8, 20.0, 120.0)
    delays = [rng.choice(scales) * rng.random() for _ in range(1024)]
    state = {"left": n}

    def chain() -> None:
        left = state["left"]
        if left > 0:
            state["left"] = left - 1
            engine.schedule(delays[left & 1023], chain)
            if not left % 17:  # tombstone pressure: cancel-in-place + recycle
                engine.schedule(delays[(left + 7) & 1023], chain)[2] = None

    for _ in range(128):
        chain()
    cancels = [
        engine.schedule_every(5.0, lambda: None, coalesce="bench-ra") for _ in range(64)
    ]
    while state["left"] > 0:
        engine.run_for(60.0, max_events=2 * n)
    for cancel in cancels:
        cancel()
    engine.run_until_idle()
    return RoundResult(engine.events_run, engine.now, 0)


def _scenario_fleet(fleet: int) -> RoundResult:
    """Shared body for the fleet-scale scenarios: calibrate the sweep's
    distinct profiles on a live testbed, fold every stage's profile
    runs in closed form, and compare the table with the golden one."""
    mixes = windows_refresh_mixes(fleet_size=fleet)
    start = time.perf_counter()
    tables = calibrate_fleet(mixes)
    calibrated = time.perf_counter()
    points = fold_fleet(mixes, tables)
    folded = time.perf_counter()
    golden = (GOLDEN_DIR / f"fleet_{fleet}.txt").read_text()
    return RoundResult(
        0,
        0.0,
        0,
        devices=sum(mix.total for mix in mixes),
        calibration_wall=calibrated - start,
        fold_wall=folded - calibrated,
        table_ok=sweep_table(points) + "\n" == golden,
    )


def scenario_fleet_million(quick: bool, executor: SweepExecutor) -> RoundResult:
    """The §VII adoption trajectory at production fleet scale.

    A million-device fleet (100k in quick mode) per Windows-refresh
    stage, five stages.  The work is one calibration testbed plus a
    fold over four profile runs per stage, so the wall is almost all
    calibration and does not grow with the fleet.  Events/queries are
    zero by design (the calibration testbed's packets are not counted),
    so the events/queries regression gate skips this scenario; its
    gate is ``table_matches_golden``.
    """
    del executor
    return _scenario_fleet(100_000 if quick else 1_000_000)


def scenario_fleet_10m(quick: bool, executor: SweepExecutor) -> RoundResult:
    """Ten million devices per stage (200k in quick mode, distinct from
    ``fleet_million``'s quick size so both rows stay meaningful).  Its
    walls should match ``fleet_million``'s: the closed form's cost is
    independent of the device count."""
    del executor
    return _scenario_fleet(200_000 if quick else 10_000_000)


SCENARIOS: Dict[str, Callable[[bool, SweepExecutor], RoundResult]] = {
    "show_floor": scenario_show_floor,
    "adoption_sweep": scenario_adoption_sweep,
    "dns_fast_path": scenario_dns_fast_path,
    "scheduler_wheel": scenario_scheduler_wheel,
    "fleet_million": scenario_fleet_million,
    "fleet_10m": scenario_fleet_10m,
}


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def run_scenario(
    name: str,
    fn: Callable[[bool, SweepExecutor], RoundResult],
    rounds: int,
    quick: bool,
    executor: SweepExecutor,
) -> dict:
    """Run ``rounds`` rounds and report best-round throughput.

    The scenarios are deterministic, so every round does identical work;
    wall-clock differences between rounds are pure scheduler/machine
    noise.  Noise is strictly additive, which makes the *fastest* round
    the least-contaminated observation — the same reasoning behind
    ``timeit``'s min-of-repeats — so throughput headline numbers use the
    best round while the percentile fields keep the full distribution.
    """
    walls: List[float] = []
    ratios: List[float] = []
    speedups: List[float] = []
    events = 0
    queries = 0
    devices = 0
    calibration_walls: List[float] = []
    fold_walls: List[float] = []
    tables_ok: List[bool] = []
    sharded = False
    # Cyclic-GC pauses land at arbitrary points inside timed rounds and
    # are the dominant noise source at these round lengths.  Standard
    # bench hygiene (same policy as pyperf): collect + freeze the
    # already-live heap, disable the collector for the timed region and
    # restore it afterwards.  The scenarios themselves allocate almost
    # no cyclic garbage, so this changes noise, not memory behaviour.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn(quick, executor)
            wall = time.perf_counter() - start
            walls.append(wall)
            events += result.events
            queries += result.queries
            devices += result.devices
            if result.table_ok is not None:
                calibration_walls.append(result.calibration_wall)
                fold_walls.append(result.fold_wall)
                tables_ok.append(result.table_ok)
            sharded = sharded or result.parallel
            if result.sim_seconds:
                ratios.append(result.sim_seconds / wall)
            if result.shard_wall:
                speedups.append(result.shard_wall / wall)
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()
    total_wall = sum(walls)
    best_wall = min(walls)
    round_events = events // rounds
    round_queries = queries // rounds
    round_devices = devices // rounds
    return {
        "rounds": rounds,
        "basis": "best-round",
        "jobs": executor.jobs if sharded else 1,
        "total_wall_s": round(total_wall, 4),
        "events": events,
        "queries": queries,
        # Event-less scenarios (dns_fast_path measures codec + server
        # cost with no engine) report an explicit "skipped" marker so
        # the regression gate's skip logic is self-documenting.
        "events_per_sec": round(round_events / best_wall, 1) if events else "skipped",
        "queries_per_sec": round(round_queries / best_wall, 1),
        # Fleet scenarios report devices folded per wall second;
        # everything else null.  Recorded, not gated.
        "devices_per_sec": round(round_devices / best_wall, 1) if devices else None,
        # The fleet scenarios' two steps, best round each, and whether
        # every round's table equalled the golden one (null elsewhere).
        "calibration_wall_s": round(min(calibration_walls), 4) if tables_ok else None,
        "fold_wall_s": round(min(fold_walls), 6) if tables_ok else None,
        "table_matches_golden": all(tables_ok) if tables_ok else None,
        # Cumulative process high-water mark at the end of this
        # scenario's rounds (ru_maxrss, children included); None only
        # where the platform offers no resource module.
        "peak_rss_bytes": peak_rss_bytes(),
        "p50_wall_s": round(statistics.median(walls), 4),
        "p99_wall_s": round(_percentile(walls, 0.99), 4),
        "sim_per_wall_p50": round(statistics.median(ratios), 2) if ratios else None,
        "sim_per_wall_p99": round(_percentile(ratios, 0.99), 2) if ratios else None,
        # Effective parallelism: summed worker-equivalent wall over
        # observed wall — ~1.0 documents an inherently serial scenario.
        "parallel_speedup": round(max(speedups), 2) if speedups else None,
        "speedup_gate": _speedup_gate(
            sharded, quick, executor.jobs, max(speedups) if speedups else 0.0
        ),
    }


#: Minimum fraction of linear scaling a sharded full-mode scenario must
#: reach on a machine with enough cores to make the number meaningful.
SPEEDUP_FLOOR_FRACTION = 0.6


def _speedup_gate(sharded: bool, quick: bool, jobs: int, speedup: float) -> str:
    """Gate verdict for ``parallel_speedup``: "ok", "fail: ...", or a
    "skipped (...)" marker naming why the number cannot gate here.

    Quick-mode scenario sizes are too small to amortise pool dispatch,
    a single-worker pool has nothing to scale, and below 4 physical
    cores the OS scheduler (not the executor) owns the outcome — each
    of those skips loudly instead of failing on noise.
    """
    if not sharded:
        return "skipped (serial scenario)"
    if quick:
        return "skipped (quick mode)"
    if jobs < 2:
        return "skipped (jobs<2)"
    cores = os.cpu_count() or 1
    if cores < 4:
        return f"skipped ({cores} cores < 4)"
    floor = SPEEDUP_FLOOR_FRACTION * jobs
    if speedup >= floor:
        return "ok"
    return f"fail: speedup {speedup:.2f} < {floor:.2f} (0.6 x {jobs} jobs)"


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def _load_json(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    with path.open() as fh:
        return json.load(fh)


def _fingerprint() -> Dict[str, str]:
    """Interpreter/platform identity a throughput number is only valid on.

    Comparing events/s measured under CPython on x86_64 against a run
    under PyPy or on aarch64 gates nothing real; baselines record this
    fingerprint and the gate skips (loudly) when it does not match the
    current runner.  Deliberately coarse — interpreter implementation
    and architecture, not the minor Python version — so routine CI
    interpreter bumps keep gating while genuinely incomparable runners
    do not.
    """
    return {
        "interpreter": sys.implementation.name,
        "machine": platform.machine(),
    }


def compare(
    current: Dict[str, dict],
    baseline: Optional[dict],
    tolerance: float,
    quick: bool = False,
    accel: str = "py",
) -> List[str]:
    """Regressions of current vs baseline; empty list means within tolerance.

    Quick and full runs use differently-sized scenarios, and the
    compiled kernel shifts every throughput, so none of those pairs are
    comparable; each (mode, accel) combination gates only against its
    own baseline section (``scenarios[_quick]`` for pure Python,
    ``accel_scenarios[_quick]`` for the compiled kernel).  A missing
    section means nothing to gate against — record one with
    ``--update-baseline`` in the matching mode.
    """
    problems: List[str] = []
    if baseline is None:
        return problems
    section = baseline.get(_baseline_section(quick, accel), {})
    for name, stats in current.items():
        base = section.get(name)
        if base is None:
            continue
        for metric in ("events_per_sec", "queries_per_sec"):
            now_value = stats.get(metric)
            base_value = base.get(metric)
            # Event-less scenarios (e.g. dns_fast_path) report the
            # "skipped" marker for events_per_sec; only numeric pairs
            # can gate, and zero baselines cannot gate anything.
            if (
                not isinstance(now_value, (int, float))
                or not isinstance(base_value, (int, float))
                or base_value == 0
            ):
                continue
            floor = base_value * (1.0 - tolerance)
            if now_value < floor:
                problems.append(
                    f"{name}.{metric}: {now_value:,.0f} < {floor:,.0f} "
                    f"(baseline {base_value:,.0f}, tolerance {tolerance:.0%})"
                )
    return problems


def _baseline_section(quick: bool, accel: str = "py") -> str:
    """Baseline key for a (mode, accel) pair: quick runs never gate full
    numbers and compiled-kernel runs never gate pure-Python ones."""
    section = "scenarios_quick" if quick else "scenarios"
    return f"accel_{section}" if accel == "compiled" else section


def improvement_vs_seed(current: Dict[str, dict], seed: Optional[dict]) -> Dict[str, float]:
    factors: Dict[str, float] = {}
    if seed is None:
        return factors
    for name, stats in current.items():
        base = seed.get("scenarios", {}).get(name)
        if base is None:
            continue
        for metric in ("events_per_sec", "queries_per_sec"):
            now_value = stats.get(metric)
            base_value = base.get(metric)
            # "skipped"/null metrics (event-less scenarios) and zero
            # baselines have no meaningful improvement factor.
            if (
                not isinstance(now_value, (int, float))
                or not isinstance(base_value, (int, float))
                or base_value == 0
            ):
                continue
            factors[f"{name}.{metric}"] = round(now_value / base_value, 2)
    return factors


def _format_rate(value: object) -> str:
    return f"{value:,.0f}" if isinstance(value, (int, float)) else str(value)


def _emit_gha(
    current: Dict[str, dict],
    problems: List[str],
    quick: bool,
    accel: str,
    baseline: Optional[dict],
    section_name: str,
) -> None:
    """GitHub Actions output: ::error annotations plus a summary table.

    Regressions surface as file-less error annotations (visible in the
    checks UI without opening the log), and the per-scenario numbers are
    rendered as a markdown table — appended to ``$GITHUB_STEP_SUMMARY``
    when the runner provides one, echoed to stdout either way so a local
    ``--format gha`` run shows the same thing.
    """
    for problem in problems:
        print(f"::error title=bench regression::{problem}")
    section = (baseline or {}).get(section_name, {})
    mode = "quick" if quick else "full"
    lines = [
        f"### Bench {mode} (accel={accel})",
        "",
        "| scenario | events/s | queries/s | p50 wall (s) | baseline events/s |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name, stats in current.items():
        base = section.get(name, {})
        lines.append(
            f"| {name} | {_format_rate(stats.get('events_per_sec'))} "
            f"| {_format_rate(stats.get('queries_per_sec'))} "
            f"| {stats.get('p50_wall_s')} "
            f"| {_format_rate(base.get('events_per_sec', '—'))} |"
        )
    lines.append("")
    lines.append(
        f"**{len(problems)} regression(s)** vs `{section_name}`"
        if problems
        else f"No regressions vs `{section_name}`"
    )
    table = "\n".join(lines)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(table + "\n")


def _lint_program_timings() -> Dict[str, object]:
    """Cold vs warm wall time of the whole-tree ``--program`` analyzer.

    Never gated — recorded so BENCH artifacts track the analyzer's
    incremental-cache promise (warm ``--program`` under the CI budget)
    alongside the runtime numbers.
    """
    import tempfile

    from repro.lint.core import lint_paths_run
    from repro.lint.program.cache import LintCache

    src = REPO / "src"
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "lint-cache.json"
        started = time.perf_counter()
        cold = lint_paths_run([src], program=True, cache=LintCache(cache_path))
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        lint_paths_run([src], program=True, cache=LintCache(cache_path))
        warm_s = time.perf_counter() - started
    return {
        "files": cold.files,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="small populations, fewer rounds")
    parser.add_argument("--rounds", type=int, default=None, help="rounds per scenario")
    parser.add_argument(
        "--tolerance", type=float, default=0.25, help="allowed fractional regression"
    )
    parser.add_argument(
        "--check", action="store_true", help="exit non-zero on regression vs baseline"
    )
    parser.add_argument(
        "--update-baseline", action="store_true", help="write results to baseline.json"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="output path (default BENCH_<date>.json)"
    )
    parser.add_argument(
        "--scenario", action="append", default=None, help="run only the named scenario(s)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sharded scenarios (default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    parser.add_argument(
        "--format",
        choices=("plain", "gha"),
        default="plain",
        help="'gha' adds GitHub Actions ::error annotations and a markdown summary table",
    )
    args = parser.parse_args(argv)

    rounds = args.rounds or (2 if args.quick else 3)
    names = args.scenario or list(SCENARIOS)
    current: Dict[str, dict] = {}
    # One warm executor for the whole run: sharded scenarios reuse the
    # worker pool across rounds instead of re-forking per round.
    with SweepExecutor(jobs=args.jobs) as executor:
        for name in names:
            if name not in SCENARIOS:
                parser.error(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
            print(
                f"[harness] running {name} ({rounds} rounds, quick={args.quick}, "
                f"jobs={executor.jobs}) ..."
            )
            current[name] = run_scenario(name, SCENARIOS[name], rounds, args.quick, executor)
            stats = current[name]
            events_s = stats["events_per_sec"]
            prefix = (
                f"{events_s:,.0f} events/s, "
                if isinstance(events_s, (int, float))
                else f"events/s {events_s}, "
            )
            devices_s = stats["devices_per_sec"]
            if devices_s is not None:
                prefix = f"{devices_s:,.0f} devices/s, " + prefix
            speedup = stats["parallel_speedup"]
            suffix = f", {speedup:.2f}x parallel speedup" if speedup is not None else ""
            print(
                f"[harness]   {name}: {prefix}{stats['queries_per_sec']:,.0f} queries/s, "
                f"p50 {stats['p50_wall_s']}s{suffix}"
            )
        jobs = executor.jobs

    accel = _accel.active_mode()
    fingerprint = _fingerprint()
    baseline = _load_json(BASELINE_PATH)
    seed_baseline = _load_json(SEED_BASELINE_PATH)
    report = {
        "generated": date.today().isoformat(),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fingerprint": fingerprint,
        "accel": accel,
        "quick": args.quick,
        "rounds": rounds,
        "jobs": jobs,
        "lint_program": _lint_program_timings(),
        "scenarios": current,
        "improvement_vs_seed": improvement_vs_seed(current, seed_baseline),
        "seed_baseline": (seed_baseline or {}).get("scenarios"),
        "baseline_commit": (baseline or {}).get("git_commit"),
    }

    out_path = args.output or (REPO / f"BENCH_{date.today().isoformat()}.json")
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[harness] wrote {out_path} (accel={accel})")

    if args.update_baseline:
        # Merge into the section for this run's (mode, accel) pair; the
        # other sections' numbers and any scenarios not run this time
        # are preserved, so `--scenario X --update-baseline` refreshes
        # only X.
        section = _baseline_section(args.quick, accel)
        refreshed = dict(baseline or {})
        refreshed.update(
            {
                "generated": report["generated"],
                "git_commit": report["git_commit"],
                "fingerprint": fingerprint,
                section: {**refreshed.get(section, {}), **current},
            }
        )
        refreshed.pop("quick", None)  # superseded by the per-mode sections
        BASELINE_PATH.write_text(json.dumps(refreshed, indent=2) + "\n")
        print(f"[harness] baseline refreshed at {BASELINE_PATH} ({section})")
        baseline = refreshed

    # A baseline measured on a different interpreter or architecture
    # gates nothing real — skip the comparison loudly instead of failing
    # (or passing) on incomparable numbers.
    baseline_fp = (baseline or {}).get("fingerprint")
    fingerprint_ok = baseline_fp is None or baseline_fp == fingerprint
    if not fingerprint_ok:
        print(
            f"[harness] baseline fingerprint {baseline_fp} does not match this "
            f"runner {fingerprint}; regression gate skipped"
        )
        problems: List[str] = []
    else:
        problems = compare(current, baseline, args.tolerance, quick=args.quick, accel=accel)
    # The speedup gate needs no baseline — it compares against the pool
    # size itself (0.6 x jobs), skipping loudly where the number cannot
    # mean anything (quick mode, <4 cores, jobs<2, serial scenarios).
    problems += [
        f"{name}.parallel_speedup {stats['speedup_gate']}"
        for name, stats in current.items()
        if str(stats.get("speedup_gate", "")).startswith("fail")
    ]
    # Fleet tables are deterministic: any difference from the golden
    # table is a behaviour change, whatever the machine.
    problems += [
        f"{name}: table differs from {GOLDEN_DIR.name}/fleet_*.txt"
        for name, stats in current.items()
        if stats.get("table_matches_golden") is False
    ]
    for problem in problems:
        print(f"[harness] REGRESSION {problem}")
    section_name = _baseline_section(args.quick, accel)
    if baseline is not None and not baseline.get(section_name):
        print(
            f"[harness] baseline has no {section_name} section; "
            "nothing gated (record one with --update-baseline)"
        )
    elif not problems and fingerprint_ok and baseline is not None:
        print(f"[harness] no regression vs baseline ({(baseline or {}).get('git_commit')})")
    if args.format == "gha":
        _emit_gha(current, problems, args.quick, accel, baseline, section_name)
    if args.check and problems:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
