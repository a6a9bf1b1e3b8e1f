"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload show_floor --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` gives the per-layer metrics from a separate traced run.  Times are
CPU seconds of the workload's process tree scaled to a nominal host
speed by a reference kernel run between ops (``clock.py``), because the
shared host's speed changes from one second to the next.  Every op's
output is checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each workload runs
in fresh interpreters (see ``worker.py``), so set-up time and peak RSS
belong to that workload alone.  Spans of a traced run are written to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("show_floor", "device_lab", "fleet_trajectory")

#: Fresh interpreters timed through their first op, besides the measured
#: run's own; ``setup_s`` is the median of all of them.  A fleet set-up
#: includes a whole CLI call, so it gets fewer.
SETUP_PROBES = {"show_floor": 4, "device_lab": 4, "fleet_trajectory": 2}
#: Wall-clock budget for one invocation, under the 180 s limit.
BUDGET_S = 160.0
#: Seconds a stopped worker gets to unwind before it is killed.
STOP_GRACE_S = 5.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.us_per_event", "us"),
    ("sim.l2.frames", "count"),
    ("sim.l2.flooded", "count"),
    ("sim.l2.fanout", "ratio"),
    ("sim.l2.self_s", "s"),
    ("sim.l3.frames_in", "count"),
    ("sim.l3.self_s", "s"),
    ("nd.ra_processed", "count"),
    ("nd.self_s", "s"),
    ("dhcp.messages", "count"),
    ("dhcp.option_108_grants", "count"),
    ("dhcp.leases_held", "count"),
    ("dhcp.self_s", "s"),
    ("dns.queries", "count"),
    ("dns.cache_hit_ratio", "ratio"),
    ("dns.server_self_s", "s"),
    ("dns.stub_self_s", "s"),
    ("core.poison_answers", "count"),
    ("core.poison_self_s", "s"),
    ("xlat.nat64_translations", "count"),
    ("xlat.nat64_sessions", "count"),
    ("xlat.drops", "count"),
    ("xlat.self_s", "s"),
    ("services.http_requests", "count"),
    ("services.self_s", "s"),
    ("clients.bring_up_s", "s"),
    ("clients.resolve_s", "s"),
    ("clients.fetch_s", "s"),
    ("core.testbed.builds", "count"),
    ("core.testbed.build_s", "s"),
    ("clients.fleet.calibration_s", "s"),
    ("analysis.fleet.self_s", "s"),
    ("analysis.render_s", "s"),
    ("parallel.map_calls", "count"),
    ("parallel.shards", "count"),
    ("parallel.retries", "count"),
    ("parallel.parent_wait_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.speedup", "x"),
    ("trace.overhead", "x"),
    ("scale.op_ms.n25", "ms"),
    ("scale.op_ms.n50", "ms"),
    ("scale.op_ms.n100", "ms"),
    ("scale.op_ms.n200", "ms"),
    ("scale.fanout.n25", "ratio"),
    ("scale.fanout.n50", "ratio"),
    ("scale.fanout.n100", "ratio"),
    ("scale.fanout.n200", "ratio"),
    ("rss.self_peak_mib", "MiB"),
    ("rss.children_peak_mib", "MiB"),
)


class BenchError(RuntimeError):
    pass


def spawn(
    workload: str, seed: int, mode: str, deadline: float, extra: Tuple[str, ...] = ()
) -> Tuple[float, Dict[str, Any]]:
    """Run one worker; return (seconds from start to READY, its result)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        *extra,
    ]
    start = time.perf_counter()
    # A session of its own, so a hung worker is killed with its pool.
    proc = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True
    )

    def kill_group() -> None:
        # SIGTERM first, so the worker unwinds and its program frees the
        # shared-memory arenas it holds; then SIGKILL whatever is left.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                return
            try:
                proc.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                pass

    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), kill_group)
    timer.start()
    ready: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
        proc.wait()
    if proc.returncode != 0 or ready is None or result is None:
        raise BenchError(f"{workload} {mode} worker failed (exit {proc.returncode})")
    return ready, result


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: List[float], share: float) -> float:
    """The Harrell-Davis estimate of a quantile: a mean of all the sorted
    values, weighted by a beta distribution centred on ``share``.  A
    fleet run times about twenty CLI calls; on so few values it varies
    less from run to run than interpolating between two of them."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = share * (n + 1), (1.0 - share) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def op_ms(result: Dict[str, Any]) -> List[float]:
    """Per-op time in ms (CPU time at the nominal host speed, see
    ``clock.py``).  A fleet op is one device in one stage, and one CLI
    call evaluates ``ops / calls`` of them, so each call yields its time
    divided by that count."""
    calls = result["op_s"]
    per_call = result["ops"] / len(calls)
    return [1000.0 * s / per_call for s in calls]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> Dict[str, Any]:
    setups: List[float] = []
    setup_walls: List[float] = []
    attempted = failed = 0
    errors: List[str] = []

    def probe(mode: str, extra: Tuple[str, ...] = ()) -> Dict[str, Any]:
        nonlocal attempted, failed
        ready, result = spawn(workload, seed, mode, deadline, extra)
        setups.append(result["setup_s"])
        setup_walls.append(ready)
        attempted += result["attempted"]
        failed += result["failed"]
        errors.extend(result["errors"])
        return result

    # Half the set-up probes before the measured run and half after, so
    # they sample more than one stretch of the host's speed.
    probes = SETUP_PROBES[workload]
    for _ in range(probes // 2):
        probe("setup")
    main = probe("timed", ("--seconds", str(seconds)))
    for _ in range(probes - probes // 2):
        probe("setup")
    times = op_ms(main)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main["ops"] / sum(main["op_s"]),
        "op_ms_p50": quantile(times, 0.5),
        "op_ms_p90": quantile(times, 0.9),
        "peak_rss_mib": main["rss_mib"]["self"],
    }
    info = {
        "error_rate": failed / attempted,
        "ops_timed": len(times),
        "window_wall_s": main["window_s"],
        "ops_per_wall_s": main["ops"] / main["window_s"],
        "op_cpu_ms_p50_unscaled": 1000.0 * statistics.median(main["cpu_s"]) / (main["ops"] / len(times)),
        "setup_wall_s": statistics.median(setup_walls),
        "rss_children_mib": main["rss_mib"]["children"],
        "counters": main["counters"],
        "checkpoint": main["checkpoint"],
        "shard_counters": main["shard_counters"],
    }
    return {"values": values, "units": dict(END_TO_END), "attempted": attempted,
            "failed": failed, "errors": errors, "info": info}


def per_layer(workload: str, seed: int, deadline: float) -> Dict[str, Any]:
    """Per-layer metrics: the same fixed ops untraced, then traced."""
    jobs: Tuple[str, ...] = ()
    if workload == "device_lab":
        # The matrix runs in this process, not in pool workers, so the
        # traced run sees its layers; jobs=2 is timed in the speedup rounds.
        jobs = ("--jobs", "1")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    _, plain = spawn(workload, seed, "count", deadline, jobs)
    _, traced = spawn(
        workload, seed, "traced", deadline, jobs + ("--trace-file", str(trace_file))
    )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    errors = plain["errors"] + traced["errors"]
    if plain["counters"] != traced["counters"] or plain["shard_counters"] != traced["shard_counters"]:
        failed += 1
        errors.append("counters differ between the untraced and the traced run")

    layers = traced["layers"]
    counters = dict(traced["counters"])
    absent = [f"probe {name}" for name in traced["absent"]]

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def counter(name: str) -> float:
        return counters.get(name, 0)

    events = counter("engine.events_run") + traced["shard_counters"].get("shard_events", 0)
    engine_self = layer("sim.engine", "self_s")
    lookups = counter("dns.cache_hits") + counter("dns.cache_misses")
    frames_in = counter("switch.frames_in")
    values: Dict[str, float] = {
        "sim.engine.events": events,
        "sim.engine.self_s": engine_self,
        "sim.engine.us_per_event": 1e6 * engine_self / events if events else 0.0,
        "sim.l2.frames": layer("sim.l2.link", "count"),
        "sim.l2.flooded": counter("switch.flooded"),
        "sim.l2.fanout": counter("switch.frames_out") / frames_in if frames_in else 0.0,
        "sim.l2.self_s": layer("sim.l2.link", "self_s") + layer("sim.l2.switch", "self_s"),
        "sim.l3.frames_in": layer("sim.l3", "count"),
        "sim.l3.self_s": layer("sim.l3", "self_s"),
        "nd.ra_processed": layer("nd", "count"),
        "nd.self_s": layer("nd", "self_s"),
        "dhcp.messages": layer("dhcp", "count"),
        "dhcp.option_108_grants": counter("dhcp.option_108_grants"),
        "dhcp.leases_held": counter("dhcp.leases_held"),
        "dhcp.self_s": layer("dhcp", "self_s"),
        "dns.queries": layer("dns.server", "count"),
        "dns.cache_hit_ratio": counter("dns.cache_hits") / lookups if lookups else 0.0,
        "dns.server_self_s": layer("dns.server", "self_s"),
        "dns.stub_self_s": layer("dns.stub", "self_s"),
        "core.poison_answers": counter("dns.poison_answers"),
        "core.poison_self_s": layer("core.poison", "self_s"),
        "xlat.nat64_translations": layer("xlat", "count"),
        "xlat.nat64_sessions": counter("nat64.session_count"),
        "xlat.drops": counter("nat64.dropped"),
        "xlat.self_s": layer("xlat", "self_s"),
        "services.http_requests": layer("services.http", "count"),
        "services.self_s": layer("services.http", "self_s")
        + layer("services.test_ipv6", "self_s"),
        "clients.bring_up_s": layer("clients.bring_up", "total_s"),
        "clients.resolve_s": layer("clients.resolve", "total_s"),
        "clients.fetch_s": layer("clients.fetch", "total_s"),
        "core.testbed.builds": layer("core.testbed", "count"),
        "core.testbed.build_s": layer("core.testbed", "total_s"),
        "clients.fleet.calibration_s": layer("clients.fleet.calibration", "total_s"),
        "analysis.fleet.self_s": layer("analysis.fleet", "self_s"),
        "analysis.render_s": layer("analysis.render", "total_s"),
        "trace.overhead": sum(traced["op_s"]) / sum(plain["op_s"]),
        "rss.self_peak_mib": plain["rss_mib"]["self"],
        "rss.children_peak_mib": plain["rss_mib"]["children"],
    }
    parallel = traced.get("parallel")
    if parallel is not None:
        values.update({
            "parallel.map_calls": parallel["map_calls"],
            "parallel.shards": parallel["shards"],
            "parallel.retries": parallel["retries"],
            "parallel.parent_wait_s": parallel["parent_wait_s"],
            "parallel.worker_busy_s": parallel["worker_busy_s"],
            "parallel.speedup": parallel["speedup"],
        })
    scale = traced.get("scale")
    if scale is not None:
        for point, entry in scale.items():
            values[f"scale.op_ms.n{point}"] = entry["op_ms"]
            values[f"scale.fanout.n{point}"] = entry["fanout"]
    for name, _unit in PER_LAYER:
        if name not in values:
            values[name] = 0.0
            absent.append(name)
    info = {
        "absent": absent,
        "counters": counters,
        "shard_counters": traced["shard_counters"],
        "parallel_walls": parallel["walls"] if parallel else None,
        "counters_equal_across_jobs": parallel["counters_equal"] if parallel else None,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return {"values": values, "units": dict(PER_LAYER), "attempted": attempted,
            "failed": failed, "errors": errors, "info": info}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through ``spawn`` so it kills the worker's group.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(selected)
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for workload in selected:
        try:
            if args.trace:
                report = per_layer(workload, args.seed, deadline)
            else:
                report = end_to_end(workload, args.seed, args.seconds, deadline)
        except BenchError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        prefix = f"{workload}." if len(selected) > 1 else ""
        print(f"== {workload} (seed {args.seed}, trace {args.trace})")
        for name, value in report["values"].items():
            unit = report["units"][name]
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"  {name:30s} {value:14.6g} {unit}")
        error_rate = report["failed"] / report["attempted"]
        print(f"  {'error_rate':30s} {error_rate:14.6g} ratio"
              f"  ({report['failed']} of {report['attempted']} ops failed)")
        for error in report["errors"]:
            print(f"  error: {error}")
        print("  info: " + json.dumps(report["info"], sort_keys=True))
        attempted += report["attempted"]
        failed += report["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
