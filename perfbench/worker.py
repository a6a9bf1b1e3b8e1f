"""One workload in one fresh interpreter; ``run.py`` starts it.

Modes:

- ``setup``: import, set up, run the first op, report, exit.  Set-up
  time is the process's CPU time through the first op, at the nominal
  host speed (``clock.py``).
- ``timed``: as ``setup``, then run ops for ``--seconds`` of wall time
  with tracing off and report each op's time, in CPU seconds at the
  nominal host speed.
- ``count``: as ``timed``, but a fixed number of ops (the untraced half
  of a traced run, so both halves do the same work).
- ``traced``: the same fixed ops with the layer probes installed, then
  the workload's extra traced measurements.

The last stdout line is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)
from clock import OpClock, cpu_seconds, nominal, reference_block  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Reference kernels run before and after a worker's set-up.
SETUP_KERNELS = 25
#: Ops a traced run and its untraced twin perform, first op included.
#: device_lab's is five whole cycles of its seven tables.
TRACE_OPS = {"show_floor": 301, "device_lab": 35, "fleet_trajectory": 4}
#: Interleaved jobs=1 / jobs=2 round pairs behind ``parallel.speedup``.
SPEEDUP_PAIRS = {"device_lab": 8, "fleet_trajectory": 3}
#: Matrix-table cycles in one device-lab speedup round.
LAB_ROUND_CYCLES = 2


def peak_rss_mib() -> Dict[str, float]:
    """Peak RSS of this process and of its waited-for children (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self": own, "children": children}


def run_ops(
    run_op: Callable[[int], int], first: int, stop: Callable[[int, float], bool]
) -> Dict[str, Any]:
    """Run ops from index ``first`` until ``stop(index, elapsed wall)``.

    Each op is timed in nominal CPU seconds (see ``clock.OpClock``);
    ``window_s`` is the wall time of the whole loop.
    """
    timer = OpClock()
    op_s: List[float] = []
    cpu_s: List[float] = []
    ops = 0
    index = first
    start = time.perf_counter()
    while True:
        done, nominal, cpu = timer.time(functools.partial(run_op, index))
        ops += done
        op_s.append(nominal)
        cpu_s.append(cpu)
        index += 1
        if stop(index, time.perf_counter() - start):
            break
    return {
        "window_s": time.perf_counter() - start,
        "ops": ops,
        "op_s": op_s,
        "cpu_s": cpu_s,
    }


#: A timed run stops only between these many ops, so every run does the
#: same mix of work: whole show days, whole device-lab cycles.
WHOLE = {"show_floor": workloads.DAY_SESSIONS, "device_lab": len(workloads.LAB_TABLES)}


def speedup_rounds(name: str, seed: int) -> Dict[str, Any]:
    """T(jobs=1)/T(jobs=2) from interleaved rounds in this process.

    A round is two cycles of the four matrix tables (device_lab) or one
    fleet CLI call (fleet_trajectory).  Only the executor's ``map`` is
    traced here, to read ``SweepExecutor.last_stats`` after each call.
    """
    tracer = Tracer(probes=(("parallel.map", "repro.parallel.executor.SweepExecutor.map"),))
    jobs2_stats: List[Any] = []
    current_jobs = [0]

    def after_map(args: tuple, _result: Any) -> None:
        if current_jobs[0] == 2:
            jobs2_stats.append(args[0].last_stats)

    tracer.after["parallel.map"] = after_map
    tracer.install()
    lanes = {jobs: workloads.WORKLOADS[name](seed, jobs=jobs) for jobs in (1, 2)}
    walls: Dict[int, List[float]] = {1: [], 2: []}
    counters: Dict[int, Dict[str, int]] = {1: {}, 2: {}}
    if name == "device_lab":
        cycle = len(workloads.LAB_TABLES)
        matrix = [i for i, kind in enumerate(workloads.LAB_TABLES) if kind.startswith("matrix.")]
        round_ops = [
            (pair * LAB_ROUND_CYCLES + c) * cycle + table
            for pair in range(SPEEDUP_PAIRS[name])
            for c in range(LAB_ROUND_CYCLES)
            for table in matrix
        ]
        per_round = LAB_ROUND_CYCLES * len(matrix)
    else:
        round_ops = list(range(SPEEDUP_PAIRS[name]))
        per_round = 1
    try:
        for lane in lanes.values():
            lane.setup()
        for pair in range(SPEEDUP_PAIRS[name]):
            order = (1, 2) if pair % 2 == 0 else (2, 1)
            for jobs in order:
                lane = lanes[jobs]
                current_jobs[0] = jobs
                start = time.perf_counter()
                for index in round_ops[pair * per_round:(pair + 1) * per_round]:
                    lane.run_op(index)
                walls[jobs].append(time.perf_counter() - start)
                current_jobs[0] = 0
    finally:
        for jobs, lane in sorted(lanes.items(), reverse=True):  # undo wrappers in reverse
            lane.close()
            counters[jobs] = lane.out.counters
        tracer.uninstall()
    failed = sum(lane.out.failed for lane in lanes.values())
    errors = [e for lane in lanes.values() for e in lane.out.errors]
    return {
        "speedup": statistics.median(walls[1]) / statistics.median(walls[2]),
        "walls": walls,
        "counters_equal": counters[1] == counters[2],
        "counters": counters,
        "attempted": sum(lane.out.attempted for lane in lanes.values()),
        "failed": failed,
        "errors": errors,
        "map_calls": len(jobs2_stats),
        "shards": sum(len(s.shards) for s in jobs2_stats),
        "retries": sum(sh.attempts - 1 for s in jobs2_stats for sh in s.shards),
        "parent_wait_s": sum(s.wall_s for s in jobs2_stats),
        "worker_busy_s": sum(s.shard_wall_s for s in jobs2_stats),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "timed", "count", "traced"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    # Unwind on SIGTERM, so the program's finally blocks free what they hold.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(1))

    # Set-up is this process's CPU time from its start through the first
    # op, less the reference block run before it, at the nominal speed.
    before_start = cpu_seconds()
    before = reference_block(SETUP_KERNELS)
    reference_cpu = cpu_seconds() - before_start
    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    work = workloads.WORKLOADS[args.workload](args.seed, jobs=args.jobs)
    result: Dict[str, Any] = {"workload": args.workload}
    try:
        if tracer is not None:
            with tracer.op(0, "op"):
                work.setup()
                work.run_op(0)
        else:
            work.setup()
            work.run_op(0)
        setup_cpu = cpu_seconds() - reference_cpu
        after = reference_block(SETUP_KERNELS)
        result["setup_s"] = nominal(setup_cpu, before, after)
        print("READY", flush=True)
        if args.mode != "setup":
            if args.mode == "timed":
                deadline = args.seconds

                def stop(index: int, elapsed: float) -> bool:
                    return elapsed >= deadline and index % WHOLE.get(work.name, 1) == 0
            else:
                total = TRACE_OPS[args.workload]

                def stop(index: int, elapsed: float) -> bool:
                    return index >= total

            run_op = work.run_op
            if tracer is not None:

                def traced_op(index: int) -> int:
                    with tracer.op(index, "op"):
                        return work.run_op(index)

                run_op = traced_op
            result.update(run_ops(run_op, 1, stop))
    finally:
        work.close()
    if tracer is not None:
        tracer.uninstall()
    result.update(
        attempted=work.out.attempted,
        failed=work.out.failed,
        errors=work.out.errors,
        counters=work.out.counters,
        checkpoint=work.out.checkpoint,
        shard_counters=getattr(work, "shard_counters", {}),
        rss_mib=peak_rss_mib(),
    )
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["absent"] = tracer.absent
        if args.workload == "show_floor":
            timer = OpClock()
            result["scale"] = work.scaling_curve(lambda session: timer.time(session)[1])
            result["attempted"] = work.out.attempted
            result["failed"] = work.out.failed
            result["errors"] = work.out.errors
        else:
            rounds = speedup_rounds(args.workload, args.seed)
            result["parallel"] = rounds
            result["attempted"] += rounds["attempted"]
            result["failed"] += rounds["failed"] + (0 if rounds["counters_equal"] else 1)
            result["errors"] += rounds["errors"]
            if not rounds["counters_equal"]:
                result["errors"].append("counters differ between jobs=1 and jobs=2")
        if args.trace_file:
            tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
