"""Capture, or verify, the reference outputs the benchmark checks ops against.

    python3 perfbench/capture.py            # rewrite reference/seed_<n>.json
    python3 perfbench/capture.py --verify   # recapture and compare, exit 1 on a difference

References are captured at the workload seed and at one held-out seed.
Show-floor sessions are stored per profile, device-lab tables per table
and the fleet table whole; none of these depend on the seed, and the
held-out reference shows it.  The counters at each workload's checkpoint
are stored too.  Show-floor counters depend on the arrival order, so runs
compare them only at a seed that has a reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)

#: Ops captured per workload: enough show-floor sessions to see every
#: profile, one device-lab cycle, one fleet CLI call.
CAPTURE_OPS = {
    "show_floor": workloads.SHOW_FLOOR_CHECKPOINT,
    "device_lab": len(workloads.LAB_TABLES),
    "fleet_trajectory": 1,
}


def capture(seed: int) -> Dict[str, Any]:
    reference: Dict[str, Any] = {"seed": seed}
    for name, ops in CAPTURE_OPS.items():
        work = workloads.WORKLOADS[name](seed, capture=True)
        work.setup()
        try:
            for index in range(ops):
                work.run_op(index)
        finally:
            work.close()
        if work.out.failed:
            raise SystemExit(f"{name}: capture failed: {work.out.errors}")
        reference[name] = work.out.capture
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()
    status = 0
    for seed in (workloads.WORKLOAD_SEED, workloads.HELD_OUT_SEED):
        path = workloads.REFERENCE_DIR / f"seed_{seed}.json"
        fresh = capture(seed)
        if args.verify:
            with open(path, encoding="utf-8") as handle:
                stored = json.load(handle)
            same = stored == json.loads(json.dumps(fresh))
            print(f"{path.name}: {'identical' if same else 'DIFFERS'}")
            status |= not same
        else:
            workloads.REFERENCE_DIR.mkdir(exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(fresh, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
