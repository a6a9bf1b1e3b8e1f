"""The benchmark's three workloads: inputs from a seed, ops, checks, counters.

Each workload drives the simulator only through interfaces that users
run: ``python -m repro <cmd>`` (called in process through
``repro.__main__.main``) or the public functions those commands call.
Module functions are looked up at call time (``matrix.run_...``), so
the tracer's wrappers apply to them.

An op's output is compared with the stored reference and with the
paper's invariants.  A mismatch or an exception marks the op failed; it
never stops the run.

Workloads and why they were chosen:

- ``show_floor``: one long-lived testbed, attendees joining and leaving
  with about 100 present.  Engine dispatch, broadcast L2 and ND fan-out,
  DHCP lease churn and NAT64 grow with the attendees present, while DNS
  answers stay cache-hot.
- ``device_lab``: the paper's per-device tables on fresh small testbeds.
  Testbed builds, cold DNS caches, poison and RPZ answers, the HTTP-heavy
  mirror suite and the executor's dispatch on small shards dominate;
  broadcast fan-out stays small.
- ``fleet_trajectory``: ``python -m repro fleet --devices 10000000
  --jobs 2``, the columnar fleet path with its calibration.  Object-path
  layers do almost nothing here beyond calibration.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import random
import re
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: The seed the references were captured at, and the held-out seed whose
#: reference shows the checks do not depend on the seed.
WORKLOAD_SEED = 1
HELD_OUT_SEED = 4242

#: Attendee mix of the show floor (the harness's ``SHOW_FLOOR`` profiles).
SHOW_FLOOR_MIX = (
    ("IOS", 12),
    ("ANDROID", 10),
    ("MACOS", 8),
    ("WINDOWS_10", 8),
    ("WINDOWS_11", 5),
    ("LINUX", 4),
    ("NINTENDO_SWITCH", 3),
)
#: Attendees present once the floor is full; the oldest leaves after each join.
STANDING = 100
#: Pool-address holders allowed on the floor (the pool has 50 addresses;
#: the rest cover leases still being released).
POOL_CAP = 46
#: Sessions in one show day.  Each day opens a fresh testbed, so the work
#: of a run does not depend on how many sessions a faster machine reaches.
DAY_SESSIONS = 500
#: Sessions after which the counter checkpoint is taken.
SHOW_FLOOR_CHECKPOINT = 150
#: Attendees present at each point of the scaling curve.
SCALE_POINTS = (25, 50, 100, 200)
#: Sessions timed at each point of the scaling curve.
SCALE_SESSIONS = 30

FLEET_DEVICES = 10_000_000
FLEET_JOBS = 2
LAB_JOBS = 2

WEB_SITE = "sc24.supercomputing.org"  # IPv4-only
MIRROR_SITE = "test-ipv6.com"  # dual-stack


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def _read(obj: Any, *path: str) -> Optional[Any]:
    """A public attribute chain, or None if a later change removed it."""
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def testbed_counters(testbed: Any) -> Dict[str, int]:
    """Exact work counters of one testbed, read from public attributes."""
    switches = [s for s in (_read(testbed, "switch"), _read(testbed, "inet")) if s is not None]
    dns = [
        s
        for s in (
            _read(testbed, "dns64"),
            _read(testbed, "poisoner"),
            _read(testbed, "carrier_dns_server"),
        )
        if s is not None
    ]
    poisoner = _read(testbed, "poisoner")
    poison = _read(poisoner, "poison_answers")
    if poison is None:
        poison = _read(poisoner, "rewritten")  # the RPZ server's name for it
    values: Dict[str, Optional[int]] = {
        "engine.events_run": _read(testbed, "engine", "events_run"),
        "switch.flooded": sum(s.flooded for s in switches),
        "switch.frames_in": sum(p.rx_frames for s in switches for p in s.ports.values()),
        "switch.frames_out": sum(p.tx_frames for s in switches for p in s.ports.values()),
        "dns.cache_hits": sum(s.cache_hits for s in dns),
        "dns.cache_misses": sum(s.cache_misses for s in dns),
        "dns.poison_answers": poison,
        "nat64.session_count": _read(testbed, "gateway", "nat64", "session_count"),
        "nat64.dropped": _read(testbed, "gateway", "nat64", "dropped"),
        "dhcp.offers_made": _read(testbed, "dhcp_server", "offers_made"),
        "dhcp.acks_sent": _read(testbed, "dhcp_server", "acks_sent"),
        "dhcp.option_108_grants": _read(testbed, "dhcp_server", "option_108_grants"),
        "dhcp.leases_held": len(_read(testbed, "dhcp_server", "leases") or ()),
    }
    return {k: int(v) for k, v in values.items() if v is not None}


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def load_reference(seed: int) -> Tuple[Dict[str, Any], bool]:
    """The reference for ``seed`` if one was captured, else the workload
    seed's.  The second value says whether it was captured at ``seed``:
    only then are seed-dependent counters comparable."""
    path = REFERENCE_DIR / f"seed_{seed}.json"
    exact = path.exists()
    if not exact:
        path = REFERENCE_DIR / f"seed_{WORKLOAD_SEED}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), exact


# ---------------------------------------------------------------------------
# op bookkeeping
# ---------------------------------------------------------------------------


class Outcome:
    """What a workload did: ops attempted and failed, first errors, counters."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.counters: Dict[str, int] = {}
        self.checkpoint: Optional[Dict[str, int]] = None
        self.capture: Dict[str, Any] = {}

    def fail(self, message: str, weight: int = 1) -> None:
        self.failed += weight
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """One workload: ``setup`` then ``op(i)`` for i = 0, 1, ...

    ``op`` runs one op, checks it, and returns how many ops it counts as
    (1, except on fleet_trajectory where each device in each stage is one).
    ``capture`` mode records outputs instead of checking them, to write a
    reference.
    """

    name = ""

    def __init__(self, seed: int, capture: bool = False, jobs: Optional[int] = None) -> None:
        self.seed = seed
        self.capturing = capture
        self.out = Outcome()
        self.reference: Dict[str, Any] = {}
        self.reference_exact = False
        if not capture:
            full, self.reference_exact = load_reference(seed)
            self.reference = full[self.name]

    def setup(self) -> None:
        pass

    def op(self, index: int) -> int:
        raise NotImplementedError

    def run_op(self, index: int) -> int:
        try:
            ops = self.op(index)
        except Exception as error:  # an op that raises is a failed op
            ops = self.ops_per_op()
            self.out.fail(f"op {index}: {type(error).__name__}: {error}", ops)
        self.out.attempted += ops
        return ops

    def ops_per_op(self) -> int:
        return 1

    def close(self) -> None:
        pass

    def expect(self, condition: bool, message: str, weight: int = 1) -> bool:
        if not condition:
            self.out.fail(message, weight)
        return condition

    def check_counters(self, label: str, counters: Dict[str, int], reference: Any) -> None:
        if self.capturing or reference is None:
            return
        self.expect(counters == reference, f"{label} counters {counters} != reference {reference}")


# ---------------------------------------------------------------------------
# show_floor
# ---------------------------------------------------------------------------


def takes_pool_address(profile: Any) -> bool:
    """Whether the DHCP server gives this profile an IPv4 pool address."""
    return profile.ipv4_enabled and not profile.supports_option_108


class ArrivalPlan:
    """The attendee order: shuffled decks of the mix, drawn from the seed.

    The DHCP pool holds 50 addresses.  Profiles that take one make up 40%
    of the mix, so a standing population of about 100 could exhaust the
    pool by chance and refuse an attendee.  When ``POOL_CAP`` holders are
    present, the next pool-taking attendee waits behind the next one that
    takes no address.
    """

    def __init__(self, seed: int, profiles: Dict[str, Any]) -> None:
        self.rng = random.Random(seed)
        self.cards = [profiles[name] for name, count in SHOW_FLOOR_MIX for _ in range(count)]
        self.deck: List[Any] = []
        self.present: Deque[Any] = deque()
        self.holders = 0

    def _refill(self) -> None:
        fresh = list(self.cards)
        self.rng.shuffle(fresh)
        self.deck = fresh + self.deck  # cards are drawn from the end

    def arrive(self) -> Any:
        if not self.deck:
            self._refill()
        pick = len(self.deck) - 1
        if takes_pool_address(self.deck[pick]) and self.holders >= POOL_CAP:
            while True:
                free = [i for i, p in enumerate(self.deck) if not takes_pool_address(p)]
                if free:
                    pick = free[-1]
                    break
                self._refill()
        profile = self.deck.pop(pick)
        self.present.append(profile)
        self.holders += takes_pool_address(profile)
        return profile

    def depart(self) -> None:
        self.holders -= takes_pool_address(self.present.popleft())


class ShowFloor(Workload):
    name = "show_floor"

    def setup(self) -> None:
        from repro.clients import profiles

        self.profiles = {name: getattr(profiles, name) for name, _count in SHOW_FLOOR_MIX}
        self.standing = STANDING
        self.tuples: Dict[str, List[Any]] = {}
        self.open_day(self.seed)

    def open_day(self, seed: int) -> None:
        from repro.core import testbed

        if getattr(self, "testbed", None) is not None:
            add_counters(self.out.counters, testbed_counters(self.testbed))
            # The floor closes for the night: free the last day's testbed
            # (it holds reference cycles) so peak RSS is one day's.
            self.testbed = None
            self.present = deque()
            gc.collect()
        self.plan = ArrivalPlan(seed, self.profiles)
        self.testbed = testbed.Testbed(testbed.TestbedConfig(seed=seed))
        self.present: Deque[Any] = deque()

    def session(self, index: int) -> Tuple[Any, List[Any]]:
        """One attendee joins, probes, fetches both sites; the oldest leaves."""
        from repro.services import captive

        tb = self.testbed
        profile = self.plan.arrive()
        # The same badges return each day, so a faster run meets no more
        # distinct hosts (and fills no more of the program's caches).
        client = tb.add_client(profile, f"attendee-{index % DAY_SESSIONS}")
        probe = captive.connectivity_probe(client)
        web = client.fetch(WEB_SITE)
        mirror = client.fetch(MIRROR_SITE)
        self.present.append(client)
        if len(self.present) > self.standing:
            self.present.popleft().disconnect()
            self.plan.depart()
        host = client.host
        session = [
            profile.name,
            host.ipv4_config is not None,
            host.v6only_wait is not None,
            probe.outcome.value,
            web.landed_on,
            web.family,
            mirror.landed_on,
            mirror.family,
        ]
        return client, session

    def op(self, index: int) -> int:
        if index and index % DAY_SESSIONS == 0:
            self.open_day(self.seed + 7919 * (index // DAY_SESSIONS))
        client, session = self.session(index)
        name, has_lease, v6only, _probe, web_on, _web_family, mirror_on, _ = session
        if self.capturing:
            seen = self.tuples.setdefault(name, session)
            self.expect(seen == session, f"{name}: sessions differ {seen} vs {session}")
        else:
            expected = self.reference["sessions"].get(name)
            if not self.expect(session == expected, f"session {index}: {session} != {expected}"):
                return 1
        # The paper's invariants, observed from outside.
        has_v6 = bool(client.host.ipv6_global_addresses())
        if has_lease and not has_v6:
            self.expect(web_on == "ip6.me", f"session {index}: IPv4-only {name} not intervened")
        if v6only:
            lease = self.testbed.dhcp_server.leases.get(client.host.mac)
            self.expect(
                not has_lease and (lease is None or lease.granted_v6only),
                f"session {index}: option-108 {name} holds a pool address",
            )
        if has_lease and has_v6:
            self.expect(
                web_on != "ip6.me" and mirror_on != "ip6.me",
                f"session {index}: dual-stack {name} intervened",
            )
        if index + 1 == SHOW_FLOOR_CHECKPOINT:
            self.out.checkpoint = testbed_counters(self.testbed)
            self.check_counters(
                "checkpoint",
                self.out.checkpoint,
                self.reference.get("checkpoint") if self.reference_exact else None,
            )
        return 1

    def close(self) -> None:
        add_counters(self.out.counters, testbed_counters(self.testbed))
        self.testbed = None
        if self.capturing:
            self.out.capture = {"sessions": self.tuples, "checkpoint": self.out.checkpoint}

    def scaling_curve(
        self, timer: Callable[[Callable[[], None]], float]
    ) -> Dict[str, Dict[str, float]]:
        """Op cost and switch fan-out at each number of attendees present.

        A fresh floor fills to each point, then runs sessions with the
        oldest attendee leaving after each join, so the number present
        holds at the point while they are timed.  ``timer(thunk)`` runs
        one session and returns its time in seconds.
        """
        self.open_day(self.seed + 1)
        curve: Dict[str, Dict[str, float]] = {}
        index = 0
        for point in SCALE_POINTS:
            self.standing = point
            while len(self.present) < point:
                self.scale_session(index)
                index += 1
            before = testbed_counters(self.testbed)
            times = []
            for _ in range(SCALE_SESSIONS):
                times.append(timer(functools.partial(self.scale_session, index)))
                index += 1
            after = testbed_counters(self.testbed)
            frames_in = after["switch.frames_in"] - before["switch.frames_in"]
            frames_out = after["switch.frames_out"] - before["switch.frames_out"]
            times.sort()
            curve[str(point)] = {
                "op_ms": 1000.0 * times[len(times) // 2],
                "fanout": frames_out / frames_in if frames_in else 0.0,
            }
        return curve

    def scale_session(self, index: int) -> None:
        """A session of the scaling curve, checked against the reference only
        (the curve's floor departs from the day's schedule)."""
        self.out.attempted += 1
        try:
            _client, session = self.session(index)
        except Exception as error:
            self.out.fail(f"scale session {index}: {type(error).__name__}: {error}")
            return
        expected = self.reference["sessions"].get(session[0])
        self.expect(session == expected, f"scale session {index}: {session} != {expected}")


# ---------------------------------------------------------------------------
# device_lab
# ---------------------------------------------------------------------------

#: The tables of one device-lab cycle, in order.
LAB_TABLES = (
    "matrix.poison",
    "matrix.rpz",
    "matrix.off",
    "matrix.no108",
    "scores.ip6.me",
    "scores.test-ipv6.com",
    "nslookup.vpn.anl.gov",
)

_ROW = re.compile(
    r"^(?P<profile>.+?)\s+v4=(?P<v4>\w+)\s+opt108=(?P<opt108>\w+)\s+v6=(?P<v6>\w+)\s+"
    r"clat=\w+\s+probe=\S+\s+browse→(?P<landed>\S+)\s.*intervened=(?P<intervened>\w+)$"
)


class DeviceLab(Workload):
    name = "device_lab"

    def __init__(self, seed: int, capture: bool = False, jobs: Optional[int] = None) -> None:
        super().__init__(seed, capture)
        self.jobs = LAB_JOBS if jobs is None else jobs
        self.rng = random.Random(seed)
        self.config_seed = 0
        self.tables: Dict[str, str] = {}
        #: Shard totals the executor reported for matrix tables; they
        #: depend on the shard geometry, so they are kept per ``jobs``.
        self.shard_counters: Dict[str, int] = {}

    def setup(self) -> None:
        from repro.parallel import SweepExecutor

        self.executor = SweepExecutor(jobs=self.jobs)

    def table(self, kind: str) -> Tuple[str, Dict[str, int]]:
        from repro.analysis import matrix
        from repro.clients.profiles import ALL_PROFILES
        from repro.core import scoring
        from repro.core import testbed as tbmod
        from repro.services import testipv6

        seed = self.config_seed
        if kind.startswith("matrix."):
            config = {
                "matrix.poison": tbmod.TestbedConfig(seed=seed),
                "matrix.rpz": tbmod.TestbedConfig(seed=seed, use_rpz=True),
                "matrix.off": tbmod.TestbedConfig(seed=seed, poisoned_dns=False),
                "matrix.no108": tbmod.TestbedConfig(seed=seed, option_108=False),
            }[kind]
            text = matrix.run_device_matrix_table(config, executor=self.executor)
            stats = self.executor.last_stats
            return text, {
                "shards": len(stats.shards),
                "shard_events": stats.total_events,
                "shard_queries": stats.total_queries,
            }
        if kind.startswith("scores."):
            target = kind[len("scores."):]
            tb = tbmod.Testbed(tbmod.TestbedConfig(seed=seed, poison_target=target))
            context = tb.scoring_context()
            lines = [f"{'device':30s} {'stock':>7s} {'fixed':>7s}  classification"]
            for index, profile in enumerate(ALL_PROFILES):
                client = tb.add_client(profile, f"dev-{index}")
                report = testipv6.run_test_ipv6(client, tb.mirror)
                stock = scoring.score_stock(report)
                fixed = scoring.score_rfc8925_aware(report, context)
                lines.append(
                    f"{profile.name:30s} {stock.score:>4d}/10 {fixed.score:>4d}/10  "
                    f"{fixed.classified_as}"
                )
            return "\n".join(lines), testbed_counters(tb)
        tb = tbmod.Testbed(tbmod.TestbedConfig(seed=seed))
        lines = []
        for index, profile in enumerate(ALL_PROFILES):
            client = tb.add_client(profile, f"dev-{index}")
            result = client.nslookup("vpn.anl.gov")
            answers = ",".join(str(a) for a in result.addresses())
            lines.append(f"{profile.name:30s} {result.queried_name} rcode={result.rcode} {answers}")
        return "\n".join(lines), testbed_counters(tb)

    def op(self, index: int) -> int:
        kind = LAB_TABLES[index % len(LAB_TABLES)]
        if kind == LAB_TABLES[0]:
            self.config_seed = self.rng.randrange(1 << 31)
        text, counters = self.table(kind)
        if kind.startswith("matrix."):
            add_counters(self.shard_counters, counters)
        else:
            add_counters(self.out.counters, counters)
        if self.capturing:
            self.tables.setdefault(kind, text)
            self.expect(self.tables[kind] == text, f"{kind}: table differs between cycles")
        else:
            expected = self.reference["tables"][kind]
            if not self.expect(text == expected, f"op {index}: {kind} table != reference"):
                return 1
        if kind.startswith("matrix."):
            self.check_matrix(index, kind, text)
        if index + 1 == len(LAB_TABLES):
            self.out.checkpoint = dict(self.out.counters)
            self.check_counters("cycle", self.out.checkpoint, self.reference.get("checkpoint"))
        return 1

    def check_matrix(self, index: int, kind: str, text: str) -> None:
        """The paper's invariants on every row of a matrix table."""
        intervention = kind in ("matrix.poison", "matrix.rpz", "matrix.no108")
        for line in text.splitlines():
            row = _ROW.match(line)
            if not self.expect(row is not None, f"op {index}: unparsed row {line!r}"):
                continue
            v4, v6 = row["v4"] == "True", row["v6"] == "True"
            if v4 and not v6 and intervention:
                self.expect(row["landed"] == "ip6.me", f"op {index}: IPv4-only not intervened")
            if row["opt108"] == "True":
                self.expect(not v4, f"op {index}: option-108 device holds a pool address")
            if v4 and v6:
                self.expect(row["intervened"] == "False", f"op {index}: dual-stack intervened")

    def close(self) -> None:
        self.executor.close()
        if self.capturing:
            self.out.capture = {"tables": self.tables, "checkpoint": self.out.checkpoint}


# ---------------------------------------------------------------------------
# fleet_trajectory
# ---------------------------------------------------------------------------


class FleetTrajectory(Workload):
    name = "fleet_trajectory"

    def __init__(self, seed: int, capture: bool = False, jobs: Optional[int] = None) -> None:
        super().__init__(seed, capture)
        self.jobs = FLEET_JOBS if jobs is None else jobs
        self.stages = 0

    def setup(self) -> None:
        from tracer import Tracer

        # Calibration builds its testbeds inside the CLI; collect them as
        # they are built so their public counters can be read after.
        self.built: List[Any] = []
        self.registry = Tracer(probes=(("core.testbed", "repro.core.testbed.Testbed.__init__"),))
        self.registry.after["core.testbed"] = lambda args, _result: self.built.append(args[0])
        self.registry.install()

    def ops_per_op(self) -> int:
        return FLEET_DEVICES * max(self.stages, 1)

    def op(self, index: int) -> int:
        from repro import __main__ as cli

        self.built.clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["fleet", "--devices", str(FLEET_DEVICES), "--jobs", str(self.jobs)])
        table = stdout.getvalue()
        self.stages = max(len(table.splitlines()) - 1, 1)
        ops = self.ops_per_op()
        counters: Dict[str, int] = {}
        for testbed in self.built:
            add_counters(counters, testbed_counters(testbed))
        self.built.clear()
        add_counters(self.out.counters, counters)
        if self.capturing:
            self.out.capture = {"table": table, "checkpoint": counters}
            return ops
        if not self.expect(code == 0, f"op {index}: fleet exited {code}", ops):
            return ops
        if not self.expect(table == self.reference["table"], f"op {index}: table != reference", ops):
            return ops
        if index == 0:
            self.out.checkpoint = counters
        self.check_counters(f"op {index}", counters, self.reference.get("checkpoint"))
        return ops

    def close(self) -> None:
        self.registry.uninstall()


WORKLOADS = {w.name: w for w in (ShowFloor, DeviceLab, FleetTrajectory)}
