"""Layer tracing for the benchmark's traced run, from outside the program.

The tracer wraps public entry points of the simulator, resolved by
dotted name, and records a span around every call.  A probe whose name
no longer resolves (a module or method deleted by a later change) is
recorded as absent instead of failing the run, so the benchmark keeps
working while the code it observes is being simplified.

Spans nest: a span's parent is the probe span that was open when it
started, or the op span the workload opened.  Self time is a span's
duration minus the part of it its child spans cover.  Calls that share
the op id, name and parent are merged into one record holding the call
count, the first start, the last end, the summed duration and the summed
self time: a show-floor op crosses the L2 link thousands of times, and
one record per call would hold millions of records in memory.  Records
stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, dotted probe point).  Several points may share a span name;
#: a class method is wrapped on the class that defines the name.
PROBES: Tuple[Tuple[str, str], ...] = (
    ("sim.engine", "repro.sim.engine.EventEngine.run_until"),
    ("sim.l2.link", "repro.sim.link.Link.transmit"),
    ("sim.l2.switch", "repro.sim.switch.ManagedSwitch.on_frame"),
    ("sim.l3", "repro.sim.iface.L2Interface.handle_frame"),
    ("nd", "repro.nd.slaac.SlaacState.process_ra"),
    ("dhcp", "repro.dhcp.server.DhcpServer.handle_message"),
    ("dns.server", "repro.dns.server.DnsServer.handle_query"),
    ("dns.stub", "repro.dns.resolver.StubResolver.resolve"),
    ("core.poison", "repro.core.intervention.PoisonedDNSServer.respond"),
    ("core.poison", "repro.core.rpz.RPZPolicyServer.respond"),
    ("xlat", "repro.xlat.nat64.StatefulNAT64.translate_out"),
    ("xlat", "repro.xlat.nat64.StatefulNAT64.translate_in"),
    # Module-level functions are wrapped at the binding their callers
    # look up at call time, not where they are defined.
    ("services.http", "repro.clients.device.http_get"),
    ("services.test_ipv6", "repro.services.testipv6.run_test_ipv6"),
    ("clients.bring_up", "repro.clients.device.ClientDevice.bring_up"),
    ("clients.resolve", "repro.clients.device.ClientDevice.resolve_addresses"),
    ("clients.fetch", "repro.clients.device.ClientDevice.fetch"),
    ("core.testbed", "repro.core.testbed.Testbed.__init__"),
    ("clients.fleet.calibration", "repro.analysis.fleet.calibrate_profiles"),
    # The fleet command itself: its self time is the fleet analysis the
    # parent runs besides calibration, the executor's map and rendering,
    # whichever analysis path the command takes.
    ("analysis.fleet", "repro.__main__.cmd_fleet"),
    ("analysis.render", "repro.__main__.sweep_table"),
    ("parallel.map", "repro.parallel.executor.SweepExecutor.map"),
)


def resolve(dotted: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, current value)`` for a dotted name, or None.

    The owner is the module or class whose attribute gets replaced.  The
    longest importable module prefix is imported; the rest is walked
    with ``getattr``.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            if isinstance(owner, type):
                # Wrap where the method is defined, so subclasses that
                # inherit it are traced too, and restoring is exact.
                for klass in owner.__mro__:
                    if parts[-1] in vars(klass):
                        return klass, parts[-1], vars(klass)[parts[-1]]
                return None
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Wraps the probe points and aggregates the spans they record."""

    def __init__(self, probes: Tuple[Tuple[str, str], ...] = PROBES) -> None:
        self.probes = probes
        self.op_id = -1
        self.absent: List[str] = []
        #: Hooks called as ``hook(args, result)`` after a probe returns,
        #: keyed by span name (used to read public counters).
        self.after: Dict[str, Callable[[tuple, Any], None]] = {}
        # (op id, name, parent name) ->
        #     [count, first start, last end, total, self, outermost total]
        self._records: Dict[Tuple[int, str, str], List[float]] = {}
        self._depth: Dict[str, int] = {}
        self._stack: List[List[Any]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- probes --------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for span_name, dotted in self.probes:
            found = resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attribute, original = found
            try:
                setattr(owner, attribute, self._wrap(span_name, original))
            except (AttributeError, TypeError):  # e.g. a compiled class
                self.absent.append(dotted)
                continue
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        records = self._records
        depth = self._depth
        depth.setdefault(name, 0)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_name = parent[0]
                else:
                    parent_name = ""
                key = (tracer.op_id, name, parent_name)
                record = records.get(key)
                if record is None:
                    records[key] = [
                        1, start, end, duration, duration - frame[1], duration if outer else 0.0
                    ]
                else:
                    record[0] += 1
                    record[2] = end
                    record[3] += duration
                    record[4] += duration - frame[1]
                    if outer:
                        record[5] += duration
            hook = tracer.after.get(name)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- ops -----------------------------------------------------------------

    def op(self, op_id: int, name: str) -> "_OpSpan":
        """Context manager for the root span of one op."""
        return _OpSpan(self, op_id, name)

    # -- results -------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        return [
            {
                "op": op_id,
                "name": name,
                "parent": parent,
                "count": int(record[0]),
                "start": record[1],
                "end": record[2],
                "total_s": record[3],
                "self_s": record[4],
                "outermost_s": record[5],
            }
            for (op_id, name, parent), record in self._records.items()
        ]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, wall time inside and self time.

        ``total_s`` sums only the outermost span of each name, so a span
        re-entered below itself (the engine pumped again from inside a
        DNS forward) counts each wall-clock second once.
        """
        out: Dict[str, Dict[str, float]] = {}
        for (_op, name, _parent), record in self._records.items():
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += record[0]
            entry["total_s"] += record[5]
            entry["self_s"] += record[4]
        return out

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": self.absent, "spans": self.spans(), **extra}, handle)


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.op_id = op_id

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.op_id = self.op_id
        self.frame = [self.name, 0.0]
        tracer._stack.append(self.frame)
        self.start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        duration = end - self.start
        tracer._records[(self.op_id, self.name, "")] = [
            1, self.start, end, duration, duration - self.frame[1], duration
        ]
