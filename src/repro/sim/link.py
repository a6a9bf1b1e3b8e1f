"""Point-to-point links between ports, and the switch flood.

A link delivers each transmitted frame to the far side after its
latency, via the event engine — in order, losslessly (the testbed is a
single switch fabric; loss behaviour is exercised explicitly by the
failure-injection tests instead).

Same-tick frames toward one endpoint coalesce into a single scheduled
drain.  Most ticks carry exactly one frame, so the first frame is
scheduled directly (no batch list); a same-tick follow-on *upgrades*
the still-pending engine entry in place — swapping its callback from
the single-frame deliverer to the batch drain and moving both frames
into a scratch list leased from the engine's slab pool.  The entry's
``(when, sequence)`` key never changes, so dispatch order is identical
to scheduling the batch up front.  The drain hands the whole batch to
:meth:`~repro.sim.node.Port.deliver_batch` and credits
``events_run`` with one event per frame, so event totals — and the
per-frame rx order the trace records — stay identical to the
one-event-per-frame engine.

:func:`flood` sends one frame out of many ports at once (a switch
flood).  Instead of one engine entry per egress port it opens one
:class:`FloodEvent` per distinct delivery time — one per egress
latency — that delivers to its receivers in port order, with the
frame's shared view, and credits ``events_run`` per receiver.  Each
lane the flood used points at the event as its open same-tick entry, so
a later frame toward a flooded peer in the same tick still lands right
after that peer's flood frame, exactly as the batch upgrade above
would have placed it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.engine import EventEngine

if TYPE_CHECKING:
    from repro.sim.node import Port

__all__ = ["Link", "FloodEvent", "flood"]


class _Lane:
    """One direction of a link: the far port and its open same-tick entry.

    ``entry`` is the pending engine entry opened on tick ``stamp``;
    ``seq`` is its sequence stamp at open time, the ABA guard against
    an entry that has fired and been recycled since.
    """

    __slots__ = ("peer", "entry", "seq", "stamp")

    def __init__(self) -> None:
        self.peer: Optional["Port"] = None
        self.entry: Optional[List[Any]] = None
        self.seq = -1
        self.stamp = -1.0


class Link:
    """A full-duplex cable between exactly two ports."""

    def __init__(self, engine: EventEngine, latency: float = 0.0005, name: str = "link") -> None:
        self.engine = engine
        self.latency = latency
        self.name = name
        self._a: Optional["Port"] = None
        self._b: Optional["Port"] = None
        self._to_a = _Lane()
        self._to_b = _Lane()
        self.frames_carried = 0
        self.up = True
        # Cached so entry upgrade can compare callbacks with ``is``.
        self._drain_cb = self._drain

    def attach(self, port: "Port") -> None:
        if self._a is None:
            self._a = self._to_a.peer = port
        elif self._b is None:
            self._b = self._to_b.peer = port
        else:
            raise RuntimeError(f"link {self.name} already has two endpoints")
        port._link = self

    def transmit(self, sender: "Port", frame: bytes) -> None:
        """Called by a port; schedules delivery at the far end."""
        if not self.up:
            return
        lane = self._to_b if sender is self._a else self._to_a
        peer = lane.peer
        if peer is None:
            return  # unplugged cable
        self.frames_carried += 1
        engine = self.engine
        if lane.stamp == engine._now and self._join(lane, peer, frame, None):
            return
        entry = engine.schedule(self.latency, peer.deliver_cb, frame)
        lane.entry = entry
        lane.seq = entry[1]
        lane.stamp = engine._now

    def _join(self, lane: _Lane, peer: "Port", frame: bytes, view: Any) -> bool:
        """Add ``frame`` to the lane's entry opened earlier this tick.

        Returns False when that entry is gone: it has fired (callback
        ``None``) or been recycled for another event (sequence moved).
        A flood event keeps ``view`` for the frame; a link batch carries
        bare frames, so there the receiver classifies it itself.
        """
        entry = lane.entry
        if entry is None or entry[1] != lane.seq:
            return False
        callback = entry[2]
        if callback is self._drain_cb:
            entry[3][1].append(frame)
            return True
        if callback is peer.deliver_cb:
            pool = self.engine.list_pool
            batch = pool.pop() if pool else []
            batch.append(entry[3][0])
            batch.append(frame)
            entry[2] = self._drain_cb
            entry[3] = (peer, batch)
            return True
        if callback is _run_flood:
            entry[3][0].follow(peer, frame, view)
            return True
        return False

    def _drain(self, peer: "Port", batch: List[bytes]) -> None:
        """Deliver one direction's multi-frame batch as a single event."""
        engine = self.engine
        engine.events_run += len(batch) - 1
        peer.deliver_batch(batch)
        batch.clear()
        engine.list_pool.append(batch)

    def disconnect(self) -> None:
        """Administratively down the link (cable pull)."""
        self.up = False

    def reconnect(self) -> None:
        self.up = True


class FloodEvent:
    """The receivers of one flood that share a delivery time.

    ``ports`` are the receiving (far-end) ports in egress-port order.
    ``later`` holds frames that joined a receiver's delivery after the
    flood in the same tick — a second flood, or a unicast — delivered
    right after that receiver's flood frame, each with its own view
    (``None`` for a unicast).
    """

    __slots__ = ("engine", "frame", "view", "ports", "later")

    def __init__(self, engine: EventEngine, frame: bytes, view: Any) -> None:
        self.engine = engine
        self.frame = frame
        self.view = view
        self.ports: List["Port"] = []
        self.later: Optional[Dict["Port", List[Tuple[bytes, Any]]]] = None

    def follow(self, port: "Port", frame: bytes, view: Any) -> None:
        if self.later is None:
            self.later = {}
        self.later.setdefault(port, []).append((frame, view))


def _run_flood(event: FloodEvent) -> None:
    """Deliver one flood event: one engine entry, one event per frame."""
    ports = event.ports
    later = event.later
    credit = len(ports) - 1
    if later is not None:
        credit += sum(len(queued) for queued in later.values())
    event.engine.events_run += credit
    frame = event.frame
    view = event.view
    for port in ports:
        port.receive(frame, view)
        if later is not None:
            for more, more_view in later.get(port, ()):
                port.receive(more, more_view)


def flood(
    engine: EventEngine,
    ports: Iterable["Port"],
    frame: bytes,
    ingress: Optional["Port"],
    view: Any,
) -> None:
    """Send ``frame`` out of every port in ``ports`` but ``ingress``.

    Observably the same as calling :meth:`Port.transmit` on each port
    in order: every egress port counts a transmitted frame and traces
    it, also when its link is down or unplugged (the frame is lost on
    the wire); each live link counts a carried frame; each receiver
    gets the frame after its link's latency, in port order.  A lane
    that already has a same-tick entry toward its peer appends the
    frame there, as :meth:`Link.transmit` would.  The rest share one
    :class:`FloodEvent` per delivery time, carrying ``view``, the
    frame's classification shared by all receivers.
    """
    now = engine._now
    # One event per delivery time, opened by its first receiver.
    events: Dict[float, Tuple[FloodEvent, List[Any]]] = {}
    for port in ports:
        if port is ingress:
            continue
        port.tx_frames += 1
        trace = port.trace
        if trace is not None:
            trace.record(port.node.name, port.name, "tx", frame)
        link = port._link
        if link is None or not link.up:
            continue
        lane = link._to_b if port is link._a else link._to_a
        peer = lane.peer
        if peer is None:
            continue
        link.frames_carried += 1
        if lane.stamp == now and link._join(lane, peer, frame, view):
            continue
        when = now + link.latency
        opened = events.get(when)
        if opened is None:
            event = FloodEvent(engine, frame, view)
            opened = events[when] = (event, engine.schedule(link.latency, _run_flood, event))
        opened[0].ports.append(peer)
        entry = opened[1]
        lane.entry = entry
        lane.seq = entry[1]
        lane.stamp = now
