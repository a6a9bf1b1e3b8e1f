"""Nodes and ports: the simulator's device plumbing.

A :class:`Node` owns named :class:`Port` objects; a port transmits
frames onto its link and hands received frames to the node's
``on_frame(port, bytes)``.  Ports can mirror traffic into a
:class:`~repro.sim.trace.PacketTrace`.  A switch flood goes through
:func:`repro.sim.link.flood`, which does the bookkeeping of
:meth:`Port.transmit` inline for every egress port and delivers with
:meth:`Port.receive`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.engine import EventEngine
from repro.sim.link import Link
from repro.sim.trace import PacketTrace

__all__ = ["Port", "Node"]


class Port:
    """One network interface attachment point."""

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self._link: Optional[Link] = None
        self.trace: Optional[PacketTrace] = None
        #: Frames sent out of this port.  Counted also when the link is
        #: down or unplugged: the frame leaves the port and is lost on
        #: the wire, so a flood credits every egress port but the
        #: ingress one, live or not.
        self.tx_frames = 0
        #: Frames delivered to this port by its link.
        self.rx_frames = 0
        #: Fast delivery path: when the owning node's ``on_frame`` would
        #: only dispatch on the port to a fixed per-port handler (every
        #: :class:`~repro.sim.iface.L2Interface` owner), the handler is
        #: installed here and called directly with the frame bytes,
        #: skipping the ``on_frame`` trampoline.  ``None`` falls back to
        #: ``node.on_frame(port, frame)`` (the switch needs the port).
        self.sink: Optional[Callable[[bytes], None]] = None
        #: Identity-stable bound :meth:`deliver`, scheduled directly by
        #: the link for single-frame ticks (``port.deliver`` would mint
        #: a fresh bound method per access, defeating the link's ``is``
        #: check when it upgrades a pending delivery into a batch).
        self.deliver_cb: Callable[[bytes], None] = self.deliver
        #: Flood delivery, called as ``view_sink(frame, view)`` where
        #: ``view`` is the classification every receiver of the flood
        #: shares, or ``None`` for a frame that joined a flood delivery
        #: without one.  :class:`~repro.sim.iface.L2Interface` installs
        #: its ``handle_frame``; by default the view is dropped and the
        #: frame goes wherever :meth:`deliver` would send it.
        self.view_sink: Callable[[bytes, Any], None] = self._hand_off

    @property
    def connected(self) -> bool:
        return self._link is not None and self._link.up

    def transmit(self, frame: bytes) -> None:
        self.tx_frames += 1
        if self.trace is not None:
            self.trace.record(self.node.name, self.name, "tx", frame)
        if self._link is not None:
            self._link.transmit(self, frame)

    def deliver(self, frame: bytes) -> None:
        """Called by the link when a frame arrives."""
        self.rx_frames += 1
        if self.trace is not None:
            self.trace.record(self.node.name, self.name, "rx", frame)
        if self.sink is not None:
            self.sink(frame)
        else:
            self.node.on_frame(self, frame)

    def _hand_off(self, frame: bytes, view: Any) -> None:
        if self.sink is not None:
            self.sink(frame)
        else:
            self.node.on_frame(self, frame)

    def receive(self, frame: bytes, view: Any) -> None:
        """Deliver one frame of a flood event, with its shared view."""
        self.rx_frames += 1
        if self.trace is not None:
            self.trace.record(self.node.name, self.name, "rx", frame)
        self.view_sink(frame, view)

    def deliver_batch(self, frames) -> None:
        """Deliver a same-tick batch in transmit order (one link drain).

        Equivalent to calling :meth:`deliver` per frame, hoisting the
        trace/attribute lookups out of the per-frame loop.
        """
        self.rx_frames += len(frames)
        node = self.node
        trace = self.trace
        sink = self.sink
        if trace is not None:
            record = trace.record
            node_name = node.name
            name = self.name
            for frame in frames:
                record(node_name, name, "rx", frame)
                if sink is not None:
                    sink(frame)
                else:
                    node.on_frame(self, frame)
            return
        if sink is not None:
            for frame in frames:
                sink(frame)
            return
        on_frame = node.on_frame
        for frame in frames:
            on_frame(self, frame)


class Node:
    """Base class for every simulated device."""

    def __init__(self, engine: EventEngine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.ports: Dict[str, Port] = {}

    def add_port(self, name: str = "eth0") -> Port:
        if name in self.ports:
            raise ValueError(f"{self.name} already has port {name}")
        port = Port(self, name)
        self.ports[name] = port
        return port

    def port(self, name: str = "eth0") -> Port:
        return self.ports[name]

    def attach_trace(self, trace: PacketTrace) -> None:
        for port in self.ports.values():
            port.trace = trace

    def on_frame(self, port: Port, frame: bytes) -> None:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def connect(engine: EventEngine, a: Port, b: Port, latency: float = 0.0005) -> Link:
    """Wire two ports together with a new link."""
    link = Link(engine, latency, name=f"{a.node.name}:{a.name}--{b.node.name}:{b.name}")
    link.attach(a)
    link.attach(b)
    return link
