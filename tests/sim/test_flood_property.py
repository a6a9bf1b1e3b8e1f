"""Property tests for the switch flood.

A flood delivers one frame to every other port of a switch through one
engine event per egress latency, with one shared frame view.  Its
contract is observable equivalence with the per-port loop it replaced,
which called :meth:`Port.transmit` on each egress port in turn: the
same trace records in the same order, the same per-port and per-link
counters, the same ``events_run``, the same neighbor and SLAAC state.

:class:`_PerPortSwitch` below *is* that loop.  Seeded random segments
(hosts and bare capture nodes, links down or unplugged, traced ports,
mixed latencies, several floods and unicasts landing in one tick) run
against both switches and every observation must match exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nd.ra import RaDaemonConfig
from repro.net.addresses import (
    IPv4Address,
    IPv4Network,
    IPv6Address,
    IPv6Network,
    link_local_from_mac,
    MAC_BROADCAST,
    MacAddress,
    multicast_mac_for_ipv6,
    solicited_node_multicast,
)
from repro.net.arp import ArpPacket
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.icmp import IcmpMessage
from repro.net.icmpv6 import encode_icmpv6, NeighborSolicitation, RouterSolicitation
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.udp import UdpDatagram
from repro.sim import iface
from repro.sim.engine import EventEngine
from repro.sim.host import Host
from repro.sim.node import connect, Node
from repro.sim.stack import Ipv4Config
from repro.sim.switch import ManagedSwitch
from repro.sim.trace import PacketTrace

NETWORK = IPv4Network("10.0.0.0/24")
NOBODY_V4 = IPv4Address("10.0.0.250")
ALL_ROUTERS = IPv6Address("ff02::2")
LATENCIES = (0.0, 0.0005, 0.001)
# Action times: several land on one tick, so floods and unicasts collide.
DELAYS = (0.0, 0.0, 0.0005, 0.001, 0.002)
KINDS = ("arp", "ns", "rs", "bcast", "ping", "unknown")


class _PerPortSwitch(ManagedSwitch):
    """The reference: a flood is one :meth:`Port.transmit` per port."""

    def _flood(self, frame_bytes, ingress):
        for out in self.ports.values():
            if out is not ingress:
                out.transmit(frame_bytes)


class _Capture(Node):
    """A bare node with no interface: floods reach it as plain bytes."""

    def __init__(self, engine, name, log):
        super().__init__(engine, name)
        self.log = log

    def on_frame(self, port, frame):
        self.log.append((self.engine.now, self.name, frame))


def _logged(log, name, engine, handler):
    def sink(frame, view=None):
        log.append((engine.now, name, frame))
        if view is None:
            handler(frame)
        else:
            handler(frame, view)

    return sink


def _host_ip(index):
    return IPv4Address(f"10.0.0.{index + 1}")


def _source_mac(index):
    return MacAddress(0x02_00_00_00_20_00 + index)


def _build(switch_cls, ports, ra_daemon, seed=7):
    engine = EventEngine(seed=seed)
    trace = PacketTrace(engine.clock)
    switch = switch_cls(engine)
    log = []
    nodes, links, hosts = [], [], {}
    for index, (kind, latency, up, traced) in enumerate(ports):
        switch_port = switch.add_port(f"p{index}")
        if traced:
            switch_port.trace = trace
        if kind == "unplugged":
            nodes.append(None)
            continue
        if kind == "host":
            node = Host(engine, f"h{index}", mac=MacAddress(0x02_00_00_00_10_00 + index))
            node.configure_ipv4(Ipv4Config(address=_host_ip(index), network=NETWORK))
            port = node.port("eth0")
            port.sink = _logged(log, node.name, engine, port.sink)
            port.view_sink = _logged(log, node.name, engine, port.view_sink)
            hosts[index] = node
        else:
            node = _Capture(engine, f"c{index}", log)
            port = node.add_port("eth0")
        if traced:
            port.trace = trace
        link = connect(engine, port, switch_port, latency=latency)
        if not up:
            link.disconnect()
        nodes.append(node)
        links.append(link)
    if ra_daemon:
        switch.enable_ra_daemon(
            RaDaemonConfig(prefixes=(IPv6Network("fd00:976a::/64"),), interval=1.0)
        )
    return engine, switch, trace, log, nodes, links, hosts


def _frame(kind, source, target, hosts):
    """One wire frame of ``kind`` sent by synthetic station ``source``."""
    mac = _source_mac(source)
    src_ip = IPv4Address(f"10.0.0.{200 + source}")
    target_host = hosts.get(target)
    if kind == "arp":
        ip = _host_ip(target) if target_host is not None else NOBODY_V4
        payload = ArpPacket.request(mac, src_ip, ip).encode()
        return EthernetFrame(MAC_BROADCAST, mac, EtherType.ARP, payload).encode()
    if kind in ("ns", "rs"):
        link_local = link_local_from_mac(mac)
        if kind == "ns":
            goal = (
                target_host.iface.link_local
                if target_host is not None
                else IPv6Address("fe80::dead")
            )
            group = solicited_node_multicast(goal)
            message = NeighborSolicitation(target=goal, source_lladdr=mac)
        else:
            group = ALL_ROUTERS
            message = RouterSolicitation(source_lladdr=mac)
        packet = IPv6Packet(
            src=link_local,
            dst=group,
            next_header=IPProto.ICMPV6,
            payload=encode_icmpv6(message, link_local, group),
            hop_limit=255,
        )
        return EthernetFrame(
            multicast_mac_for_ipv6(group), mac, EtherType.IPV6, packet.encode()
        ).encode()
    if kind == "bcast":
        src, dst = IPv4Address("0.0.0.0"), IPv4Address("255.255.255.255")
        datagram = UdpDatagram(68, 67, b"discover").encode(src, dst)
        packet = IPv4Packet(src=src, dst=dst, proto=IPProto.UDP, payload=datagram)
        return EthernetFrame(MAC_BROADCAST, mac, EtherType.IPV4, packet.encode()).encode()
    if kind == "ping":
        # Unicast to the target's MAC: forwarded once the switch has
        # learned it, flooded as unknown unicast before that.
        dst_mac = MacAddress(0x02_00_00_00_10_00 + target)
        dst_ip = _host_ip(target)
        packet = IPv4Packet(
            src=src_ip,
            dst=dst_ip,
            proto=IPProto.ICMP,
            payload=IcmpMessage.echo_request(source, target, b"ping").encode(),
        )
        return EthernetFrame(dst_mac, mac, EtherType.IPV4, packet.encode()).encode()
    # unknown unicast: a MAC no station has
    return EthernetFrame(
        MacAddress(0x02_00_00_00_30_00 + target), mac, EtherType.ARP, bytes(28)
    ).encode()


def _run(switch_cls, ports, actions, ra_daemon):
    engine, switch, trace, log, nodes, links, hosts = _build(switch_cls, ports, ra_daemon)
    count = len(ports)

    def inject(kind, ingress, target):
        frame = _frame(kind, ingress, target, hosts)
        switch.on_frame(switch.port(f"p{ingress}"), frame)

    for delay, ingress, kind, target in actions:
        engine.schedule(delay, inject, kind, ingress % count, target % count)
    engine.run_for(2.5)
    port_counts = {
        (node.name, port.name): (port.tx_frames, port.rx_frames)
        for node in [switch] + [n for n in nodes if n is not None]
        for port in node.ports.values()
    }
    neighbors = {
        host.name: (
            sorted((str(ip), str(mac)) for ip, mac in host.iface.v4_neighbors.items()),
            sorted((str(ip), str(mac)) for ip, mac in host.iface.v6_neighbors.items()),
            sorted(str(a) for a in host.iface.ipv6_addresses),
            sorted(str(p) for p in host.slaac.prefixes),
            host.slaac.ras_processed,
        )
        for host in hosts.values()
    }
    return {
        "trace": [(e.time, e.node, e.port, e.direction, e.frame) for e in trace.entries],
        "log": log,
        "ports": port_counts,
        "carried": [link.frames_carried for link in links],
        "events_run": engine.events_run,
        "neighbors": neighbors,
        "flooded": switch.flooded,
        "forwarded": switch.forwarded,
    }


port_spec = st.tuples(
    st.sampled_from(("host", "host", "capture", "unplugged")),
    st.sampled_from(LATENCIES),
    st.sampled_from((True, True, False)),  # link up
    st.booleans(),
)
action_spec = st.tuples(
    st.sampled_from(DELAYS),
    st.integers(0, 7),
    st.sampled_from(KINDS),
    st.integers(0, 7),
)


@given(
    ports=st.lists(port_spec, min_size=2, max_size=8),
    actions=st.lists(action_spec, min_size=1, max_size=10),
    ra_daemon=st.booleans(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_flood_matches_per_port_reference(ports, actions, ra_daemon):
    fused = _run(ManagedSwitch, ports, actions, ra_daemon)
    reference = _run(_PerPortSwitch, ports, actions, ra_daemon)
    for key in reference:
        assert fused[key] == reference[key], key


def test_two_floods_and_a_unicast_in_one_tick():
    # The case the property test samples, pinned: an RS flood, the RA it
    # triggers and a unicast to one flooded host all leave in one tick.
    ports = [("host", 0.0005, True, True)] * 3 + [("capture", 0.001, True, True)]
    actions = [
        (0.0, 3, "ping", 1),  # unknown unicast: floods, h1 replies via ARP
        (0.01, 1, "arp", 0),  # h0 answers, so the switch learns h0's port
        (0.02, 0, "rs", 2),  # RS flood, then the switch's RA flood
        (0.02, 2, "bcast", 0),
        (0.02, 3, "ping", 1),  # h1's MAC is known now: forwarded
    ]
    fused = _run(ManagedSwitch, ports, actions, True)
    reference = _run(_PerPortSwitch, ports, actions, True)
    assert fused == reference
    assert fused["flooded"] >= 3


class TestFloodEvents:
    def _segment(self, latencies):
        engine = EventEngine()
        switch = ManagedSwitch(engine)
        log = []
        nodes = []
        for index, latency in enumerate(latencies):
            node = _Capture(engine, f"c{index}", log)
            connect(engine, node.add_port("eth0"), switch.add_port(f"p{index}"), latency=latency)
            nodes.append(node)
        return engine, switch, log, nodes

    def test_one_engine_entry_per_egress_latency(self):
        engine, switch, log, _ = self._segment([0.0005, 0.0005, 0.001, 0.0005, 0.001])
        frame = _frame("unknown", 9, 1, {})
        switch.on_frame(switch.port("p0"), frame)
        assert engine.pending_events == 2
        engine.run_until_idle()
        assert [name for (_t, name, _f) in log] == ["c1", "c3", "c2", "c4"]
        assert engine.events_run == 4  # one per delivered frame

    def test_later_same_tick_frame_lands_right_after_the_flood_frame(self):
        engine, switch, log, _ = self._segment([0.0005] * 4)
        flooded = _frame("unknown", 9, 1, {})
        switch.on_frame(switch.port("p0"), flooded)
        switch.port("p2").transmit(b"unicast-after-flood")
        engine.run_until_idle()
        assert [(name, frame) for (_t, name, frame) in log] == [
            ("c1", flooded),
            ("c2", flooded),
            ("c2", b"unicast-after-flood"),
            ("c3", flooded),
        ]
        assert engine.events_run == 4

    def test_flooded_frame_is_decoded_once(self, monkeypatch):
        # Every host accepts the broadcast, but the flood's shared view
        # asks the decoder for its IPv4 packet once, for the first host.
        engine = EventEngine()
        switch = ManagedSwitch(engine)
        hosts = []
        for index, latency in enumerate([0.0005, 0.0005, 0.001, 0.0005]):
            host = Host(engine, f"h{index}")
            connect(engine, host.port("eth0"), switch.add_port(f"p{index}"), latency=latency)
            hosts.append(host)
        decodes = []
        decode = iface.decode_ipv4_cached

        def counting(data):
            decodes.append(data)
            return decode(data)

        monkeypatch.setattr(iface, "decode_ipv4_cached", counting)
        switch.on_frame(switch.add_port("p-in"), _frame("bcast", 5, 0, {}))
        engine.run_until_idle()
        assert [host.port("eth0").rx_frames for host in hosts] == [1, 1, 1, 1]
        assert len(decodes) == 1


class TestDownedPortCounters:
    def test_flood_counts_tx_on_down_and_unplugged_ports(self):
        # A flooded frame leaves every egress port, so each one counts
        # it, even when the cable is pulled or missing; only live links
        # carry it and only their far ends receive it.
        engine = EventEngine()
        switch = ManagedSwitch(engine)
        log = []
        live = _Capture(engine, "live", log)
        dead = _Capture(engine, "dead", log)
        connect(engine, live.add_port("eth0"), switch.add_port("p-live"))
        down = connect(engine, dead.add_port("eth0"), switch.add_port("p-down"))
        down.disconnect()
        switch.add_port("p-unplugged")
        ingress = switch.add_port("p-in")
        switch.on_frame(ingress, _frame("bcast", 5, 0, {}))
        engine.run_until_idle()
        assert {name: p.tx_frames for name, p in switch.ports.items()} == {
            "p-live": 1,
            "p-down": 1,
            "p-unplugged": 1,
            "p-in": 0,
        }
        assert down.frames_carried == 0
        assert dead.port().rx_frames == 0
        assert live.port().rx_frames == 1
        assert [name for (_t, name, _f) in log] == ["live"]
        assert engine.events_run == 1
