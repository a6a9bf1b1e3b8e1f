"""The L2/L3 interface machinery shared by every IP-speaking node.

:class:`L2Interface` owns a port's MAC, the node's addresses on that
link, the ARP and NDP neighbor caches and the pending-packet queues
used while resolution is in flight.  Hosts, routers and the 5G gateway
all embed one per port, so neighbor behaviour (gleaning, solicited
replies, queue flush on resolution) is identical everywhere — as it is
across real stacks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Set

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
from repro.net.arp import ArpOp, ArpPacket
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.icmpv6 import (
    decode_icmpv6,
    encode_icmpv6,
    NeighborAdvertisement,
    NeighborSolicitation,
    RouterAdvertisement,
    RouterSolicitation,
)
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.lazy import decode_ipv4_cached, decode_ipv6_cached, LazyEthernetFrame, LazyIPv6Packet
from repro.sim.engine import EventEngine
from repro.sim.node import Port

__all__ = ["FrameView", "L2Interface"]

IPV4_BROADCAST = IPv4Address("255.255.255.255")
ALL_NODES_V6 = IPv6Address("ff02::1")
ALL_ROUTERS_V6 = IPv6Address("ff02::2")
UNSPECIFIED_V4 = IPv4Address("0.0.0.0")
UNSPECIFIED_V6 = IPv6Address("::")

#: How long to keep a packet queued awaiting neighbor resolution.
RESOLUTION_TIMEOUT = 3.0

# Plain ints for the per-frame dispatch (IntEnum __eq__ is measurably
# slower on the hot path).
_ETHERTYPE_ARP = int(EtherType.ARP)
_ETHERTYPE_IPV4 = int(EtherType.IPV4)
_ETHERTYPE_IPV6 = int(EtherType.IPV6)
_IPPROTO_ICMPV6 = int(IPProto.ICMPV6)

# Pre-encoded EtherType wire bytes, keyed by int (IntEnum keys hash the
# same), for the zero-object frame build in _send_frame.
_ETHERTYPE_WIRE = {int(et): int(et).to_bytes(2, "big") for et in EtherType}


@lru_cache(maxsize=None)
def _mac_wire(mac: MacAddress) -> bytes:
    """``mac.to_bytes()``, memoized — the destination-MAC population of
    a simulation is bounded by its host count."""
    return mac.to_bytes()


@lru_cache(maxsize=None)
def _mac_from_wire(raw: bytes) -> MacAddress:
    """The inverse of :func:`_mac_wire`, memoized for the same reason:
    source MACs on a link repeat constantly."""
    return MacAddress(int.from_bytes(raw, "big"))


#: Marks a :class:`FrameView` field not decoded yet (``None`` means
#: decoded and malformed).
_UNDECODED: Any = object()


class FrameView:
    """One frame's classification, shared by every receiver of a flood.

    A switch flood builds one view per flooded frame and delivers it
    with the bytes to each receiving interface.  The first receiver that
    accepts the frame decodes its L3 packet (for ICMPv6 also the
    message); the rest reuse them, so a frame flooded to a hundred hosts
    is classified once, not a hundred times.  The view lives only as
    long as its flood's engine events and nothing else holds it, so it
    adds no cache to the process.  A frame that arrives on its own gets
    a private view, and both paths run the same code.
    """

    __slots__ = ("raw", "_l3", "_message")

    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self._l3: Any = _UNDECODED
        self._message: Any = _UNDECODED

    def l3(self, decode: Callable[[bytes], Any]) -> Any:
        """``decode`` of the frame's payload, or ``None`` if it is malformed.

        A frame has one ethertype, so every receiver passes the same
        decoder and the first call's result serves them all.
        """
        packet = self._l3
        if packet is _UNDECODED:
            try:
                packet = decode(self.raw[14:])
            except ValueError:
                packet = None
            self._l3 = packet
        return packet

    def icmpv6(self, packet: LazyIPv6Packet) -> Any:
        """The decoded ICMPv6 message of ``packet`` (this frame's IPv6
        packet), or ``None`` if it is malformed."""
        message = self._message
        if message is _UNDECODED:
            try:
                message = decode_icmpv6(packet.payload, packet.src, packet.dst)
            except ValueError:
                message = None
            self._message = message
        return message


class L2Interface:
    """One attachment of a node to a link, with full neighbor handling.

    The owner registers callbacks:

    - ``on_ipv4(packet)`` / ``on_ipv6(packet)`` — a unicast/broadcast IP
      packet addressed *through* this interface arrived (the owner
      decides local-delivery vs forwarding);
    - ``on_ra(ra, source)`` — a Router Advertisement arrived (hosts feed
      SLAAC; routers ignore).
    """

    def __init__(
        self,
        engine: EventEngine,
        port: Port,
        mac: MacAddress,
        is_router: bool = False,
    ) -> None:
        self.engine = engine
        self.port = port
        self.mac = mac
        self._mac_bytes = mac.to_bytes()
        self.is_router = is_router
        self.link_local = link_local_from_mac(mac)
        self.ipv4_addresses: Set[IPv4Address] = set()
        self.ipv6_addresses: Set[IPv6Address] = {self.link_local}
        self.ipv4_prefixes: List[IPv4Network] = []
        self.ipv6_prefixes: List[IPv6Network] = []
        #: When True, any destination is treated as on-link — how we model
        #: the flat "internet exchange" cloud the public services sit on.
        self.on_link_everything = False
        #: Prefixes this interface answers NDP/ARP for on behalf of nodes
        #: behind it (the 5G gateway proxies its LAN prefix on the WAN).
        self.proxy_nd_prefixes: List[IPv6Network] = []
        self.proxy_arp_networks: List[IPv4Network] = []
        self.v4_neighbors: Dict[IPv4Address, MacAddress] = {}
        self.v6_neighbors: Dict[IPv6Address, MacAddress] = {}
        self._pending_v4: Dict[IPv4Address, List[bytes]] = {}
        self._pending_v6: Dict[IPv6Address, List[bytes]] = {}
        self.on_ipv4: Optional[Callable[[IPv4Packet], None]] = None
        self.on_ipv6: Optional[Callable[[IPv6Packet], None]] = None
        self.on_ra: Optional[Callable[[RouterAdvertisement, IPv6Address], None]] = None
        self.on_rs: Optional[Callable[[RouterSolicitation, IPv6Address], None]] = None
        self.arp_requests_sent = 0
        self.ns_sent = 0
        # Every L2Interface owner's on_frame is a pure per-port dispatch
        # to handle_frame, so deliveries can skip the trampoline.
        port.sink = self.handle_frame
        port.view_sink = self.handle_frame
        #: Unicast data-plane counters (broadcast/multicast excluded), the
        #: evidence base for the client census in :mod:`repro.core.metrics`.
        self.tx_ipv4_unicast = 0
        self.tx_ipv6_unicast = 0

    # -- address management ----------------------------------------------------

    def add_ipv4(self, address: IPv4Address, prefix: IPv4Network) -> None:
        self.ipv4_addresses.add(address)
        if prefix not in self.ipv4_prefixes:
            self.ipv4_prefixes.append(prefix)

    def remove_ipv4(self, address: IPv4Address) -> None:
        self.ipv4_addresses.discard(address)

    def clear_ipv4(self) -> None:
        self.ipv4_addresses.clear()
        self.ipv4_prefixes.clear()

    def add_ipv6(self, address: IPv6Address, prefix: Optional[IPv6Network] = None) -> None:
        self.ipv6_addresses.add(address)
        if prefix is not None and prefix not in self.ipv6_prefixes:
            self.ipv6_prefixes.append(prefix)

    def primary_ipv4(self) -> Optional[IPv4Address]:
        return next(iter(sorted(self.ipv4_addresses, key=int)), None)

    # -- frame intake -------------------------------------------------------------

    def accepts(self, frame: LazyEthernetFrame) -> bool:
        dst = frame.dst_bytes
        # The multicast I/G bit also covers broadcast (all-ones MAC).
        return dst == self._mac_bytes or bool(dst[0] & 1)

    def handle_frame(self, raw: bytes, view: Optional[FrameView] = None) -> None:
        """Receive one frame; ``view`` is its flood's shared view, if any.

        Only per-receiver work happens here: the accept filter, neighbor
        learning and the hand-off to NDP, SLAAC or the owner.  Decoding
        goes through the view, so flooded frames are decoded once.
        """
        # Accept filter straight off the wire — the multicast I/G bit
        # (which also covers broadcast) or our own MAC — then dispatch on
        # the ethertype bytes.  No frame object is ever built, and the
        # source MAC is only materialized when a neighbor is learned.
        if len(raw) < 14 or not (raw[0] & 1 or raw.startswith(self._mac_bytes)):
            return
        if view is None:
            view = FrameView(raw)
        ethertype = (raw[12] << 8) | raw[13]
        if ethertype == _ETHERTYPE_IPV4:
            self._handle_ipv4(view)
        elif ethertype == _ETHERTYPE_IPV6:
            self._handle_ipv6(view)
        elif ethertype == _ETHERTYPE_ARP:
            self._handle_arp(view)

    def _handle_arp(self, view: FrameView) -> None:
        arp = view.l3(ArpPacket.decode)
        if arp is None:
            return
        if arp.sender_ip != UNSPECIFIED_V4:
            self._learn_v4(arp.sender_ip, arp.sender_mac)
        if arp.op == ArpOp.REQUEST and (
            arp.target_ip in self.ipv4_addresses
            or any(arp.target_ip in net for net in self.proxy_arp_networks)
        ):
            reply = arp.reply_from(self.mac)
            self._send_frame(arp.sender_mac, EtherType.ARP, reply.encode())

    def _handle_ipv4(self, view: FrameView) -> None:
        packet = view.l3(decode_ipv4_cached)
        if packet is None:
            return
        raw = view.raw
        if packet.src != UNSPECIFIED_V4 and not raw[6] & 1:
            self._learn_v4(packet.src, _mac_from_wire(raw[6:12]))
        if self.on_ipv4 is not None:
            self.on_ipv4(packet)

    def _handle_ipv6(self, view: FrameView) -> None:
        packet = view.l3(decode_ipv6_cached)
        if packet is None:
            return
        src = packet.src
        if packet.next_header == _IPPROTO_ICMPV6 and self._handle_ndp(
            view.icmpv6(packet), src
        ):
            return
        if src != UNSPECIFIED_V6:
            self._learn_v6(src, _mac_from_wire(view.raw[6:12]))
        if self.on_ipv6 is not None:
            self.on_ipv6(packet)

    def _handle_ndp(self, message: Any, src: IPv6Address) -> bool:
        """Returns True when the message was NDP and fully consumed (a
        malformed message, ``None``, is consumed and dropped)."""
        if message is None:
            return True
        # Exact-type dispatch, ordered by observed frequency (periodic
        # RAs dominate the NDP stream): decode_icmpv6 constructs the
        # concrete classes directly, so no subclass check is needed.
        cls = type(message)
        if cls is RouterAdvertisement:
            if message.source_lladdr is not None:
                self._learn_v6(src, message.source_lladdr)
            if self.on_ra is not None:
                self.on_ra(message, src)
            return True
        if cls is NeighborSolicitation:
            if message.source_lladdr is not None and src != UNSPECIFIED_V6:
                self._learn_v6(src, message.source_lladdr)
            # Owned-target set hit first; the proxy-prefix containment
            # scan only runs for addresses this interface doesn't own.
            if message.target in self.ipv6_addresses or any(
                message.target in p for p in self.proxy_nd_prefixes
            ):
                self._send_na(message.target, src)
            return True
        if cls is NeighborAdvertisement:
            if message.target_lladdr is not None:
                self._learn_v6(message.target, message.target_lladdr)
            return True
        if cls is RouterSolicitation:
            if message.source_lladdr is not None and src != UNSPECIFIED_V6:
                self._learn_v6(src, message.source_lladdr)
            if self.on_rs is not None:
                self.on_rs(message, src)
            return True
        return False  # echo & errors flow up to the owner

    # -- learning and queue flush ----------------------------------------------

    def _learn_v4(self, address: IPv4Address, mac: MacAddress) -> None:
        self.v4_neighbors[address] = mac
        # The pending queues are almost always empty; the truthiness
        # check dodges a pop() per learned/refreshed neighbor.
        if self._pending_v4:
            pending = self._pending_v4.pop(address, None)
            if pending:
                for raw in pending:
                    self._send_frame(mac, EtherType.IPV4, raw)

    def _learn_v6(self, address: IPv6Address, mac: MacAddress) -> None:
        self.v6_neighbors[address] = mac
        if self._pending_v6:
            pending = self._pending_v6.pop(address, None)
            if pending:
                for raw in pending:
                    self._send_frame(mac, EtherType.IPV6, raw)

    # -- sending -----------------------------------------------------------------

    def _send_frame(self, dst: MacAddress, ethertype: int, payload: bytes) -> None:
        # Wire bytes built directly — identical to
        # ``EthernetFrame(...).encode()`` without the frozen-dataclass
        # construction on every transmitted frame.
        self.port.transmit(
            _mac_wire(dst) + self._mac_bytes + _ETHERTYPE_WIRE[ethertype] + payload
        )

    def on_link_v4(self, destination: IPv4Address) -> bool:
        if self.on_link_everything:
            return True
        return any(destination in prefix for prefix in self.ipv4_prefixes)

    def on_link_v6(self, destination: IPv6Address) -> bool:
        if destination.is_link_local or self.on_link_everything:
            return True
        return any(destination in prefix for prefix in self.ipv6_prefixes)

    def send_ipv4(self, packet: IPv4Packet, next_hop: Optional[IPv4Address] = None) -> None:
        """Transmit an IPv4 packet, resolving the next-hop MAC via ARP."""
        raw = packet.encode()
        if packet.dst == IPV4_BROADCAST or self._is_subnet_broadcast(packet.dst):
            self._send_frame(MAC_BROADCAST, EtherType.IPV4, raw)
            return
        self.tx_ipv4_unicast += 1
        hop = next_hop or packet.dst
        # EAFP: the neighbor table hits on every frame after the first.
        try:
            self._send_frame(self.v4_neighbors[hop], EtherType.IPV4, raw)
            return
        except KeyError:
            pass
        self._pending_v4.setdefault(hop, []).append(raw)
        self._arp_request(hop)
        # args-style scheduling: no closure allocation per unresolved packet.
        self.engine.schedule(RESOLUTION_TIMEOUT, self._expire_pending_v4, hop)

    def send_ipv6(self, packet: IPv6Packet, next_hop: Optional[IPv6Address] = None) -> None:
        """Transmit an IPv6 packet, resolving the next-hop MAC via NDP."""
        raw = packet.encode()
        if packet.dst.is_multicast:
            self._send_frame(multicast_mac_for_ipv6(packet.dst), EtherType.IPV6, raw)
            return
        self.tx_ipv6_unicast += 1
        hop = next_hop or packet.dst
        try:
            self._send_frame(self.v6_neighbors[hop], EtherType.IPV6, raw)
            return
        except KeyError:
            pass
        self._pending_v6.setdefault(hop, []).append(raw)
        self._neighbor_solicit(hop)
        self.engine.schedule(RESOLUTION_TIMEOUT, self._expire_pending_v6, hop)

    def _is_subnet_broadcast(self, address: IPv4Address) -> bool:
        return any(address == p.broadcast_address for p in self.ipv4_prefixes)

    def _arp_request(self, target: IPv4Address) -> None:
        sender_ip = self.primary_ipv4() or UNSPECIFIED_V4
        request = ArpPacket.request(self.mac, sender_ip, target)
        self.arp_requests_sent += 1
        self._send_frame(MAC_BROADCAST, EtherType.ARP, request.encode())

    def _neighbor_solicit(self, target: IPv6Address) -> None:
        group = solicited_node_multicast(target)
        ns = NeighborSolicitation(target=target, source_lladdr=self.mac)
        payload = encode_icmpv6(ns, self.link_local, group)
        packet = IPv6Packet(
            src=self.link_local,
            dst=group,
            next_header=IPProto.ICMPV6,
            payload=payload,
            hop_limit=255,
        )
        self.ns_sent += 1
        self._send_frame(multicast_mac_for_ipv6(group), EtherType.IPV6, packet.encode())

    def _send_na(self, target: IPv6Address, requester: IPv6Address) -> None:
        na = NeighborAdvertisement(
            target=target, router=self.is_router, target_lladdr=self.mac
        )
        dst = requester if requester != UNSPECIFIED_V6 else ALL_NODES_V6
        payload = encode_icmpv6(na, target, dst)
        packet = IPv6Packet(
            src=target, dst=dst, next_header=IPProto.ICMPV6, payload=payload, hop_limit=255
        )
        self.send_ipv6(packet)

    def _expire_pending_v4(self, hop: IPv4Address) -> None:
        if hop not in self.v4_neighbors:
            self._pending_v4.pop(hop, None)

    def _expire_pending_v6(self, hop: IPv6Address) -> None:
        if hop not in self.v6_neighbors:
            self._pending_v6.pop(hop, None)

    def send_router_solicitation(self) -> None:
        """Hosts send an RS on link-up to trigger immediate RAs."""
        rs = RouterSolicitation(source_lladdr=self.mac)
        payload = encode_icmpv6(rs, self.link_local, ALL_ROUTERS_V6)
        packet = IPv6Packet(
            src=self.link_local,
            dst=ALL_ROUTERS_V6,
            next_header=IPProto.ICMPV6,
            payload=payload,
            hop_limit=255,
        )
        self._send_frame(
            multicast_mac_for_ipv6(ALL_ROUTERS_V6), EtherType.IPV6, packet.encode()
        )
