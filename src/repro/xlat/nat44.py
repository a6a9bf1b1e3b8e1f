"""Stateful NAT44 (NAPT, RFC 3022 style).

The 5G gateway performs carrier-style IPv4 NAT for legacy clients —
the connectivity the paper deliberately leaves working ("it is very
tempting to implement an access control list further blocking IPv4
internet access ... Argonne does not intend on further restricting IPv4
Internet access", §VI).  The Nintendo-Switch escape hatch of figure 6
(set a known-good DNS server and IPv4 works again) rides on this NAT.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro.net.addresses import IPv4Address
from repro.net.icmp import IcmpMessage
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram
from repro.xlat.siit import drops_malformed, TranslationError

__all__ = ["Nat44Session", "StatefulNat44"]

UDP_LIFETIME = 300
TCP_LIFETIME = 7440
ICMP_LIFETIME = 60


@dataclass
class Nat44Session:
    proto: int
    inside_addr: IPv4Address
    inside_port: int
    outside_port: int
    expires_at: float
    packets_out: int = 0
    packets_in: int = 0


class StatefulNat44:
    """A NAPT translating inside (private) flows to one public address."""

    def __init__(
        self,
        public_address: IPv4Address,
        clock: Callable[[], float],
        port_range: Tuple[int, int] = (32768, 65535),
    ) -> None:
        self.public_address = public_address
        self._clock = clock
        self.port_range = port_range
        self._by_inside: Dict[Tuple[int, IPv4Address, int], Nat44Session] = {}
        self._by_outside: Dict[Tuple[int, int], Nat44Session] = {}
        self._next_port = port_range[0]
        self.translated_out = 0
        self.translated_in = 0
        self.dropped = 0

    @drops_malformed
    def translate_out(self, packet: IPv4Packet) -> IPv4Packet:
        """Rewrite an outbound packet's source to the public address."""
        proto, inside_port, transport = self._flow_key(packet, outbound=True)
        session = self._lookup_or_create(proto, packet.src, inside_port)
        session.packets_out += 1
        self.translated_out += 1
        return self._rewrite(packet, session, outbound=True, transport=transport)

    @drops_malformed
    def translate_in(self, packet: IPv4Packet) -> IPv4Packet:
        """Rewrite a returning packet back to the inside host."""
        proto, outside_port, transport = self._flow_key(packet, outbound=False)
        session = self._by_outside.get((proto, outside_port))
        if session is None or session.expires_at <= self._clock():
            self.dropped += 1
            raise TranslationError(f"no NAT44 session for port {outside_port}/{proto}")
        session.packets_in += 1
        self.translated_in += 1
        return self._rewrite(packet, session, outbound=False, transport=transport)

    # -- internals -----------------------------------------------------------

    def _flow_key(self, packet: IPv4Packet, outbound: bool) -> Tuple[int, int, object]:
        """(proto, flow port, decoded transport) — the decoded object is
        threaded through to ``_rewrite`` so each packet is parsed once."""
        if packet.proto == IPProto.UDP:
            d = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
            return IPProto.UDP, (d.src_port if outbound else d.dst_port), d
        if packet.proto == IPProto.TCP:
            s = TcpSegment.decode(packet.payload, packet.src, packet.dst)
            return IPProto.TCP, (s.src_port if outbound else s.dst_port), s
        if packet.proto == IPProto.ICMP:
            m = IcmpMessage.decode(packet.payload)
            return IPProto.ICMP, m.echo_ident, m
        self.dropped += 1
        raise TranslationError(f"untrackable IPv4 protocol {packet.proto}")

    def _lookup_or_create(
        self, proto: int, inside_addr: IPv4Address, inside_port: int
    ) -> Nat44Session:
        now = self._clock()
        key = (proto, inside_addr, inside_port)
        session = self._by_inside.get(key)
        if session is not None and session.expires_at > now:
            session.expires_at = now + self._lifetime(proto)
            return session
        outside_port = self._allocate(proto, inside_port)
        session = Nat44Session(
            proto, inside_addr, inside_port, outside_port, now + self._lifetime(proto)
        )
        self._by_inside[key] = session
        self._by_outside[(proto, outside_port)] = session
        return session

    def _allocate(self, proto: int, preferred: int) -> int:
        lo, hi = self.port_range
        if lo <= preferred <= hi and (proto, preferred) not in self._by_outside:
            return preferred
        span = hi - lo + 1
        for offset in range(span):
            port = lo + (self._next_port - lo + offset) % span
            if (proto, port) not in self._by_outside:
                self._next_port = lo + (port - lo + 1) % span
                return port
        raise TranslationError("NAT44 port range exhausted")

    def _lifetime(self, proto: int) -> int:
        if proto == IPProto.TCP:
            return TCP_LIFETIME
        if proto == IPProto.UDP:
            return UDP_LIFETIME
        return ICMP_LIFETIME

    def _rewrite(
        self, packet: IPv4Packet, session: Nat44Session, outbound: bool, transport: object
    ) -> IPv4Packet:
        if outbound:
            new_src, new_dst = self.public_address, packet.dst
        else:
            new_src, new_dst = packet.src, session.inside_addr
        if packet.proto == IPProto.UDP:
            d = transport
            if outbound:
                d = UdpDatagram(session.outside_port, d.dst_port, d.payload)
            else:
                d = UdpDatagram(d.src_port, session.inside_port, d.payload)
            payload = d.encode(new_src, new_dst)
        elif packet.proto == IPProto.TCP:
            s = transport
            if outbound:
                s = TcpSegment(
                    session.outside_port, s.dst_port, s.seq, s.ack, s.flags, s.window, s.payload
                )
            else:
                s = TcpSegment(
                    s.src_port, session.inside_port, s.seq, s.ack, s.flags, s.window, s.payload
                )
            payload = s.encode(new_src, new_dst)
        else:  # ICMP echo
            m = transport
            ident = session.outside_port if outbound else session.inside_port
            m = IcmpMessage(
                m.icmp_type, m.code, ((ident & 0xFFFF) << 16) | m.echo_seq, m.body
            )
            payload = m.encode()
        # materialize(): lazy packet views are not dataclasses, so convert
        # before replace(); eager packets return themselves.
        return replace(packet.materialize(), src=new_src, dst=new_dst, payload=payload)

    @property
    def session_count(self) -> int:
        now = self._clock()
        return sum(1 for s in self._by_inside.values() if s.expires_at > now)
