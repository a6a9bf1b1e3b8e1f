"""The host network stack.

One :class:`HostStack` is a complete, minimal OS networking layer over a
single NIC:

- IPv4 configuration via the DHCP client (with RFC 8925 handling) or
  statically; IPv6 via SLAAC from received RAs;
- UDP sockets (datagram inbox + serve-callback styles), a TCP-lite
  client/server (handshake, in-order data, FIN/RST — no retransmission,
  links are lossless), ICMP echo;
- CLAT (464XLAT) plumbed into the IPv4 send/receive path when the stack
  runs IPv6-only, so IPv4-literal applications keep working;
- RFC 6724 source selection on every IPv6 send.

Client-style calls (``udp_exchange``, ``tcp_connect``, ``ping``,
``run_dhcp``) are *drivers*: they inject packets and pump the event
engine until a reply or a simulated timeout.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro._compat import slotted_dataclass
from repro.dhcp.client import DhcpClient, DhcpClientResult, DhcpClientState
from repro.nd.addrsel import select_source_address
from repro.nd.slaac import SlaacState
from repro.net.addresses import (
    IPv4Address,
    IPv4Network,
    IPv6Address,
    MacAddress,
    solicited_node_multicast,
)
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.icmpv6 import decode_icmpv6, encode_icmpv6, Icmpv6Message, Icmpv6Type
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet

# Plain ints for the per-packet protocol demux (IntEnum __eq__ is
# measurably slower on the hot path — see repro.sim.iface).
_IPPROTO_UDP = int(IPProto.UDP)
_IPPROTO_TCP = int(IPProto.TCP)
_IPPROTO_ICMP = int(IPProto.ICMP)
_IPPROTO_ICMPV6 = int(IPProto.ICMPV6)
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.sim.engine import EventEngine
from repro.sim.iface import ALL_NODES_V6, IPV4_BROADCAST, L2Interface, UNSPECIFIED_V4
from repro.sim.node import Node, Port
from repro.xlat.clat import Clat, ClatConfig
from repro.xlat.siit import TranslationError

__all__ = ["Ipv4Config", "StackConfig", "UdpSocket", "TcpConnection", "HostStack"]

AnyAddress = Union[IPv4Address, IPv6Address]

TCP_MSS = 1200

# Plain-int TCP flag masks — IntFlag's operators dispatch through the
# enum machinery, which is measurable in the per-segment hot path.
_TCP_FIN = int(TcpFlags.FIN)
_TCP_SYN = int(TcpFlags.SYN)
_TCP_RST = int(TcpFlags.RST)
_TCP_ACK = int(TcpFlags.ACK)
_TCP_ACK_ONLY = TcpFlags.ACK
_TCP_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK
_TCP_FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
_TCP_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_TCP_RST_ACK = TcpFlags.RST | TcpFlags.ACK


@slotted_dataclass()
class Ipv4Config:
    address: IPv4Address
    network: IPv4Network
    routers: List[IPv4Address] = field(default_factory=list)
    dns_servers: List[IPv4Address] = field(default_factory=list)
    domain_name: Optional[str] = None


@slotted_dataclass()
class StackConfig:
    """Static stack properties (the OS profile sets these)."""

    ipv6_enabled: bool = True
    ipv4_enabled: bool = True
    accept_ras: bool = True
    clat_capable: bool = False


class UdpSocket:
    """A bound UDP port with an inbox and an optional serve callback."""

    def __init__(self, stack: "HostStack", port: int) -> None:
        self.stack = stack
        self.port = port
        self.inbox: List[Tuple[AnyAddress, int, bytes]] = []
        #: Serve mode: ``handler(payload, src, sport)`` returns ``None``
        #: or a reply ``bytes`` (sent to the source) or an explicit
        #: ``(dst, dport, payload)`` tuple (DHCP replies to broadcast).
        self.handler: Optional[Callable] = None

    def send(self, dst: AnyAddress, dport: int, payload: bytes) -> None:
        self.stack.send_udp(self.port, dst, dport, payload)

    def close(self) -> None:
        self.stack._udp_sockets.pop(self.port, None)

    def _deliver(self, src: AnyAddress, sport: int, payload: bytes) -> None:
        if self.handler is not None:
            result = self.handler(payload, src, sport)
            if result is None:
                return
            if isinstance(result, tuple):
                dst, dport, data = result
                self.stack.send_udp(self.port, dst, dport, data)
            else:
                self.stack.send_udp(self.port, src, sport, result)
            return
        self.inbox.append((src, sport, payload))


class TcpConnection:
    """One TCP-lite connection endpoint."""

    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"

    def __init__(
        self,
        stack: "HostStack",
        local_addr: AnyAddress,
        local_port: int,
        remote_addr: AnyAddress,
        remote_port: int,
    ) -> None:
        self.stack = stack
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.state = self.CLOSED
        self.snd_nxt = stack.engine.rng.randrange(1 << 32)
        self.rcv_nxt = 0
        self.recv_buffer = bytearray()
        self.remote_closed = False
        self.refused = False
        self.on_data: Optional[Callable[["TcpConnection"], None]] = None
        self.on_close: Optional[Callable[["TcpConnection"], None]] = None

    # -- app API ------------------------------------------------------------

    def send(self, data: bytes) -> None:
        if self.state != self.ESTABLISHED:
            raise RuntimeError(f"send on {self.state} connection")
        for off in range(0, len(data), TCP_MSS):
            chunk = data[off : off + TCP_MSS]
            self._emit(_TCP_PSH_ACK, chunk)
            self.snd_nxt = (self.snd_nxt + len(chunk)) & 0xFFFFFFFF

    def close(self) -> None:
        if self.state in (self.ESTABLISHED, self.SYN_RCVD):
            self._emit(_TCP_FIN_ACK)
            self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF
            self.state = self.FIN_WAIT if not self.remote_closed else self.CLOSED
        else:
            self.state = self.CLOSED
        if self.state == self.CLOSED:
            self.stack._forget_connection(self)

    def read(self) -> bytes:
        data = bytes(self.recv_buffer)
        self.recv_buffer.clear()
        return data

    @property
    def is_open(self) -> bool:
        return self.state == self.ESTABLISHED

    # -- wire ------------------------------------------------------------------

    def _emit(self, flags: TcpFlags, payload: bytes = b"") -> None:
        segment = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_nxt,
            ack=self.rcv_nxt,
            flags=flags,
            payload=payload,
        )
        self.stack._send_tcp_segment(self.local_addr, self.remote_addr, segment)

    def _handle(self, segment: TcpSegment) -> None:
        flags = int(segment.flags)
        if flags & _TCP_RST:
            self.refused = self.state == self.SYN_SENT
            self.state = self.CLOSED
            self.remote_closed = True
            self.stack._forget_connection(self)
            if self.on_close:
                self.on_close(self)
            return
        if self.state == self.SYN_SENT and flags & _TCP_SYN:
            self.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
            self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF
            self.state = self.ESTABLISHED
            self._emit(_TCP_ACK_ONLY)
            return
        if self.state == self.SYN_RCVD and flags & _TCP_ACK and not segment.payload:
            self.state = self.ESTABLISHED
            listener = self.stack._tcp_listeners.get(self.local_port)
            if listener is not None:
                listener(self)
            if not segment.payload and not (flags & _TCP_FIN):
                return
        if segment.payload and segment.seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + len(segment.payload)) & 0xFFFFFFFF
            self.recv_buffer += segment.payload
            self._emit(_TCP_ACK_ONLY)
            if self.on_data:
                self.on_data(self)
        if flags & _TCP_FIN and segment.seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
            self.remote_closed = True
            self._emit(_TCP_ACK_ONLY)
            if self.state == self.FIN_WAIT:
                self.state = self.CLOSED
                self.stack._forget_connection(self)
            if self.on_close:
                self.on_close(self)


class HostStack(Node):
    """A single-homed host's complete network stack."""

    def __init__(
        self,
        engine: EventEngine,
        name: str,
        mac: MacAddress,
        config: Optional[StackConfig] = None,
    ) -> None:
        super().__init__(engine, name)
        self.config = config or StackConfig()
        self.mac = mac
        port = self.add_port("eth0")
        self.iface = L2Interface(engine, port, mac)
        self.iface.on_ipv4 = self._deliver_ipv4
        self.iface.on_ipv6 = self._deliver_ipv6
        self.iface.on_ra = self._on_ra
        self.slaac = SlaacState(mac, engine.clock)
        # (slaac epoch, configured-address count) as of the last RA
        # whose learned prefixes were applied; see _on_ra.
        self._ra_applied: Optional[Tuple[int, int]] = None
        self.ipv4_config: Optional[Ipv4Config] = None
        self.clat: Optional[Clat] = None
        self.v6only_wait: Optional[int] = None
        self.static_v6_default: Optional[IPv6Address] = None
        self._udp_sockets: Dict[int, UdpSocket] = {}
        self._tcp_listeners: Dict[int, Callable[[TcpConnection], None]] = {}
        # Keyed by the address *object* (local port, remote addr, remote
        # port): address hashes derive from the integer value, so the
        # lookup skips the ~6 µs IPv6 string formatting per segment that
        # a str-keyed table would pay, at identical semantics (v4/v6
        # objects never compare equal across families).
        self._tcp_conns: Dict[Tuple[int, AnyAddress, int], TcpConnection] = {}
        self._ephemeral = itertools.count(49152)
        self._ping_replies: Dict[Tuple[int, int], float] = {}
        self._ping_ident = itertools.count(0x0100)
        self.dhcp_client: Optional[DhcpClient] = None
        self._xid = itertools.count(0x10000 + (zlib.crc32(name.encode()) & 0xFFFF))

    # -- node plumbing -----------------------------------------------------------

    def on_frame(self, port: Port, frame: bytes) -> None:
        del port
        self.iface.handle_frame(frame)

    # -- IPv6 autoconfiguration --------------------------------------------------

    def _on_ra(self, ra, source: IPv6Address) -> None:
        if not self.config.ipv6_enabled or not self.config.accept_ras:
            return
        self.slaac.process_ra(ra, source)
        configured = self.iface.ipv6_addresses
        # A periodic refresh changes neither the learned-prefix set
        # (slaac epoch) nor the configured addresses — skip the apply
        # scan for it.  Either component changing forces a re-scan.
        state = (self.slaac.epoch, len(configured))
        if state == self._ra_applied:
            return
        for learned in self.slaac.prefixes.values():
            if learned.address is not None and learned.address not in configured:
                self.iface.add_ipv6(learned.address, learned.prefix)
        self._ra_applied = (self.slaac.epoch, len(configured))

    def solicit_routers(self) -> None:
        if self.config.ipv6_enabled:
            self.iface.send_router_solicitation()

    # -- IPv4 configuration ----------------------------------------------------

    def configure_ipv4(self, config: Ipv4Config) -> None:
        self.ipv4_config = config
        self.iface.add_ipv4(config.address, config.network)

    def deconfigure_ipv4(self) -> None:
        self.ipv4_config = None
        self.iface.clear_ipv4()

    def run_dhcp(
        self, supports_option_108: bool = False, collect_window: float = 0.25
    ) -> DhcpClientResult:
        """Run a full DORA exchange and apply the result to the stack."""
        if not self.config.ipv4_enabled and self.v6only_wait is None:
            return DhcpClientResult(DhcpClientState.FAILED)
        self.dhcp_client = DhcpClient(
            self.mac, supports_option_108, self._xid.__next__, name=f"{self.name}-dhcp"
        )
        sock = self.udp_open(68)
        try:
            def broadcast(payload: bytes) -> List[bytes]:
                sock.inbox.clear()
                self.send_udp(68, IPV4_BROADCAST, 67, payload)
                self.engine.run_for(collect_window)
                return [p for (_src, _sport, p) in sock.inbox]

            result = self.dhcp_client.run_exchange(broadcast)
        finally:
            sock.close()
        self._apply_dhcp(result)
        return result

    def _apply_dhcp(self, result: DhcpClientResult) -> None:
        if result.state is DhcpClientState.BOUND and result.address is not None:
            if self.clat is not None:
                # Native IPv4 is back (e.g. after V6ONLY_WAIT expired on
                # a network that stopped granting option 108): 464XLAT
                # stands down.
                self.clat.enabled = False
            self.v6only_wait = None
            netmask = result.netmask or IPv4Address("255.255.255.0")
            network = IPv4Network(f"{result.address}/{netmask}", strict=False)
            self.configure_ipv4(
                Ipv4Config(
                    address=result.address,
                    network=network,
                    routers=list(result.routers),
                    dns_servers=list(result.dns_servers),
                    domain_name=result.domain_name,
                )
            )
        elif result.state is DhcpClientState.V6ONLY:
            # RFC 8925: disable IPv4 for V6ONLY_WAIT; remember the DHCP
            # resolver/search info (used by OSes that keep an IPv4 DNS
            # server configured even while v6-only).
            self.v6only_wait = result.v6only_wait
            self.deconfigure_ipv4()
            self.ipv4_config = None
            self._dhcp_dns = list(result.dns_servers)
            if self.config.clat_capable:
                self.enable_clat()

    @property
    def dhcp_dns_servers(self) -> List[IPv4Address]:
        if self.ipv4_config is not None:
            return list(self.ipv4_config.dns_servers)
        return list(getattr(self, "_dhcp_dns", []))

    # -- CLAT -----------------------------------------------------------------

    def enable_clat(self, nat64_prefix=None) -> Optional[Clat]:
        """Start 464XLAT using a dedicated address under the first GUA
        prefix (interface-id perturbed so it differs from the SLAAC one)."""
        from repro.net.addresses import WELL_KNOWN_NAT64_PREFIX, eui64_interface_id, is_gua

        # Prefer a globally-routable prefix: CLAT flows must survive the
        # gateway's source-prefix check on the mobile uplink (ULA-sourced
        # traffic never leaves the LAN).
        prefix6 = None
        for learned in self.slaac.prefixes.values():
            if learned.address is None or learned.address.is_link_local:
                continue
            if is_gua(learned.address):
                prefix6 = learned.prefix
                break
            if prefix6 is None:
                prefix6 = learned.prefix
        if prefix6 is None:
            return None
        clat_ipv6 = IPv6Address(
            int(prefix6.network_address) | (eui64_interface_id(self.mac) ^ 0x1)
        )
        self.iface.add_ipv6(clat_ipv6, prefix6)
        self.clat = Clat(
            ClatConfig(
                nat64_prefix=nat64_prefix or WELL_KNOWN_NAT64_PREFIX,
                clat_ipv6=clat_ipv6,
            )
        )
        return self.clat

    # -- address/roving helpers ---------------------------------------------

    def ipv4_address(self) -> Optional[IPv4Address]:
        return self.ipv4_config.address if self.ipv4_config else None

    def ipv6_global_addresses(self) -> List[IPv6Address]:
        if not self.config.ipv6_enabled:
            return []
        return self.slaac.global_addresses()

    def all_addresses(self) -> List[AnyAddress]:
        out: List[AnyAddress] = []
        if self.config.ipv4_enabled and self.ipv4_config:
            out.append(self.ipv4_config.address)
        if self.config.ipv6_enabled:
            out.extend(self.slaac.addresses())
        return out

    def _source_for(self, dst: AnyAddress) -> Optional[AnyAddress]:
        if isinstance(dst, IPv4Address):
            if self.ipv4_config is not None:
                return self.ipv4_config.address
            return UNSPECIFIED_V4
        candidates: List[AnyAddress] = list(self.slaac.addresses())
        clat_addr = self.clat.config.clat_ipv6 if self.clat is not None else None
        extra = [
            a
            for a in self.iface.ipv6_addresses
            if a not in candidates and a != clat_addr
        ]
        candidates.extend(extra)
        candidates = [a for a in candidates if a != clat_addr]
        if not candidates:
            return None
        return select_source_address(dst, candidates)

    def _next_hop_v6(self, dst: IPv6Address) -> Optional[IPv6Address]:
        if self.iface.on_link_v6(dst):
            return dst
        if self.static_v6_default is not None:
            return self.static_v6_default
        router = self.slaac.default_router()
        return router.address if router is not None else None

    def _next_hop_v4(self, dst: IPv4Address) -> Optional[IPv4Address]:
        if dst == IPV4_BROADCAST or self.iface.on_link_v4(dst):
            return dst
        if self.ipv4_config and self.ipv4_config.routers:
            return self.ipv4_config.routers[0]
        return None

    # -- raw IP send ------------------------------------------------------------

    def send_ipv6_packet(self, packet: IPv6Packet) -> bool:
        next_hop = self._next_hop_v6(packet.dst)
        if next_hop is None and not packet.dst.is_multicast:
            return False
        self.iface.send_ipv6(packet, next_hop)
        return True

    def send_ipv4_packet(self, packet: IPv4Packet) -> bool:
        """Send an application IPv4 packet — through CLAT when v6-only."""
        if not self.config.ipv4_enabled or self.ipv4_config is None:
            if packet.dst == IPV4_BROADCAST or packet.src == UNSPECIFIED_V4:
                # DHCP bootstrapping traffic stays on the local link —
                # never through the CLAT — and is allowed without config
                # (that is how config is obtained) unless v4 is hard-off.
                if self.config.ipv4_enabled:
                    self.iface.send_ipv4(packet)
                    return True
                return False
            if self.clat is not None and self.clat.enabled:
                try:
                    translated = self.clat.outbound(packet)
                except TranslationError:
                    return False
                return self.send_ipv6_packet(translated)
            return False
        next_hop = self._next_hop_v4(packet.dst)
        if next_hop is None:
            return False
        self.iface.send_ipv4(packet, next_hop)
        return True

    # -- UDP ---------------------------------------------------------------------

    def udp_open(self, port: int = 0) -> UdpSocket:
        if port == 0:
            port = next(self._ephemeral) % 65536
        if port in self._udp_sockets:
            raise RuntimeError(f"UDP port {port} already bound on {self.name}")
        sock = UdpSocket(self, port)
        self._udp_sockets[port] = sock
        return sock

    def udp_serve(self, port: int, handler: Callable) -> UdpSocket:
        sock = self.udp_open(port)
        sock.handler = handler
        return sock

    def send_udp(self, src_port: int, dst: AnyAddress, dport: int, payload: bytes) -> bool:
        datagram = UdpDatagram(src_port, dport, payload)
        if isinstance(dst, IPv4Address):
            src = self._source_for(dst)
            if src is None:
                return False
            if (
                (not self.config.ipv4_enabled or self.ipv4_config is None)
                and self.clat is not None
                and self.clat.enabled
            ):
                # CLAT path: app sees the RFC 7335 address as its source.
                src = self.clat.config.clat_ipv4
            packet = IPv4Packet(
                src=src, dst=dst, proto=IPProto.UDP, payload=datagram.encode(src, dst)
            )
            return self.send_ipv4_packet(packet)
        src6 = self._source_for(dst)
        if src6 is None or not self.config.ipv6_enabled:
            return False
        packet = IPv6Packet(
            src=src6,
            dst=dst,
            next_header=IPProto.UDP,
            payload=datagram.encode(src6, dst),
        )
        return self.send_ipv6_packet(packet)

    def udp_exchange(
        self,
        dst: AnyAddress,
        dport: int,
        payload: bytes,
        timeout: float = 2.0,
    ) -> Optional[bytes]:
        """Send one datagram and wait (simulated) for the first reply."""
        sock = self.udp_open()
        try:
            if not self.send_udp(sock.port, dst, dport, payload):
                return None
            deadline = self.engine.now + timeout
            self.engine.run_until(lambda: bool(sock.inbox), deadline=deadline)
            if not sock.inbox:
                return None
            return sock.inbox[0][2]
        finally:
            sock.close()

    def dns_transport(self):
        """A :mod:`repro.dns.resolver` transport over this stack."""

        def transport(server: AnyAddress, wire: bytes, timeout: float) -> Optional[bytes]:
            return self.udp_exchange(server, 53, wire, timeout)

        return transport

    # -- TCP ---------------------------------------------------------------------

    def tcp_listen(self, port: int, on_establish: Callable[[TcpConnection], None]) -> None:
        self._tcp_listeners[port] = on_establish

    def tcp_connect_begin(self, dst: AnyAddress, dport: int) -> Optional[TcpConnection]:
        """Non-blocking active open: send the SYN and return immediately.

        The caller pumps the engine and watches ``conn.state`` — the
        building block the Happy-Eyeballs racer uses to run several
        attempts concurrently.  Returns ``None`` when no source/route
        exists for ``dst``.
        """
        src = self._effective_tcp_source(dst)
        if src is None:
            self.last_connect_error = "no route/source address"
            return None
        local_port = next(self._ephemeral) % 65536
        conn = TcpConnection(self, src, local_port, dst, dport)
        self._tcp_conns[(local_port, dst, dport)] = conn
        conn.state = TcpConnection.SYN_SENT
        conn._emit(TcpFlags.SYN)
        return conn

    def tcp_connect(
        self, dst: AnyAddress, dport: int, timeout: float = 3.0
    ) -> Optional[TcpConnection]:
        """Active open; pumps the engine until established or timeout.

        Returns ``None`` on timeout or RST (``conn.refused`` distinguishes
        them via the returned connection's attribute — ``None`` keeps the
        common API simple; inspect ``last_connect_error`` for detail).
        """
        conn = self.tcp_connect_begin(dst, dport)
        if conn is None:
            return None
        deadline = self.engine.now + timeout
        self.engine.run_until(
            lambda: conn.state == TcpConnection.ESTABLISHED or conn.state == TcpConnection.CLOSED,
            deadline=deadline,
        )
        if conn.state != TcpConnection.ESTABLISHED:
            self._forget_connection(conn)
            self.last_connect_error = "refused" if conn.refused else "timeout"
            return None
        self.last_connect_error = None
        return conn

    def _effective_tcp_source(self, dst: AnyAddress) -> Optional[AnyAddress]:
        if isinstance(dst, IPv4Address):
            if (
                (not self.config.ipv4_enabled or self.ipv4_config is None)
                and self.clat is not None
                and self.clat.enabled
            ):
                return self.clat.config.clat_ipv4
            if self.ipv4_config is None or not self.config.ipv4_enabled:
                return None
            return self.ipv4_config.address
        if not self.config.ipv6_enabled:
            return None
        return self._source_for(dst)

    def _send_tcp_segment(
        self, src: AnyAddress, dst: AnyAddress, segment: TcpSegment
    ) -> None:
        if isinstance(dst, IPv4Address):
            packet = IPv4Packet(
                src=src if isinstance(src, IPv4Address) else UNSPECIFIED_V4,
                dst=dst,
                proto=IPProto.TCP,
                payload=segment.encode(src, dst),
            )
            self.send_ipv4_packet(packet)
        else:
            packet = IPv6Packet(
                src=src,
                dst=dst,
                next_header=IPProto.TCP,
                payload=segment.encode(src, dst),
            )
            self.send_ipv6_packet(packet)

    def _forget_connection(self, conn: TcpConnection) -> None:
        self._tcp_conns.pop(
            (conn.local_port, conn.remote_addr, conn.remote_port), None
        )

    def _handle_tcp(self, src: AnyAddress, dst: AnyAddress, raw: bytes) -> None:
        try:
            segment = TcpSegment.decode(raw, src, dst)
        except ValueError:
            return
        key = (segment.dst_port, src, segment.src_port)
        conn = self._tcp_conns.get(key)
        if conn is not None:
            conn._handle(segment)
            return
        flags = int(segment.flags)
        if flags & _TCP_SYN and not flags & _TCP_ACK:
            listener = self._tcp_listeners.get(segment.dst_port)
            if listener is None:
                self._send_rst(dst, src, segment)
                return
            conn = TcpConnection(self, dst, segment.dst_port, src, segment.src_port)
            self._tcp_conns[key] = conn
            conn.state = TcpConnection.SYN_RCVD
            conn.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
            conn._emit(_TCP_SYN_ACK)
            conn.snd_nxt = (conn.snd_nxt + 1) & 0xFFFFFFFF
            return
        if not flags & _TCP_RST:
            self._send_rst(dst, src, segment)

    def _send_rst(self, src: AnyAddress, dst: AnyAddress, offending: TcpSegment) -> None:
        rst = TcpSegment(
            src_port=offending.dst_port,
            dst_port=offending.src_port,
            seq=offending.ack,
            ack=(offending.seq + 1) & 0xFFFFFFFF,
            flags=_TCP_RST_ACK,
        )
        self._send_tcp_segment(src, dst, rst)

    # -- ICMP ping -----------------------------------------------------------------

    def ping(
        self, dst: AnyAddress, timeout: float = 2.0, payload: bytes = b"v6shift-ping"
    ) -> Optional[float]:
        """Echo request/reply; returns the RTT in simulated seconds."""
        ident = next(self._ping_ident) & 0xFFFF
        seq = 1
        start = self.engine.now
        key = (ident, seq)
        if isinstance(dst, IPv4Address):
            message = IcmpMessage.echo_request(ident, seq, payload)
            packet = IPv4Packet(
                src=self.ipv4_address() or (self.clat.config.clat_ipv4 if self.clat else UNSPECIFIED_V4),
                dst=dst,
                proto=IPProto.ICMP,
                payload=message.encode(),
            )
            if not self.send_ipv4_packet(packet):
                return None
        else:
            src6 = self._source_for(dst)
            if src6 is None or not self.config.ipv6_enabled:
                return None
            message6 = Icmpv6Message.echo_request(ident, seq, payload)
            packet6 = IPv6Packet(
                src=src6,
                dst=dst,
                next_header=IPProto.ICMPV6,
                payload=encode_icmpv6(message6, src6, dst),
            )
            if not self.send_ipv6_packet(packet6):
                return None
        deadline = self.engine.now + timeout
        self.engine.run_until(lambda: key in self._ping_replies, deadline=deadline)
        reply_at = self._ping_replies.pop(key, None)
        if reply_at is None:
            return None
        return reply_at - start

    # -- local delivery ----------------------------------------------------------

    def _deliver_ipv4(self, packet: IPv4Packet) -> None:
        if not self.config.ipv4_enabled and self.clat is None:
            return
        # ``packet.dst`` is a lazy-decode property; one read serves the
        # whole locality check (this runs once per client per flooded
        # frame, so the DHCP join chatter multiplies every lookup here).
        dst = packet.dst
        addresses = self.iface.ipv4_addresses
        local = (
            dst in addresses
            or dst == IPV4_BROADCAST
            or self.iface._is_subnet_broadcast(dst)
            or not addresses  # DHCP bootstrap state
        )
        if not local:
            return
        if packet.proto == _IPPROTO_UDP:
            self._demux_udp(packet.payload, packet.src, dst)
            return
        self._demux_ipv4(packet)

    def _demux_udp(self, payload: bytes, src: AnyAddress, dst: AnyAddress) -> None:
        # The destination port is read off the wire before the datagram
        # is decoded: a datagram for a port nobody has bound is dropped
        # either way, and that is what every host but one does with a
        # flooded DHCP broadcast.
        if len(payload) < UdpDatagram.HEADER_LEN:
            return
        sock = self._udp_sockets.get((payload[2] << 8) | payload[3])
        if sock is None:
            return
        try:
            datagram = UdpDatagram.decode(payload, src, dst)
        except ValueError:
            return
        sock._deliver(src, datagram.src_port, datagram.payload)

    def _demux_ipv4(self, packet: IPv4Packet) -> None:
        if packet.proto == _IPPROTO_UDP:
            self._demux_udp(packet.payload, packet.src, packet.dst)
            return
        if packet.proto == _IPPROTO_TCP:
            self._handle_tcp(packet.src, packet.dst, packet.payload)
            return
        if packet.proto == _IPPROTO_ICMP:
            try:
                message = IcmpMessage.decode(packet.payload)
            except ValueError:
                return
            if message.icmp_type == IcmpType.ECHO_REQUEST:
                reply = IcmpMessage.echo_reply(
                    message.echo_ident, message.echo_seq, message.body
                )
                out = IPv4Packet(
                    src=packet.dst, dst=packet.src, proto=IPProto.ICMP, payload=reply.encode()
                )
                self.send_ipv4_packet(out)
            elif message.icmp_type == IcmpType.ECHO_REPLY:
                self._ping_replies[(message.echo_ident, message.echo_seq)] = self.engine.now

    def _deliver_ipv6(self, packet: IPv6Packet) -> None:
        if not self.config.ipv6_enabled:
            return
        dst = packet.dst
        addresses = self.iface.ipv6_addresses
        # Owned unicast is the common case; only fall back to the
        # multicast membership scan when the set lookup misses.
        if (
            dst not in addresses
            and dst != ALL_NODES_V6
            and not any(dst == solicited_node_multicast(a) for a in addresses)
        ):
            return
        if (
            self.clat is not None
            and self.clat.enabled
            and packet.dst == self.clat.config.clat_ipv6
        ):
            try:
                translated = self.clat.inbound(packet)
            except TranslationError:
                return
            self._demux_ipv4(translated)
            return
        if packet.next_header == _IPPROTO_UDP:
            self._demux_udp(packet.payload, packet.src, packet.dst)
            return
        if packet.next_header == _IPPROTO_TCP:
            self._handle_tcp(packet.src, packet.dst, packet.payload)
            return
        if packet.next_header == _IPPROTO_ICMPV6:
            try:
                message = decode_icmpv6(packet.payload, packet.src, packet.dst)
            except ValueError:
                return
            if not isinstance(message, Icmpv6Message):
                return
            if message.icmp_type == Icmpv6Type.ECHO_REQUEST:
                reply = Icmpv6Message.echo_reply(
                    message.echo_ident, message.echo_seq, message.body
                )
                out = IPv6Packet(
                    src=packet.dst,
                    dst=packet.src,
                    next_header=IPProto.ICMPV6,
                    payload=encode_icmpv6(reply, packet.dst, packet.src),
                )
                self.send_ipv6_packet(out)
            elif message.icmp_type == Icmpv6Type.ECHO_REPLY:
                self._ping_replies[(message.echo_ident, message.echo_seq)] = self.engine.now
