"""The managed switch: MAC learning, flooding, DHCP snooping and the
low-priority RA daemon — the two workarounds the paper's testbed needed
against the 5G gateway's limitations (§IV.A).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dhcp.snooping import DhcpSnooper, SnoopAction
from repro.nd.ra import RaDaemon, RaDaemonConfig
from repro.net.addresses import IPv6Address, link_local_from_mac, MacAddress, multicast_mac_for_ipv6
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.icmpv6 import encode_icmpv6
from repro.net.ipv4 import IPProto
from repro.net.ipv6 import IPv6Packet
from repro.net.lazy import LazyEthernetFrame

# Plain int for the raw-bytes ethertype test on the forwarding path.
_ETHERTYPE_IPV6 = int(EtherType.IPV6)
from repro.sim.engine import EventEngine
from repro.sim.iface import FrameView
from repro.sim.link import flood
from repro.sim.node import Node, Port

__all__ = ["ManagedSwitch"]

ALL_NODES = IPv6Address("ff02::1")


class ManagedSwitch(Node):
    """An L2 learning switch with two managed-plane features:

    - :attr:`snooper` — per-port DHCPv4 snooping (block the gateway's
      un-disableable DHCP pool);
    - :meth:`enable_ra_daemon` — emit RAs from the switch itself (the
      ``fd00:976a::/64`` low-priority advertisement that resurrects the
      dead ULA resolver addresses).
    """

    def __init__(
        self,
        engine: EventEngine,
        name: str = "switch",
        mac: Optional[MacAddress] = None,
    ) -> None:
        super().__init__(engine, name)
        #: Learned forwarding table, keyed by raw 6-byte MAC — frames are
        #: switched without ever constructing a :class:`MacAddress`.  The
        #: value is the :class:`Port` itself so forwarding needs no second
        #: name lookup and ingress filtering is an identity compare.
        self.mac_table: Dict[bytes, Port] = {}
        self.snooper = DhcpSnooper(enabled=False)
        self.mac = mac or MacAddress(0x02_00_00_00_00_01)
        self._mac_bytes = self.mac.to_bytes()
        self.link_local = link_local_from_mac(self.mac)
        self._ra_daemon: Optional[RaDaemon] = None
        self._ra_cancel = None
        self.flooded = 0
        self.forwarded = 0

    # -- forwarding --------------------------------------------------------------

    def on_frame(self, port: Port, frame_bytes: bytes) -> None:
        if len(frame_bytes) < LazyEthernetFrame.HEADER_LEN:
            return
        self.mac_table[frame_bytes[6:12]] = port
        # Frames are switched from raw bytes; a frame object is built
        # only when the snooping filter actually needs to classify one.
        snooper = self.snooper
        if (
            snooper.enabled
            and snooper.inspect(port.name, LazyEthernetFrame(frame_bytes))
            is SnoopAction.DROP
        ):
            return
        # The switch's RA daemon answers Router Solicitations promptly,
        # like any radvd/gateway would (the frame still floods below so
        # real routers on other ports see the RS too).
        if (
            self._ra_daemon is not None
            and frame_bytes[12] == 0x86  # inline IPv6 ethertype pre-filter:
            and frame_bytes[13] == 0xDD  # skips the probe call per v4/ARP frame
            and self._is_router_solicitation_raw(frame_bytes)
        ):
            self.engine.schedule(0.0, self._emit_ra)
        dst = frame_bytes[:6]
        if dst == self._mac_bytes:
            return  # addressed to the switch management plane itself
        if not dst[0] & 1:  # unicast (the I/G bit covers broadcast too)
            out_port = self.mac_table.get(dst)
            if out_port is not None and out_port is not port:
                self.forwarded += 1
                out_port.transmit(frame_bytes)
                return
        # Flood: broadcast, multicast and unknown unicast.
        self.flooded += 1
        self._flood(frame_bytes, port)

    def _flood(self, frame_bytes: bytes, ingress: Optional[Port]) -> None:
        """Send a frame out of every port but ``ingress``, as one flood:
        one engine event per egress latency, one shared frame view."""
        flood(self.engine, self.ports.values(), frame_bytes, ingress, FrameView(frame_bytes))

    # -- the RA workaround ----------------------------------------------------

    def enable_ra_daemon(self, config: RaDaemonConfig) -> RaDaemon:
        """Start advertising ``config`` from the switch's own MAC.

        RAs are flooded to all ports immediately and then every
        ``config.interval`` seconds.
        """
        self.disable_ra_daemon()
        self._ra_daemon = RaDaemon(config, self.mac)
        self._ra_cancel = self.engine.schedule_every(
            config.interval, self._emit_ra, immediate=True, coalesce="ra"
        )
        return self._ra_daemon

    def disable_ra_daemon(self) -> None:
        if self._ra_cancel is not None:
            self._ra_cancel()
            self._ra_cancel = None
        self._ra_daemon = None

    def _emit_ra(self) -> None:
        if self._ra_daemon is None:
            return
        ra = self._ra_daemon.build_ra()
        payload = encode_icmpv6(ra, self.link_local, ALL_NODES)
        packet = IPv6Packet(
            src=self.link_local,
            dst=ALL_NODES,
            next_header=IPProto.ICMPV6,
            payload=payload,
            hop_limit=255,
        )
        frame = EthernetFrame(
            dst=multicast_mac_for_ipv6(ALL_NODES),
            src=self.mac,
            ethertype=EtherType.IPV6,
            payload=packet.encode(),
        )
        self._flood(frame.encode(), None)

    @staticmethod
    def _is_router_solicitation_raw(frame_bytes: bytes) -> bool:
        """Byte-level RS check on the whole wire frame, no slicing."""
        if (frame_bytes[12] << 8) | frame_bytes[13] != _ETHERTYPE_IPV6:
            return False
        data = frame_bytes[LazyEthernetFrame.HEADER_LEN :]
        return ManagedSwitch._is_router_solicitation_payload(data)

    @staticmethod
    def _is_router_solicitation(frame: LazyEthernetFrame) -> bool:
        """Cheap byte-level check; equivalent to decoding the IPv6 packet
        and testing ``next_header == ICMPv6 and payload[0] == 133``, with
        the same validation the full decoder applies first."""
        if frame.ethertype != EtherType.IPV6:
            return False
        return ManagedSwitch._is_router_solicitation_payload(frame.payload)

    @staticmethod
    def _is_router_solicitation_payload(data: bytes) -> bool:
        # next_header first: TCP/UDP frames (the bulk of switch traffic)
        # exit on one byte compare before any length arithmetic.
        if (
            len(data) < IPv6Packet.HEADER_LEN
            or data[6] != IPProto.ICMPV6
            or data[0] >> 4 != 6
        ):
            return False
        payload_len = (data[4] << 8) | data[5]
        if len(data) < IPv6Packet.HEADER_LEN + payload_len:
            return False  # truncated: the full decoder would reject it
        return payload_len > 0 and data[IPv6Packet.HEADER_LEN] == 133

    @property
    def ra_daemon(self) -> Optional[RaDaemon]:
        return self._ra_daemon
