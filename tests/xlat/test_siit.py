"""SIIT (RFC 7915) stateless translation."""

import pytest

from repro.net.addresses import IPv4Address, IPv6Address
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.icmpv6 import decode_icmpv6, Icmpv6Message, Icmpv6Type
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.xlat.siit import translate_v4_to_v6, translate_v6_to_v4, TranslationError

V4_SRC, V4_DST = IPv4Address("192.0.0.1"), IPv4Address("190.92.158.4")
V6_SRC = IPv6Address("2607:fb90:9bda:a425::10")
V6_DST = IPv6Address("64:ff9b::be5c:9e04")


class TestV4ToV6:
    def test_udp_checksum_recomputed(self):
        datagram = UdpDatagram(1234, 53, b"query")
        packet = IPv4Packet(V4_SRC, V4_DST, IPProto.UDP, datagram.encode(V4_SRC, V4_DST), ttl=57)
        translated = translate_v4_to_v6(packet, V6_SRC, V6_DST)
        assert translated.hop_limit == 57
        assert translated.next_header == IPProto.UDP
        # Decoding verifies the new pseudo-header checksum.
        decoded = UdpDatagram.decode(translated.payload, V6_SRC, V6_DST)
        assert decoded.payload == b"query"

    def test_tcp_checksum_recomputed(self):
        segment = TcpSegment(5000, 80, 1, 2, TcpFlags.SYN)
        packet = IPv4Packet(V4_SRC, V4_DST, IPProto.TCP, segment.encode(V4_SRC, V4_DST))
        translated = translate_v4_to_v6(packet, V6_SRC, V6_DST)
        decoded = TcpSegment.decode(translated.payload, V6_SRC, V6_DST)
        assert decoded.flags == TcpFlags.SYN

    def test_icmp_echo_becomes_icmpv6(self):
        echo = IcmpMessage.echo_request(7, 9, b"ping")
        packet = IPv4Packet(V4_SRC, V4_DST, IPProto.ICMP, echo.encode())
        translated = translate_v4_to_v6(packet, V6_SRC, V6_DST)
        assert translated.next_header == IPProto.ICMPV6
        decoded = decode_icmpv6(translated.payload, V6_SRC, V6_DST)
        assert decoded.icmp_type == Icmpv6Type.ECHO_REQUEST
        assert decoded.echo_ident == 7

    def test_icmp_unreachable_code_mapping(self):
        # Port unreachable (3) -> ICMPv6 code 4.
        unreachable = IcmpMessage(IcmpType.DEST_UNREACHABLE, 3, 0, b"")
        packet = IPv4Packet(V4_SRC, V4_DST, IPProto.ICMP, unreachable.encode())
        translated = translate_v4_to_v6(packet, V6_SRC, V6_DST)
        decoded = decode_icmpv6(translated.payload, V6_SRC, V6_DST)
        assert decoded.icmp_type == Icmpv6Type.DEST_UNREACHABLE
        assert decoded.code == 4

    def test_admin_prohibited_mapping(self):
        unreachable = IcmpMessage(IcmpType.DEST_UNREACHABLE, 13, 0, b"")
        packet = IPv4Packet(V4_SRC, V4_DST, IPProto.ICMP, unreachable.encode())
        translated = translate_v4_to_v6(packet, V6_SRC, V6_DST)
        decoded = decode_icmpv6(translated.payload, V6_SRC, V6_DST)
        assert decoded.code == 1

    def test_tos_copied_to_traffic_class(self):
        packet = IPv4Packet(V4_SRC, V4_DST, IPProto.UDP,
                            UdpDatagram(1, 2, b"").encode(V4_SRC, V4_DST), tos=0xB8)
        assert translate_v4_to_v6(packet, V6_SRC, V6_DST).traffic_class == 0xB8

    def test_unknown_protocol_raises(self):
        packet = IPv4Packet(V4_SRC, V4_DST, 47, b"gre")
        with pytest.raises(TranslationError):
            translate_v4_to_v6(packet, V6_SRC, V6_DST)


class TestV6ToV4:
    def test_udp_round_trip_through_both_directions(self):
        datagram = UdpDatagram(4321, 80, b"http-ish")
        packet6 = IPv6Packet(V6_SRC, V6_DST, IPProto.UDP,
                             datagram.encode(V6_SRC, V6_DST), hop_limit=60)
        packet4 = translate_v6_to_v4(packet6, V4_SRC, V4_DST)
        assert packet4.ttl == 60
        decoded = UdpDatagram.decode(packet4.payload, V4_SRC, V4_DST)
        assert decoded == datagram

    def test_icmpv6_echo_reply_mapping(self):
        reply = Icmpv6Message.echo_reply(1, 2, b"pong")
        from repro.net.icmpv6 import encode_icmpv6

        packet6 = IPv6Packet(V6_SRC, V6_DST, IPProto.ICMPV6,
                             encode_icmpv6(reply, V6_SRC, V6_DST))
        packet4 = translate_v6_to_v4(packet6, V4_SRC, V4_DST)
        decoded = IcmpMessage.decode(packet4.payload)
        assert decoded.icmp_type == IcmpType.ECHO_REPLY
        assert decoded.body == b"pong"

    def test_ndp_not_translated(self):
        from repro.net.icmpv6 import NeighborSolicitation, encode_icmpv6

        ns = NeighborSolicitation(target=V6_DST)
        packet6 = IPv6Packet(V6_SRC, V6_DST, IPProto.ICMPV6,
                             encode_icmpv6(ns, V6_SRC, V6_DST))
        with pytest.raises(TranslationError, match="single-link"):
            translate_v6_to_v4(packet6, V4_SRC, V4_DST)

    def test_unknown_next_header_raises(self):
        packet6 = IPv6Packet(V6_SRC, V6_DST, 43, b"routing-header")
        with pytest.raises(TranslationError):
            translate_v6_to_v4(packet6, V4_SRC, V4_DST)


class TestMalformedTransport:
    # A TCP header cut short and one with a 2-word data offset: the
    # decoder's ValueError surfaces as a translation drop.
    @pytest.mark.parametrize("payload", [bytes(10), bytes(12) + b"\x20" + bytes(7)])
    def test_undecodable_tcp_raises_translation_error(self, payload):
        with pytest.raises(TranslationError, match="malformed"):
            translate_v4_to_v6(IPv4Packet(V4_SRC, V4_DST, IPProto.TCP, payload), V6_SRC, V6_DST)
        with pytest.raises(TranslationError, match="malformed"):
            translate_v6_to_v4(IPv6Packet(V6_SRC, V6_DST, IPProto.TCP, payload), V4_SRC, V4_DST)

    def test_short_udp_raises_translation_error(self):
        with pytest.raises(TranslationError, match="malformed"):
            translate_v6_to_v4(IPv6Packet(V6_SRC, V6_DST, IPProto.UDP, b"\x00\x35"), V4_SRC, V4_DST)
