"""The 5G mobile gateway model: every quirk from paper §IV.A."""

import pytest

from repro.net.addresses import embed_ipv4_in_nat64, IPv4Address, IPv6Address
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.sim.gateway5g import MobileGateway5G
from repro.sim.host import Host, ServerHost
from repro.sim.node import connect
from repro.sim.switch import ManagedSwitch


@pytest.fixture
def world(engine):
    """gateway + LAN switch + internet cloud with one dual web host."""
    gateway = MobileGateway5G(engine)
    lan = ManagedSwitch(engine, "lan")
    inet = ManagedSwitch(engine, "inet")
    connect(engine, gateway.port("lan"), lan.add_port("p-gw"))
    connect(engine, gateway.port("wan"), inet.add_port("p-gw"))
    web = ServerHost(
        engine,
        "web",
        ipv4=IPv4Address("190.92.158.4"),
        ipv6=IPv6Address("2600:1f18::4"),
        on_link_everything=True,
    )
    connect(engine, web.port("eth0"), inet.add_port("p-web"))
    client = Host(engine, "client")
    connect(engine, client.port("eth0"), lan.add_port("p-c"))
    engine.run_for(0.5)
    client.solicit_routers()
    engine.run_for(0.5)
    return engine, gateway, client, web


class TestQuirks:
    def test_ra_advertises_dead_ula_rdnss(self, world):
        """Figure 3: the RA's RDNSS values are fd00:976a::9/::10."""
        engine, gateway, client, web = world
        assert client.slaac.rdnss == [
            IPv6Address("fd00:976a::9"),
            IPv6Address("fd00:976a::10"),
        ]
        # ...and they are dead: nothing answers there.
        assert client.udp_exchange(IPv6Address("fd00:976a::9"), 53, b"q", timeout=0.5) is None

    def test_builtin_dhcp_ignores_option_108(self, world):
        engine, gateway, client, web = world
        result = client.run_dhcp(supports_option_108=True)
        assert result.v6only_wait is None
        assert result.address is not None
        assert result.dns_servers == [gateway.config.carrier_dns_v4]

    def test_slaac_gua_from_current_prefix(self, world):
        engine, gateway, client, web = world
        guas = [a for a in client.ipv6_global_addresses() if a in gateway.gua_prefix]
        assert guas

    def test_reboot_rotates_prefix(self, world):
        engine, gateway, client, web = world
        before = gateway.gua_prefix
        after = gateway.reboot()
        assert after != before
        engine.run_for(0.5)
        client.solicit_routers()
        engine.run_for(0.5)
        assert any(a in after for a in client.ipv6_global_addresses())

    def test_reboot_clears_nat_state(self, world):
        engine, gateway, client, web = world
        client.run_dhcp()
        client.ping(IPv4Address("190.92.158.4"))
        assert gateway.nat44.session_count >= 1
        gateway.reboot()
        assert gateway.nat44.session_count == 0


class TestForwarding:
    def test_nat44_path(self, world):
        engine, gateway, client, web = world
        client.run_dhcp()
        assert client.ping(IPv4Address("190.92.158.4")) is not None
        assert gateway.nat44.translated_out >= 1
        assert gateway.nat44.translated_in >= 1

    def test_nat64_path(self, world):
        engine, gateway, client, web = world
        target = embed_ipv4_in_nat64(IPv4Address("190.92.158.4"))
        assert client.ping(target) is not None
        assert gateway.nat64.translated_out >= 1

    def test_native_v6_path(self, world):
        engine, gateway, client, web = world
        assert client.ping(IPv6Address("2600:1f18::4")) is not None
        # Native v6 never touches the translators.
        assert gateway.nat64.translated_out == 0

    def test_ula_sourced_traffic_dropped_at_uplink(self, world):
        engine, gateway, client, web = world
        # Manufacture a ULA source by giving the client a fake ULA route:
        # the stack picks ULA sources only for ULA destinations, so send
        # to a ULA that is "routed" via the gateway — the gateway must
        # refuse it (BCP38-style).
        from repro.net.ipv6 import IPv6Packet
        from repro.net.ipv4 import IPProto
        from repro.net.icmpv6 import Icmpv6Message, encode_icmpv6

        src = IPv6Address("fd00:dead::1")
        dst = IPv6Address("2600:1f18::4")
        echo = Icmpv6Message.echo_request(1, 1)
        packet = IPv6Packet(src, dst, IPProto.ICMPV6, encode_icmpv6(echo, src, dst))
        client.iface.send_ipv6(packet, next_hop=gateway.lan_iface.link_local)
        engine.run_for(0.5)
        assert gateway.dropped_ula_uplink >= 1

    def test_gateway_answers_ping_on_lan_ip(self, world):
        engine, gateway, client, web = world
        client.run_dhcp()
        assert client.ping(gateway.config.lan_ipv4) is not None

    def test_tcp_through_nat44(self, world):
        engine, gateway, client, web = world
        client.run_dhcp()
        web.tcp_listen(80, lambda conn: conn.close())
        conn = client.tcp_connect(IPv4Address("190.92.158.4"), 80)
        assert conn is not None

    def test_udp_through_nat64(self, world):
        engine, gateway, client, web = world
        web.udp_serve(53, lambda payload, src, sport: b"resp")
        target = embed_ipv4_in_nat64(IPv4Address("190.92.158.4"))
        assert client.udp_exchange(target, 53, b"q") == b"resp"


# A TCP header cut short, and a full one whose data offset (2 words)
# is below the 5-word minimum: both make TcpSegment.decode raise.
TRUNCATED_TCP = bytes(10)
BAD_OFFSET_TCP = bytes(12) + b"\x20" + bytes(7)


def _frame(src_mac, dst_mac, packet):
    ethertype = EtherType.IPV4 if isinstance(packet, IPv4Packet) else EtherType.IPV6
    return EthernetFrame(dst_mac, src_mac, ethertype, packet.encode()).encode()


class TestMalformedTransport:
    """Transport headers that do not decode are counted translator drops
    on both sides of the gateway; they never escape ``run_until``."""

    @pytest.mark.parametrize("payload", [TRUNCATED_TCP, BAD_OFFSET_TCP])
    def test_lan_side_nat64_and_nat44(self, world, payload):
        engine, gateway, client, web = world
        v6 = IPv6Packet(
            src=client.iface.link_local,
            dst=embed_ipv4_in_nat64(IPv4Address("190.92.158.4")),
            next_header=IPProto.TCP,
            payload=payload,
        )
        v4 = IPv4Packet(
            src=IPv4Address("192.168.12.77"),
            dst=IPv4Address("190.92.158.4"),
            proto=IPProto.TCP,
            payload=payload,
        )
        lan_mac = gateway.lan_iface.mac
        client.port("eth0").transmit(_frame(client.mac, lan_mac, v6))
        client.port("eth0").transmit(_frame(client.mac, lan_mac, v4))
        engine.run_until(deadline=engine.now + 0.5)
        assert gateway.nat64.dropped == 1
        assert gateway.nat44.dropped == 1
        assert gateway.nat64.translated_out == gateway.nat44.translated_out == 0

    @pytest.mark.parametrize("payload", [TRUNCATED_TCP, BAD_OFFSET_TCP])
    def test_wan_side_nat64_and_nat44(self, world, payload):
        engine, gateway, client, web = world
        wan_mac = gateway.wan_iface.mac
        for public in (gateway.config.wan_ipv4_nat64, gateway.config.wan_ipv4_nat44):
            packet = IPv4Packet(
                src=IPv4Address("190.92.158.4"),
                dst=public,
                proto=IPProto.TCP,
                payload=payload,
            )
            web.port("eth0").transmit(_frame(web.mac, wan_mac, packet))
        engine.run_until(deadline=engine.now + 0.5)
        assert gateway.nat64.dropped == 1
        assert gateway.nat44.dropped == 1
        assert gateway.nat64.translated_in == gateway.nat44.translated_in == 0
