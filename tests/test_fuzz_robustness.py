"""Fuzz robustness: no component may crash on malformed input.

Servers face the network; the simulator's hosts face whatever a buggy
peer emits.  Every handler must drop garbage, never raise.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.profiles import ALL_PROFILES
from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.core.testbed import build_testbed, TestbedConfig
from repro.dhcp.server import DhcpPool, DhcpServer
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address
from repro.sim.engine import EventEngine
from repro.sim.host import Host, ServerHost
from repro.sim.node import connect
from repro.sim.switch import ManagedSwitch
from repro.xlat.dns64 import DNS64Resolver

garbage = st.binary(min_size=0, max_size=600)


def make_dns_targets():
    zone = Zone("fuzz.test")
    zone.add_a("web.fuzz.test", "192.0.2.1")
    upstream = DNS64Resolver([zone])
    poison = IPv4Address("23.153.8.71")
    return [
        upstream,
        PoisonedDNSServer(InterventionConfig(poison_address=poison), upstream.handle_query),
        RPZPolicyServer(RpzConfig(poison_address=poison), upstream.handle_query),
    ]


@given(data=garbage)
@settings(max_examples=200)
def test_dns_servers_never_crash(data):
    for server in make_dns_targets():
        result = server.handle_query(data)
        assert result is None or isinstance(result, bytes)


@given(data=garbage)
@settings(max_examples=200)
def test_dhcp_server_never_crashes(data):
    class Clock:
        def __call__(self):
            return 0.0

    server = DhcpServer(
        pool=DhcpPool(
            IPv4Network("192.168.12.0/24"),
            IPv4Address("192.168.12.50"),
            IPv4Address("192.168.12.99"),
        ),
        server_id=IPv4Address("192.168.12.250"),
        clock=Clock(),
    )
    result = server.handle_message(data)
    assert result is None or isinstance(result, bytes)


@given(frames=st.lists(garbage, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_host_stack_survives_garbage_frames(frames):
    """Deliver arbitrary bytes straight to a configured host's port."""
    engine = EventEngine(seed=5)
    host = ServerHost(
        engine,
        "victim",
        ipv4=IPv4Address("10.0.0.1"),
        ipv4_network=IPv4Network("10.0.0.0/24"),
        ipv6=IPv6Address("2001:db8::1"),
    )
    host.udp_serve(53, lambda payload, src, sport: b"ok")
    for frame in frames:
        host.port("eth0").deliver(frame)
    engine.run_for(0.1)


@given(frames=st.lists(garbage, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_switch_survives_garbage_frames(frames):
    engine = EventEngine(seed=6)
    switch = ManagedSwitch(engine, "sw")
    switch.snooper.enabled = True
    a = switch.add_port("p1")
    other = Host(engine, "peer")
    connect(engine, other.port("eth0"), switch.add_port("p2"))
    for frame in frames:
        switch.on_frame(a, frame)
    engine.run_for(0.1)


@given(data=garbage)
@settings(max_examples=100, deadline=None)
def test_gateway_survives_garbage_on_both_ports(data):
    from repro.sim.gateway5g import MobileGateway5G

    engine = EventEngine(seed=7)
    gateway = MobileGateway5G(engine)
    gateway.port("lan").deliver(data)
    gateway.port("wan").deliver(data)
    engine.run_for(0.1)


@given(
    valid_prefix=st.booleans(),
    payload=garbage,
)
@settings(max_examples=100, deadline=None)
def test_tcp_listener_survives_mid_stream_garbage(valid_prefix, payload):
    """A valid TCP handshake followed by garbage segments must not take
    down the listener."""
    engine = EventEngine(seed=8)
    switch = ManagedSwitch(engine, "sw")
    server = ServerHost(engine, "srv", ipv4=IPv4Address("10.0.0.1"),
                        ipv4_network=IPv4Network("10.0.0.0/24"))
    client = ServerHost(engine, "cli", ipv4=IPv4Address("10.0.0.2"),
                        ipv4_network=IPv4Network("10.0.0.0/24"))
    connect(engine, server.port("eth0"), switch.add_port("p1"))
    connect(engine, client.port("eth0"), switch.add_port("p2"))
    server.tcp_listen(80, lambda conn: None)
    conn = client.tcp_connect(IPv4Address("10.0.0.1"), 80)
    assert conn is not None
    if valid_prefix:
        conn.send(b"hello")
    # Now inject raw garbage as if it were a TCP payload frame.
    server.port("eth0").deliver(payload)
    engine.run_for(0.2)
    # The server is still able to accept a fresh connection.
    conn2 = client.tcp_connect(IPv4Address("10.0.0.1"), 80)
    assert conn2 is not None


def test_testbed_survives_mutated_captured_frames():
    """Frame-mutation fuzz over real traffic.  A full testbed (one client
    per OS profile) captures every frame its nodes send and receive.
    Each frame is truncated, or has 1-4 bytes flipped past the Ethernet
    header, and sent again over the link it was captured on, toward the
    port that received it.  No exception may escape the event loop.

    Received frames matter as much as sent ones: the internet-side hosts
    are not captured, so the gateway's WAN input (the NAT64/NAT44
    ``translate_in`` path) is reachable only through its rx entries."""
    testbed = build_testbed(TestbedConfig(seed=7, capture_traffic=True))
    for index, profile in enumerate(ALL_PROFILES):
        testbed.add_client(profile, f"fuzz-{index}").fetch("sc24.supercomputing.org")
    infra = (
        testbed.gateway,
        testbed.switch,
        testbed.pi_healthy,
        testbed.pi_poison,
        testbed.pi_dhcp,
    )
    nodes = {node.name: node for node in infra}
    nodes.update((client.host.name, client.host) for client in testbed.clients)

    def sender(entry):
        port = nodes[entry.node].port(entry.port)
        if entry.direction == "tx":
            return port
        link = port._link
        return link._a if link._b is port else link._b

    captured = [(sender(entry), entry.frame) for entry in testbed.trace.entries]
    assert len(captured) > 1000
    rng = random.Random(2024)
    engine = testbed.engine
    for _ in range(4000):
        port, frame = rng.choice(captured)
        if len(frame) > 14 and rng.random() < 0.5:
            mutated = bytearray(frame)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(14, len(mutated))] ^= rng.randrange(1, 256)
            frame = bytes(mutated)
        else:
            frame = frame[: rng.randrange(len(frame))]
        port._link.transmit(port, frame)
        engine.run_until(deadline=engine.now + 0.05)
