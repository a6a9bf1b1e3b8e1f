# repro-lint-module: repro.net.fix104wire
"""RL104 positive: an object-identity ident is serialized into packet
bytes through a helper — the wire encoding differs run to run."""
import struct


def make_ident(pkt):
    return id(pkt) & 0xFFFF


def encode_header(pkt, proto):
    return struct.pack("!HH", proto, make_ident(pkt))
