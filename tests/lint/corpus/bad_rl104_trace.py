# repro-lint-module: repro.sim.fix104trace
"""RL104 positive: an id()-derived tag crosses *two* calls before it
lands in the packet trace.  The sink is far from the source, so RL104
flags the source."""


def ident_token(obj):
    return id(obj)


def tag(obj):
    return ident_token(obj) & 0xFFFF


def emit(trace, obj):
    trace.record("client0", "eth0", "tx", tag(obj))
