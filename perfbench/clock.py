"""The benchmark's clocks: CPU time of a process tree, and a reference kernel.

The benchmark runs on shared hosts whose speed changes from one moment
to the next: neighbours take the CPUs (steal time) or share their cores
and caches, and the same op then takes up to twice as long.
Wall time follows every such change, so the benchmark times work in CPU
seconds instead, and scales them by a reference kernel timed in the same
process at the same moments.

- ``cpu_seconds()`` is the CPU time of this process, of the children it
  has waited for and of the children still alive (the executor's pool
  workers).  On Linux a task's CPU time excludes the time the hypervisor
  gave the CPU to another guest.
- ``reference_block(n)`` runs a fixed pure-Python kernel (objects,
  dicts, lists, small strings: the simulator's instruction mix) ``n``
  times and returns its mean CPU time.  The host's speed changes within
  a second, so the benchmark runs a block right before and right after
  each op and divides the op's CPU time by their mean.
  ``REFERENCE_NOMINAL_S`` is about the kernel's CPU time on a quiet
  2-core x86_64 host with CPython 3.11: ``cpu * REFERENCE_NOMINAL_S /
  reference`` is the op's CPU time at that nominal speed.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

#: CPU seconds one kernel run takes at the nominal host speed.
REFERENCE_NOMINAL_S = 0.0004
#: The block after an op runs kernels for this share of the op's CPU
#: time, and at least ``REFERENCE_MIN_KERNELS`` of them.
REFERENCE_SHARE = 0.05
REFERENCE_MIN_KERNELS = 2
_PROC = "/proc"


def _children(pid: int) -> List[int]:
    """Live children of ``pid`` (any of its threads may have forked them)."""
    found: List[int] = []
    try:
        tids = os.listdir(f"{_PROC}/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"{_PROC}/{pid}/task/{tid}/children", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:  # the thread has ended
            continue
    return found


if not os.path.exists(f"{_PROC}/{os.getpid()}/task/{os.getpid()}/children"):
    # Without it the pool workers' CPU time would silently go uncounted.
    raise RuntimeError("the benchmark needs Linux /proc/<pid>/task/<tid>/children")


def _task_cpu_s(pid: int) -> float:
    """CPU seconds a live process has run (``schedstat``, nanoseconds)."""
    try:
        with open(f"{_PROC}/{pid}/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        return 0.0


def cpu_seconds() -> float:
    """CPU seconds of this process, its reaped children and its live ones.

    A child counts while alive through ``schedstat`` and, once reaped,
    through ``RUSAGE_CHILDREN``; callers read it between ops, when no
    child is being reaped.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_task_cpu_s(child) for child in _children(os.getpid()))
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live


class _Node:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.links: List["_Node"] = []


def _kernel() -> int:
    """Fixed work: build a small keyed graph, walk it, format and sort."""
    nodes: Dict[int, _Node] = {}
    for i in range(400):
        key = (i * 7919) % 1021
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _Node(key, i & 63)
        else:
            node.weight += i & 7
        other = nodes.get((key * 31 + 7) % 1021)
        if other is not None:
            node.links.append(other)
    total = 0
    labels = []
    for node in nodes.values():
        for link in node.links:
            total += link.weight ^ node.key
        labels.append(f"n{node.key}:{node.weight}")
    labels.sort()
    return total + len("".join(labels))


#: What ``_kernel`` returns; a different value means the kernel is broken.
_KERNEL_RESULT = _kernel()


def reference_block(kernels: int) -> float:
    """Mean CPU seconds of one kernel run, over ``kernels`` runs."""
    start = time.process_time()
    for _ in range(kernels):
        if _kernel() != _KERNEL_RESULT:
            raise RuntimeError("reference kernel returned a different result")
    return (time.process_time() - start) / kernels


def nominal(cpu: float, before: float, after: float) -> float:
    """``cpu`` seconds at the nominal speed, given the mean kernel times
    of the reference blocks run just before and just after them."""
    return cpu * 2 * REFERENCE_NOMINAL_S / (before + after)


class OpClock:
    """Times ops in CPU seconds at the nominal host speed.

    Each op is followed by a reference block; an op's CPU time is scaled
    by the mean of the blocks on either side of it.
    """

    def __init__(self) -> None:
        self.last_reference = reference_block(REFERENCE_MIN_KERNELS)

    def time(self, op: Callable[[], T]) -> Tuple[T, float, float]:
        """``(op's result, nominal CPU seconds, CPU seconds)``."""
        start = cpu_seconds()
        result = op()
        cpu = cpu_seconds() - start
        kernels = max(REFERENCE_MIN_KERNELS, round(REFERENCE_SHARE * cpu / REFERENCE_NOMINAL_S))
        reference = reference_block(kernels)
        scaled = nominal(cpu, self.last_reference, reference)
        self.last_reference = reference
        return result, scaled, cpu
