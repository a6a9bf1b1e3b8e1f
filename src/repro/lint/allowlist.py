"""Per-path rule allowlist.

Policy: an entry here must name the *narrowest* path that needs the
exception and carry a justification.  Prefer an inline
``# repro: allow[CODE]`` pragma for single-line exceptions; use this
table only when a whole file legitimately lives outside a rule (and
would otherwise sprout a pragma per function).

Paths are matched on their POSIX form with :func:`fnmatch.fnmatch`
against the *suffix* anchored at ``repro/`` (so entries stay valid no
matter where the repository is checked out).
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

__all__ = ["ALLOWLIST", "allowed_codes_for", "match_paths"]

#: path glob (anchored at ``repro/``) -> codes permitted there.
ALLOWLIST: Dict[str, Tuple[str, ...]] = {
    # RL401 (shard-safety race detector) flags the bounded decode/encode
    # memo caches below because they are module-level dicts mutated on
    # worker-reachable paths.  They are deliberate per-process caches:
    # every entry is a pure function of its key (wire bytes / address
    # text), so a fork-private copy can never disagree with the parent,
    # and the determinism CI smoke diffs serial vs parallel output to
    # prove shard results do not depend on cache state.
    "repro/net/arp.py": ("RL401",),
    "repro/net/icmpv6.py": ("RL401",),
    "repro/net/udp.py": ("RL401",),
    "repro/_kernel/l2l3.py": ("RL401",),
    "repro/dns/name.py": ("RL401",),
    # The accel shim caches its kernel-tree decision (and the loaded
    # kernel modules) in module globals, once per process.  The decision
    # is a pure function of the environment (REPRO_ACCEL + what the
    # build installed), both of which are identical across parent and
    # shard workers, so a fork-private copy cannot disagree; the CI
    # accel job byte-diffs sharded output across both modes to prove it.
    "repro/_accel.py": ("RL401",),
}


def _anchored(path: Path) -> str:
    """``.../src/repro/dns/zone.py`` -> ``repro/dns/zone.py``."""
    parts = list(path.parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[anchor:])
    return path.as_posix()


def allowed_codes_for(path: Path) -> Set[str]:
    anchored = _anchored(path)
    out: Set[str] = set()
    for pattern, codes in ALLOWLIST.items():
        if fnmatch(anchored, pattern):
            out.update(codes)
    return out


def match_paths(pattern: str, paths: Sequence[str]) -> List[str]:
    """The subset of ``paths`` an allowlist ``pattern`` applies to.

    Used by the RL001 stale-suppression check to decide whether an
    entry was exercised during a run that covered its files at all.
    """
    return [p for p in paths if fnmatch(_anchored(Path(p)), pattern)]
