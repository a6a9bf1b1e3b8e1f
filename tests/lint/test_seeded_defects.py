"""Seeded-defect corpus: which rules catch a real defect in a real module.

Each defect is a text mutation of one module of the ``src/repro`` tree,
applied to a copy under ``tmp_path`` (never the checkout).  The copied
tree lints clean before any mutation, so every code that fires on a
mutated copy is the defect's doing; each row pins that exact set.  The
table answers "is this rule the only one that catches this defect?" —
the evidence for keeping or deleting a rule family.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

from repro.lint.core import lint_paths_run
from repro.lint.program.cache import LintCache

SRC = Path(__file__).parents[2] / "src" / "repro"

_FUTURE = "from __future__ import annotations\n"


def _imports(*modules: str) -> Tuple[str, str]:
    """An edit adding ``import <module>`` lines under the future import."""
    return _FUTURE, _FUTURE + "".join(f"import {m}\n" for m in modules)


class Defect(NamedTuple):
    name: str
    module: str  # path below src/repro
    edits: Tuple[Tuple[str, str], ...]  # (old, new); each old occurs once
    codes: frozenset


_ADD_DEVICE = "            counts_v6only=cls.counts_as_ipv6_only,\n"
_MATRIX_LOOP = "    for offset, profile in enumerate(profiles):\n"
_MATRIX_OUTCOMES = "    outcomes: List[DeviceOutcome] = []\n"

DEFECTS = (
    Defect(
        "wall-clock-into-fold",
        "analysis/adoption.py",
        (_imports("time"), (_ADD_DEVICE, "            counts_v6only=time.time() % 2 < 1,\n")),
        frozenset({"RL101"}),
    ),
    Defect(
        "two-hop-wall-clock-into-fold",
        "analysis/adoption.py",
        (
            _imports("time"),
            (
                "def _measure_mix(",
                "def _stamp() -> float:\n"
                "    return time.perf_counter()\n\n\n"
                "def _jitter() -> bool:\n"
                "    return _stamp() % 2 < 1\n\n\n"
                "def _measure_mix(",
            ),
            (_ADD_DEVICE, "            counts_v6only=_jitter(),\n"),
        ),
        frozenset({"RL101"}),
    ),
    Defect(
        "set-comprehension-into-fold",
        "analysis/adoption.py",
        (
            (
                "    for client in testbed.clients:\n",
                "    for client in {c for c in testbed.clients}:\n",
            ),
        ),
        frozenset({"RL103"}),
    ),
    Defect(
        "iter-over-set-into-fold",
        "analysis/adoption.py",
        (
            (
                _ADD_DEVICE,
                "            counts_v6only=next(iter({has_v4_lease, granted_v6only})),\n",
            ),
        ),
        frozenset({"RL103"}),
    ),
    Defect(
        "id-into-fold",
        "analysis/adoption.py",
        ((_ADD_DEVICE, "            counts_v6only=id(host) % 2 == 0,\n"),),
        frozenset({"RL104"}),
    ),
    Defect(
        "id-into-trace",
        "sim/trace.py",
        (("summarize_frame(frame))", "summarize_frame(frame) + hex(id(frame)))"),),
        frozenset({"RL104"}),
    ),
    Defect(
        "wall-clock-into-worker-seed",
        "parallel/executor.py",
        (
            _imports("random"),
            (
                "        value: Any = fn(spec)\n",
                "        random.Random(start).random()\n        value: Any = fn(spec)\n",
            ),
        ),
        frozenset({"RL403"}),
    ),
    Defect(
        "set-iteration-in-matrix-worker",
        "analysis/matrix.py",
        ((_MATRIX_LOOP, "    for offset, profile in enumerate(set(profiles)):\n"),),
        frozenset({"RL103"}),
    ),
    Defect(
        "hash-keyed-sort",
        "analysis/matrix.py",
        (
            (
                '    return "\\n".join(o.row() for o in outcomes)\n',
                '    ordered = sorted(outcomes, key=lambda o: hash(o.profile))\n'
                '    return "\\n".join(o.row() for o in ordered)\n',
            ),
        ),
        frozenset({"RL105"}),
    ),
    Defect(
        "wall-clock-in-trace-capacity",
        "sim/trace.py",
        (
            _imports("time"),
            (
                "        if len(self.entries) >= self._capacity:\n",
                "        if len(self.entries) >= self._capacity or time.monotonic() > 1e12:\n",
            ),
        ),
        frozenset({"RL101"}),
    ),
    Defect(
        "urandom-in-ipv4-encode",
        "net/ipv4.py",
        (
            _imports("os"),
            (
                "                self.identification,\n",
                '                self.identification ^ int.from_bytes(os.urandom(2), "big"),\n',
            ),
        ),
        frozenset({"RL102"}),
    ),
    Defect(
        "unseeded-worker-rng",
        "analysis/matrix.py",
        (
            _imports("random"),
            (_MATRIX_OUTCOMES, _MATRIX_OUTCOMES + "    random.Random().shuffle(outcomes)\n"),
        ),
        frozenset({"RL403"}),
    ),
    Defect(
        "ipv4-decode-slice-width",
        "net/ipv4.py",
        (('"!BBHHHBBH", data[:12]', '"!BBHHHBBH", data[:11]'),),
        frozenset({"RL202"}),
    ),
    Defect(
        "broad-except-continue-in-worker",
        "analysis/matrix.py",
        (
            (
                _MATRIX_LOOP,
                _MATRIX_LOOP + "        try:\n"
                "            profile.name.encode()\n"
                "        except Exception:\n"
                "            continue\n",
            ),
        ),
        frozenset({"RL701"}),
    ),
    Defect(
        "module-list-mutated-in-worker",
        "analysis/matrix.py",
        (
            ("__all__ = [", "_SEEN: List[int] = []\n\n__all__ = ["),
            (_MATRIX_OUTCOMES, _MATRIX_OUTCOMES + "    _SEEN.append(spec.seed)\n"),
        ),
        frozenset({"RL401"}),
    ),
    Defect(
        "list-accumulation-in-worker-loop",
        "analysis/adoption.py",
        (
            (
                "    for client in testbed.clients:\n",
                "    seen = []\n    for client in testbed.clients:\n        seen.append(client)\n",
            ),
        ),
        frozenset({"RL303"}),
    ),
    Defect(
        "heapq-in-trace",
        "sim/trace.py",
        (_imports("heapq"),),
        frozenset({"RL106"}),
    ),
    Defect(
        "return-in-finally",
        "sim/trace.py",
        (
            (
                "        return len(self.entries)\n",
                "        try:\n"
                "            pass\n"
                "        finally:\n"
                "            return len(self.entries)\n",
            ),
        ),
        frozenset({"RL702"}),
    ),
    Defect(
        "new-wall-read-in-executor",
        "parallel/executor.py",
        (
            (
                "def _run_shard(",
                "def _stamp() -> float:\n    return time.monotonic()\n\n\ndef _run_shard(",
            ),
        ),
        frozenset({"RL101"}),
    ),
)


def _mutate(source: str, edits: Tuple[Tuple[str, str], ...]) -> str:
    for old, new in edits:
        assert source.count(old) == 1, f"anchor not unique: {old!r}"
        source = source.replace(old, new)
    return source


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A clean copy of the tree and an in-memory cache that already
    holds every unmutated module."""
    root = tmp_path_factory.mktemp("seeded") / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    cache = LintCache(None)
    clean = lint_paths_run([root], program=True, cache=cache)
    assert clean.findings == [], [f.render() for f in clean.findings]
    return root, cache


@pytest.mark.parametrize("defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_seeded_defect_is_caught(tree, defect):
    root, cache = tree
    target = root / defect.module
    original = target.read_text(encoding="utf-8")
    target.write_text(_mutate(original, defect.edits), encoding="utf-8")
    try:
        run = lint_paths_run([root], program=True, cache=cache)
    finally:
        target.write_text(original, encoding="utf-8")
    assert {f.code for f in run.findings} == defect.codes, [f.render() for f in run.findings]
