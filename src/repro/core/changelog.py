"""Bounded mutation logs for incremental (delta) index maintenance.

The rollup index (:mod:`repro.engine.rollup_index`) invalidates its
per-dimension closure tables by comparing mutation counters.  Counters
alone only say *that* something changed; to apply a mutation as a
*delta* — patching the existing closures instead of rebuilding them —
the index also needs to know *what* changed.  A :class:`ChangeLog`
records one entry per counter bump: the operation payload (an added
fact-dimension pair, the values a fact removal dropped, an added order
edge/node, an inserted fact).  The log is bounded: when more mutations
happen between two index queries than the log holds, :meth:`since`
reports a gap and the index falls back to a full rebuild — the log
never affects correctness, only whether the cheap path is available.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, List, Optional, Tuple

__all__ = ["ChangeLog"]

#: Default bound: enough for bursty interactive mutation between
#: queries; bulk loads overflow it and take the (amortized-fine) rebuild.
DEFAULT_CAPACITY = 512


class ChangeLog:
    """One entry per version bump of the structure it shadows.

    Entries are ``(version, op)`` with strictly increasing versions —
    the structure records exactly one entry per counter increment, so a
    contiguity check is a plain count.  ``op`` is an opaque payload the
    consumer interprets.
    """

    __slots__ = ("_entries",)

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._entries: Deque[Tuple[int, tuple]] = deque(maxlen=capacity)

    def record(self, version: int, op: tuple) -> None:
        """Log the operation that produced ``version``."""
        self._entries.append((version, op))

    def since(self, version: int,
              current: int) -> Optional[List[tuple]]:
        """The ops for every bump in ``(version, current]``, oldest
        first — or ``None`` when the log cannot prove it covers the
        whole span (an entry aged out of the bounded log).

        Reads only the span: with one entry per bump, ``(version,
        current]`` is the newest ``current - version`` entries, so the
        walk starts at the tail and stops at the span's oldest entry."""
        wanted = current - version
        if wanted == 0:
            return []
        entries = self._entries
        if wanted < 0 or wanted > len(entries) \
                or entries[-1][0] != current:
            return None  # a bump aged out of the log: coverage unprovable
        ops = [op for _, op in islice(reversed(entries), wanted)]
        if entries[-wanted][0] != version + 1:
            return None  # the versions skip: coverage unprovable
        ops.reverse()
        return ops

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChangeLog({len(self._entries)} entries)"
