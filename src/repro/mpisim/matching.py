"""Message matching: posted receives and the unexpected-message queue.

MPI matching semantics: a receive matches the earliest arrived message with
compatible ``(source, tag)``; an arriving message matches the earliest
posted receive.  Wildcards :data:`ANY_SOURCE` / :data:`ANY_TAG` are
supported.  Messages between the same ``(source, dest, tag)`` triple are
non-overtaking (FIFO), which the simulated transport guarantees because
arrivals are processed in delivery order.
"""

from __future__ import annotations

import collections
import typing as _t

#: Wildcard source rank.
ANY_SOURCE = -1
#: Wildcard tag.
ANY_TAG = -1


class MatchList:
    """An ordered list supporting earliest-match extraction.

    Used both for posted receives (entries carry the wanted ``(src, tag)``)
    and for unexpected messages (entries carry the message's own).
    """

    def __init__(self) -> None:
        self._entries: collections.deque[tuple[int, int, _t.Any]] = collections.deque()

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, source: int, tag: int, item: _t.Any) -> None:
        self._entries.append((source, tag, item))

    def pop_match_for_arrival(self, source: int, tag: int) -> _t.Any | None:
        """Earliest posted receive compatible with an arriving message."""
        for i, (want_src, want_tag, item) in enumerate(self._entries):
            if want_src in (ANY_SOURCE, source) and want_tag in (ANY_TAG, tag):
                del self._entries[i]
                return item
        return None

    def pop_match_for_recv(self, want_src: int, want_tag: int) -> _t.Any | None:
        """Earliest unexpected message compatible with a posted receive."""
        for i, (source, tag, item) in enumerate(self._entries):
            if want_src in (ANY_SOURCE, source) and want_tag in (ANY_TAG, tag):
                del self._entries[i]
                return item
        return None

    def pop_item(self, item: _t.Any) -> tuple[int, int] | None:
        """Remove ``item``; its ``(src, tag)``, or None if it is not listed."""
        for i, (source, tag, it) in enumerate(self._entries):
            if it is item:
                del self._entries[i]
                return source, tag
        return None
