"""The per-process mapped-netlist index shared by every front door.

``api.map``, ``api.run_request``, ``api.cached_result``, the service's
hot path and batch workers resolve benchmark names and ``.bench`` paths
through :data:`MAPPED_INDEX`, so each netlist identity is generated and
technology-mapped once per process instead of once per request.  The
identity is chosen by ``repro.api`` (the one place that decides how a
circuit string becomes a netlist):

* a bundled benchmark name resolves to ``(name, scale, mapping seed)``;
* a ``.bench`` path resolves to its circuit name and the sha256 of its
  bytes -- never the path alone, so an edited file is a new netlist.

In-memory :class:`~repro.netlist.netlist.Netlist` objects are not
indexed.  Entries are shared, which is safe because a
:class:`~repro.techmap.mapped.MappedNetlist` is never mutated after
construction.  The index only saves building: every cache hit is still
verified against the indexed netlist (``docs/CACHING.md``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.techmap.mapped import MappedNetlist

#: Mapped netlists kept per process (least recently used goes first).
MAPPED_INDEX_CAP = 8


class MappedIndex:
    """A bounded, lock-guarded LRU of mapped netlists by identity.

    Builds run outside the lock.  Two threads missing on the same
    identity may both build, but both receive the object that was
    stored first, so every caller sees one object per identity.  A
    failed build stores nothing.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, MappedNetlist]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def get(
        self, identity: Hashable, build: Callable[[], MappedNetlist]
    ) -> MappedNetlist:
        """The netlist for ``identity``, calling ``build`` on a miss."""
        with self._lock:
            mapped = self._entries.get(identity)
            if mapped is not None:
                self._entries.move_to_end(identity)
                return mapped
        built = build()
        with self._lock:
            mapped = self._entries.setdefault(identity, built)
            self._entries.move_to_end(identity)
            while len(self._entries) > MAPPED_INDEX_CAP:
                self._entries.popitem(last=False)
        return mapped

    def _after_fork(self) -> None:
        # A fork can land while another thread holds the lock; the child
        # has no such thread, so it starts with a fresh lock.
        self._lock = threading.Lock()


#: The process-wide index.
MAPPED_INDEX = MappedIndex()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=MAPPED_INDEX._after_fork)


__all__ = ["MAPPED_INDEX", "MAPPED_INDEX_CAP", "MappedIndex"]
