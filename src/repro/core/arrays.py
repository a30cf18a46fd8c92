"""Append-only arrays whose prefixes are immutable, shareable views.

Releases of a growing publication are group prefixes of one another
(:mod:`repro.core.incremental`), so every per-release array — the QIT,
the ST, the query index's per-group matrices — is a prefix of the
next release's.  An :class:`AppendBuffer` stores such a sequence once:
holders keep ``(buffer, length)`` pairs and read :meth:`view` prefixes,
and a new release appends only its new rows.

Rows ``[:n]`` are never written again once appended, which is what
makes handing out views safe.  Appending from length ``n`` writes in
place only while ``n`` is still the buffer's fill mark and capacity
remains; otherwise (growth, or a second branch off an older prefix)
it copies the prefix into a fresh buffer of doubled capacity.  Old
views keep their old buffer alive, so no view ever changes.
"""

from __future__ import annotations

import threading

import numpy as np


class AppendBuffer:
    """Capacity-doubling storage for rows of shape ``tail`` and ``dtype``.

    Examples
    --------
    >>> buf = AppendBuffer(np.int32)
    >>> buf = buf.append(0, np.array([1, 2], dtype=np.int32))
    >>> grown = buf.append(2, np.array([3], dtype=np.int32))
    >>> buf.view(2).tolist(), grown.view(3).tolist()
    ([1, 2], [1, 2, 3])
    """

    __slots__ = ("_data", "_fill", "_lock")

    def __init__(self, dtype, tail: tuple[int, ...] = (),
                 capacity: int = 0) -> None:
        self._data = np.empty((capacity, *tail), dtype=dtype)
        self._fill = 0
        self._lock = threading.Lock()

    @property
    def tail(self) -> tuple[int, ...]:
        return self._data.shape[1:]

    def append(self, n: int, block: np.ndarray) -> "AppendBuffer":
        """Append ``block`` after the first ``n`` rows; return the buffer
        now holding ``n + len(block)`` rows (``self`` or a fresh copy)."""
        k = len(block)
        with self._lock:
            if self._fill == n and n + k <= len(self._data):
                self._data[n:n + k] = block
                self._fill = n + k
                return self
        grown = AppendBuffer(self._data.dtype, self.tail)
        if n == 0 and not len(self._data):
            # A first block is adopted when its layout allows; callers
            # hand over fresh arrays they no longer write.
            grown._data = np.ascontiguousarray(block,
                                               dtype=self._data.dtype)
        else:
            grown._data = np.empty((max(n + k, 2 * len(self._data)),
                                    *self.tail), dtype=self._data.dtype)
            grown._data[:n] = self._data[:n]
            grown._data[n:n + k] = block
        grown._fill = n + k
        return grown

    def view(self, n: int) -> np.ndarray:
        """The first ``n`` rows, read-only."""
        out = self._data[:n]
        out.setflags(write=False)
        return out
