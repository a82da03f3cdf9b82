"""The results of an evaluator's last few distinct queries, by exact bits."""
from __future__ import annotations

import numpy as np


class QueryMemo:
    """The arrays that ``compute`` returned for the last ``slots`` distinct
    float64 queries.

    A query is keyed by its shape and its bits, compared as uint64, so
    -0.0 and 0.0 get separate slots, and so do [0, 1] and [[0], [1]]; the
    shape and the first and last bits settle most misses. The query is
    copied on the way in, and the results are stored read-only and handed
    out as read-only views, so no caller can alter a stored slot and none
    pays for a copy it only reads. A hit makes its slot the newest, and a
    miss past ``slots`` evicts the oldest.
    """

    __slots__ = ("_slots", "_entries")

    def __init__(self, slots: int):
        self._slots = slots
        self._entries = []  # (query copy, results), oldest first

    def __call__(self, tq: np.ndarray, compute) -> tuple:
        """Read-only views of the tuple of arrays ``compute(tq)`` returns,
        computed only when no stored query has tq's shape and bits."""
        bits = tq.view(np.uint64)
        ends = (bits.flat[0], bits.flat[-1]) if bits.size else ()
        entries = self._entries
        for i, (key, results) in enumerate(entries):
            kbits = key.view(np.uint64)
            if (key.shape == bits.shape
                    and (not ends or ends == (kbits.flat[0], kbits.flat[-1]))
                    and np.array_equal(kbits, bits)):
                entries.append(entries.pop(i))
                break
        else:
            # asarray: a 0-d query yields NumPy scalars, which have no flags
            results = tuple(np.asarray(r) for r in compute(tq))
            for r in results:
                r.flags.writeable = False
            entries.append((tq.copy(), results))
            del entries[:-self._slots]
        return tuple(r.view() for r in results)
