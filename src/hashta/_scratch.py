"""Per-thread reusable work arrays for the request-scoring hot path.

Request scoring streams through a few arrays whose sizes follow the
history length (distance matrices, gathered rows).  Allocating them per
call makes every request touch that many cold pages, which on
memory-bandwidth-starved hosts costs more than the arithmetic; reuse
keeps the pages warm.  Buffers are keyed by (tag, dtype), grow only to
the largest request seen and are handed out as reshaped views, so a
thread's scratch stays bounded whatever the mix of lengths.  They are
bound to the thread, so concurrent scorers stay independent.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_local = threading.local()


def scratch_buf(tag: str, shape, dtype) -> np.ndarray:
    """Reusable work array for this thread (contents undefined on entry),
    valid until this thread's next request for the same tag and dtype."""
    store = getattr(_local, "bufs", None)
    if store is None:
        store = _local.bufs = {}
    key = (tag, np.dtype(dtype).str)
    size = math.prod(shape)
    buf = store.get(key)
    if buf is None or buf.size < size:
        buf = store[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)
