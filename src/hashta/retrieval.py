"""Top-k selection over a behavior sequence.

All selectors share one ordering contract: candidates are ranked by
score (smaller Hamming distance is better, larger dot/cosine is better),
and ties are broken in favor of the larger sequence position, i.e. the
more recent behavior.  Padding positions (valid_mask False) never appear
in the result.  When k is at least the number of valid positions, every
valid position is returned, so a saturated retrieval degrades to the
full sequence.

The Hamming selector ranks by total distance across all hash rounds and
never materializes a full sort.  top_k_by_hamming, the single-query
reference, collapses score and position into one int64 key
(distance * L + reversed position) and partitions it.  The batched
selector serves requests, and every one of its passes reads contiguous,
cache-resident operands:

- Row blocks sized for L2.  Candidate rows are processed in blocks whose
  XOR, popcount and composite buffers together hold about 64k elements
  (about 850 KB, inside the 2 MiB per-core L2 of the x86_64 hosts this
  was measured on).  Each block's rows are partitioned whole and only
  their k winners are kept, so one small (n, k) sort finishes the job.
  One pass over a (128 x 2048) matrix would spill L2 between passes.
- Contiguous XOR operands.  The block's query column is tiled into the
  XOR buffer first, and the key row is XORed into it.  NumPy's uint64
  XOR costs about 1.0 ns per element with the query broadcast as a
  stride-0 operand and about 0.35 ns with two contiguous operands.
- A shift-coded key: (distance << s) | reversed position, with
  s = (L - 1).bit_length().  It orders exactly as distance * L +
  reversed position does, and decodes with a mask and a shift instead of
  integer % and //.  Padding positions carry the key dtype's largest value
  (every bit below the sign set) in place of their low bits, and OR-ing
  that into any key gives it back, so masking needs no scatter.

The dot-product selector is a reference baseline and just sorts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._scratch import scratch_buf
from .fingerprint import Fingerprint, FingerprintTable, _check_comparable

_SENTINEL = np.int64(2**62)

# Keys per row block of hamming_top_k_batch: its XOR, popcount and key
# buffers then total about 850 KB, inside the 2 MiB per-core L2 measured
# on the x86_64 serving host (see the module docstring).
_BLOCK_ELEMENTS = 1 << 16

Keys = Union[FingerprintTable, Sequence[Fingerprint]]

_local = threading.local()


def _scratch_buf(tag: str, shape, dtype) -> np.ndarray:
    return scratch_buf("retrieval." + tag, shape, dtype)


@dataclass(frozen=True)
class TopKResult:
    """Selected sequence positions, best first."""

    indices: np.ndarray  # int64, positions into the original sequence
    scores: np.ndarray  # distance / similarity / match flag, aligned with indices
    k_requested: int
    n_valid: int

    def __len__(self) -> int:
        return self.indices.shape[0]


def _as_table(keys: Keys) -> FingerprintTable:
    if isinstance(keys, FingerprintTable):
        return keys
    fps = list(keys)
    if not fps:
        return FingerprintTable(np.empty((0, 0), dtype=np.uint64), 1, 1)
    for fp in fps[1:]:
        _check_comparable(fps[0], fp)
    words = np.stack([fp.words for fp in fps])
    return FingerprintTable(words, fps[0].rounds, fps[0].bits_per_round)


def _check_mask(valid_mask, length: int) -> np.ndarray:
    mask = np.asarray(valid_mask, dtype=bool)
    if mask.shape != (length,):
        raise ValueError(f"valid_mask shape {mask.shape} does not match {length} keys")
    return mask


def _pairwise_hamming(qwords: np.ndarray, kwords: np.ndarray) -> np.ndarray:
    """Total Hamming distance for every query/key row pair, (n_q, n_k).

    Returns a small unsigned integer dtype (uint8 for one-word
    fingerprints, uint16 otherwise) backed by per-thread scratch: valid
    until this thread's next call, so callers must copy anything they
    keep.  Accumulates one packed word at a time so the XOR/popcount
    inner loops run over contiguous rows; a single 3-D broadcast would
    put the tiny word axis innermost and run an order of magnitude
    slower.  uint16 cannot overflow below 65,535 total bits (a
    fingerprint that wide would not fit the packing layout anyway).
    """
    n_q, n_words = qwords.shape
    n_k = kwords.shape[0]
    if n_q == 0 or n_k == 0 or n_words == 0:
        return np.zeros((n_q, n_k), dtype=np.uint16)
    kt = np.ascontiguousarray(kwords.T)
    buf = _scratch_buf("xor", (n_q, n_k), np.uint64)
    pc = _scratch_buf("popcount", (n_q, n_k), np.uint8)
    np.bitwise_xor(qwords[:, 0, None], kt[0][None, :], out=buf)
    np.bitwise_count(buf, out=pc)
    if n_words == 1:
        return pc
    dist = _scratch_buf("distance", (n_q, n_k), np.uint16)
    np.copyto(dist, pc)
    for w in range(1, n_words):
        np.bitwise_xor(qwords[:, w, None], kt[w][None, :], out=buf)
        dist += np.bitwise_count(buf, out=pc)
    return dist


def _recency_keys(length: int, dtype) -> np.ndarray:
    """length-1 .. 0, a read-only slice of one grow-only descending array
    per (thread, dtype)."""
    store = getattr(_local, "recency", None)
    if store is None:
        store = _local.recency = {}
    key = np.dtype(dtype).str
    rev = store.get(key)
    if rev is None or rev.shape[0] < length:
        rev = store[key] = np.arange(length - 1, -1, -1, dtype=dtype)
        rev.flags.writeable = False
    return rev[rev.shape[0] - length :]


def _densify(words: np.ndarray, rounds: int, bits_per_round: int) -> np.ndarray:
    """Concatenate per-round bit blocks into a single word per fingerprint.

    Each round's word keeps its bits in the low positions with zero
    padding above, so when all rounds fit in 64 bits the blocks can be
    shifted together without overlap; popcounts, and therefore total
    distances, are unchanged.  Applies only when every round is one word
    wide (bits_per_round <= 64).
    """
    acc = words[:, 0].copy()
    for r in range(1, rounds):
        acc |= words[:, r] << np.uint64(r * bits_per_round)
    return acc[:, None]


def _block_keys(q: np.ndarray, kt: np.ndarray, shift: int, ctype) -> np.ndarray:
    """distance << shift for one block of query rows against every key,
    (n_block, length), in per-thread scratch.

    Each word's query column is tiled into the XOR buffer before the key
    row is XORed in, so the XOR reads two contiguous operands."""
    shape = (q.shape[0], kt.shape[1])
    buf = _scratch_buf("xor", shape, np.uint64)
    pc = _scratch_buf("popcount", shape, np.uint8)
    composite = _scratch_buf("composite", shape, ctype)
    np.copyto(buf, q[:, 0, None])
    np.bitwise_xor(buf, kt[0], out=buf)
    np.bitwise_count(buf, out=pc)
    if q.shape[1] == 1:
        return np.left_shift(pc, shift, out=composite, dtype=ctype)
    np.copyto(composite, pc)
    for w in range(1, q.shape[1]):
        np.copyto(buf, q[:, w, None])
        np.bitwise_xor(buf, kt[w], out=buf)
        composite += np.bitwise_count(buf, out=pc)
    composite <<= shift
    return composite


def _select(composite: np.ndarray, k_eff: int) -> np.ndarray:
    """Positions of the k_eff smallest composite keys, ascending by key."""
    if k_eff == 0:
        return np.empty(0, dtype=np.int64)
    if k_eff < composite.shape[0]:
        part = np.argpartition(composite, k_eff - 1)[:k_eff]
    else:
        part = np.arange(composite.shape[0])
    return part[np.argsort(composite[part], kind="stable")].astype(np.int64)


def top_k_by_hamming(
    query: Fingerprint, keys: Keys, valid_mask, k: int
) -> TopKResult:
    """k nearest keys by total Hamming distance over all rounds."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    table = _as_table(keys)
    length = len(table)
    mask = _check_mask(valid_mask, length)
    if length == 0:
        return TopKResult(np.empty(0, np.int64), np.empty(0, np.int64), k, 0)
    _check_comparable(query, table)
    dist = _pairwise_hamming(query.words[None, :], table.words)[0].astype(np.int64)
    # one strict integer order: distance first, then recency (larger index wins)
    composite = dist * np.int64(length) + np.arange(length - 1, -1, -1, dtype=np.int64)
    composite[~mask] = _SENTINEL
    n_valid = int(mask.sum())
    chosen = _select(composite, min(k, n_valid))
    return TopKResult(chosen, dist[chosen], k, n_valid)


def hamming_top_k_batch(
    queries: FingerprintTable, keys: FingerprintTable, valid_mask, k: int
):
    """Row-wise top-k for a batch of queries against one shared key table.

    Returns (indices, distances) of shape (n_queries, k_eff), each row
    ordered exactly as top_k_by_hamming would order it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    length = len(keys)
    mask = _check_mask(valid_mask, length)
    _check_comparable(queries, keys)
    n = queries.words.shape[0]
    n_valid = int(np.count_nonzero(mask))
    k_eff = min(k, n_valid)
    if k_eff == 0:
        return np.empty((n, 0), np.int64), np.empty((n, 0), np.int64)
    qwords, kwords = queries.words, keys.words
    if keys.rounds > 1 and 0 < keys.bits_per_round * keys.rounds <= 64:
        qwords = _densify(qwords, keys.rounds, keys.bits_per_round)
        kwords = _densify(kwords, keys.rounds, keys.bits_per_round)
    # key = distance << shift | reversed position; narrow keys partition
    # measurably faster, and int32 holds every realistic (length, bits)
    shift = (length - 1).bit_length()
    ctype = np.int32 if (keys.rounds * keys.bits_per_round + 1) << shift < 2**31 else np.int64
    low = _recency_keys(length, ctype)
    if n_valid < length:
        low = np.where(mask, low, np.iinfo(ctype).max)
    kt = np.ascontiguousarray(kwords.T)
    rows = max(1, _BLOCK_ELEMENTS // length)
    top = np.empty((n, k_eff), ctype)
    for start in range(0, n, rows):
        q = qwords[start : start + rows]
        composite = _block_keys(q, kt, shift, ctype)
        composite |= low
        if k_eff < length:
            composite.partition(k_eff - 1, axis=1)
        top[start : start + q.shape[0]] = composite[:, :k_eff]
    # the key is invertible, so selection never needs index arrays: sort
    # the survivors and read position and distance back out of the bits
    top.sort(axis=1)
    idx = (ctype(length - 1) - (top & ctype((1 << shift) - 1))).astype(np.int64)
    return idx, (top >> shift).astype(np.int64)


def top_k_by_dot(
    query: np.ndarray, keys: np.ndarray, valid_mask, k: int, metric: str = "dot"
) -> TopKResult:
    """Exact k best keys by dot product or cosine, same tie rule as above."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if metric not in ("dot", "angular"):
        raise ValueError(f"metric must be 'dot' or 'angular', got {metric!r}")
    q = np.asarray(query, dtype=np.float64)
    mat = np.asarray(keys, dtype=np.float64)
    if mat.ndim != 2 or q.shape != (mat.shape[1],):
        raise ValueError(f"query shape {q.shape} does not match keys {mat.shape}")
    mask = _check_mask(valid_mask, mat.shape[0])
    scores = mat @ q
    if metric == "angular":
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise ValueError("angular metric undefined for a zero-norm query")
        norms = np.linalg.norm(mat, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = scores / (qn * norms)
        scores[norms == 0.0] = -np.inf  # zero keys rank last
    length = mat.shape[0]
    positions = np.arange(length)
    valid_idx = np.flatnonzero(mask)
    n_valid = valid_idx.shape[0]
    k_eff = min(k, n_valid)
    # full sort on (-score, -position): fine for a reference baseline
    order = np.lexsort((-positions[valid_idx], -scores[valid_idx]))
    chosen = valid_idx[order[:k_eff]].astype(np.int64)
    return TopKResult(chosen, scores[chosen], k, n_valid)


def category_hard_search(
    target_category: int, categories, valid_mask, k: int
) -> TopKResult:
    """k most recent behaviors in the target category, backfilled with the
    most recent non-matching behaviors so the result is always min(k, valid).

    Scores are 1.0 for a category match and 0.0 for backfill."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cats = np.asarray(categories)
    if cats.ndim != 1:
        raise ValueError(f"categories must be 1-d, got shape {cats.shape}")
    length = cats.shape[0]
    mask = _check_mask(valid_mask, length)
    match = (cats == target_category) & mask
    # matches first (most recent first), then backfill by recency
    composite = np.where(match, np.int64(0), np.int64(length)) + np.arange(
        length - 1, -1, -1, dtype=np.int64
    )
    composite[~mask] = _SENTINEL
    n_valid = int(mask.sum())
    chosen = _select(composite, min(k, n_valid))
    return TopKResult(chosen, match[chosen].astype(np.float64), k, n_valid)


def recall_at_k(retrieved, exact) -> float:
    """|retrieved ∩ exact| / |exact|, as sets of positions."""
    got = set(np.asarray(retrieved).tolist())
    want = set(np.asarray(exact).tolist())
    if not want:
        raise ValueError("exact index set is empty")
    if not got:
        raise ValueError("retrieved index set is empty")
    return len(got & want) / len(want)
