"""Top-k selection over a behavior sequence.

All selectors share one ordering contract: candidates are ranked by
score (smaller Hamming distance is better, larger cosine is better),
and ties are broken in favor of the larger sequence position, i.e. the
more recent behavior.  Padding positions (valid_mask False) never appear
in the result.  When k is at least the number of valid positions, every
valid position is returned, so a saturated retrieval degrades to the
full sequence.

The Hamming selector ranks by total distance across all hash rounds and
never materializes a full sort.  One batched selector serves requests,
and training, evaluation and long_selection call it with one query row
per sample.  Every pass reads contiguous, cache-resident operands:

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

The angular selector is exact top-k by cosine, the quantity SimHash
approximates (two vectors at angle theta agree on a hash bit with
probability 1 - theta/pi), and ranks cosines at float32 resolution.
Cosines are computed in float64 from unit vectors with one GEMM per row
block, then rounded to float32.  BLAS does not compute a dot product the
same way at every position of a matrix, or in a one-row and a many-row
call: with OpenBLAS 0.3.31, repeated key rows got unequal float64
cosines in 152 of 200 random (queries x keys) products, and a one-row
call differed from the same row of the batch in all 200.  The rounding
absorbs those last-bit differences, so repeated keys tie exactly and
their order is recency, and a query selects the same rows whatever batch
it comes in.  The rounded cosine's sortable integer form, shifted above
the position bits, is an int64 key that partitions and decodes like the
Hamming key.  Padding columns are dropped before the product; zero-norm
keys get cosine -inf, and a zero-norm query gets cosine 0 everywhere,
so its row is pure recency.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ._scratch import scratch_buf
from .fingerprint import FingerprintTable, _check_comparable

# Keys per row block of hamming_top_k_batch: its XOR, popcount and key
# buffers then total about 850 KB, inside the 2 MiB per-core L2 measured
# on the x86_64 serving host (see the module docstring).
_BLOCK_ELEMENTS = 1 << 16

_local = threading.local()


def _scratch_buf(tag: str, shape, dtype) -> np.ndarray:
    return scratch_buf("retrieval." + tag, shape, dtype)


@dataclass(frozen=True)
class TopKResult:
    """Selected sequence positions, best first."""

    indices: np.ndarray  # int64, positions into the original sequence
    scores: np.ndarray  # distance / similarity / match flag, aligned with indices
    n_valid: int

    def __len__(self) -> int:
        return self.indices.shape[0]


def _check_mask(valid_mask, length: int) -> np.ndarray:
    mask = np.asarray(valid_mask, dtype=bool)
    if mask.shape != (length,):
        raise ValueError(f"valid_mask shape {mask.shape} does not match {length} keys")
    return mask


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


def hamming_top_k_batch(
    queries: FingerprintTable, keys: FingerprintTable, valid_mask, k: int
):
    """Row-wise top-k for a batch of queries against one shared key table.

    Returns (indices, distances) of shape (n_queries, k_eff), each row
    ordered by distance, ties to the more recent position.
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


def _sortable(bits: np.ndarray, sign=None) -> np.ndarray:
    """In place: float32 bit patterns (as int32) to ints that order as the
    floats do, -inf lowest; the map is its own inverse.  sign, if given,
    is an int32 work array of the same shape."""
    sign = np.right_shift(bits, 31, out=sign)
    sign &= 0x7FFFFFFF
    bits ^= sign
    return bits


def _unit_rows(x: np.ndarray):
    """(float64 rows scaled to unit norm, zero rows left zero, norms)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    return x / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def angular_top_k_batch(queries, keys, valid_mask, k: int):
    """Row-wise top-k by cosine for a batch of query vectors against one
    shared key matrix.

    Returns (indices, cosines) of shape (n_queries, k_eff): positions
    into keys, best first, and their cosines rounded to float32 (held as
    float64).  Ties, at that resolution, go to the more recent position.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(queries)
    mat = np.asarray(keys)
    if q.ndim != 2 or mat.ndim != 2 or q.shape[1] != mat.shape[1]:
        raise ValueError(f"queries shape {q.shape} does not match keys {mat.shape}")
    mask = _check_mask(valid_mask, mat.shape[0])
    n = q.shape[0]
    valid = np.flatnonzero(mask)
    n_valid = valid.shape[0]
    k_eff = min(k, n_valid)
    if k_eff == 0:
        return np.empty((n, 0), np.int64), np.empty((n, 0))
    # column c of every product is valid position valid[c]: larger c is more recent
    unit_keys, key_norms = _unit_rows(mat[valid])
    unit_q, q_norms = _unit_rows(q)
    zero_keys = np.flatnonzero(key_norms == 0.0)
    # key = sortable(cosine) << shift | column, so the k largest keys are
    # the k best columns and ties at the k-th cosine go to recency
    shift = (n_valid - 1).bit_length()
    columns = np.arange(n_valid, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // n_valid)
    top = np.empty((n, k_eff), np.int64)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        nb = unit_q[block].shape[0]
        cos = np.matmul(unit_q[block], unit_keys.T,
                        out=_scratch_buf("cosine", (nb, n_valid), np.float64))
        if zero_keys.size:
            cos[np.ix_(q_norms[block] > 0.0, zero_keys)] = -np.inf
        rounded = _scratch_buf("cosine32", (nb, n_valid), np.float32)
        np.copyto(rounded, cos, casting="same_kind")
        rounded += 0.0  # -0.0 to +0.0, so equal cosines share one key
        key = _scratch_buf("angular", (nb, n_valid), np.int64)
        np.copyto(key, _sortable(rounded.view(np.int32),
                                 _scratch_buf("sign", (nb, n_valid), np.int32)))
        key <<= shift
        key |= columns
        if k_eff < n_valid:
            key.partition(n_valid - k_eff, axis=1)
        top[block] = key[:, n_valid - k_eff :]
    top.sort(axis=1)
    top = top[:, ::-1]
    cosines = _sortable((top >> shift).astype(np.int32)).view(np.float32)
    return valid[top & ((1 << shift) - 1)], cosines.astype(np.float64)


def category_hard_search_batch(target_categories, categories, valid_mask, k: int):
    """Row-wise k most recent behaviors in each target category, backfilled
    with the most recent non-matching behaviors so every row holds
    min(k, valid): (indices, matches), each (n_targets, k_eff), for a batch
    of target categories against one shared sequence."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cats = np.asarray(categories)
    if cats.ndim != 1:
        raise ValueError(f"categories must be 1-d, got shape {cats.shape}")
    length = cats.shape[0]
    mask = _check_mask(valid_mask, length)
    k_eff = min(k, int(np.count_nonzero(mask)))
    # key = mismatch << shift | reversed position, as in the Hamming key;
    # padding keys have every bit below the sign set, so they sort last
    shift = (length - 1).bit_length()
    key = np.not_equal(cats, np.asarray(target_categories)[:, None]).astype(np.int64) << shift
    key |= np.where(mask, _recency_keys(length, np.int64), np.iinfo(np.int64).max)
    if 0 < k_eff < length:
        key.partition(k_eff - 1, axis=1)
    top = np.sort(key[:, :k_eff], axis=1)
    return length - 1 - (top & ((1 << shift) - 1)), (top >> shift) == 0


def recall_at_k(retrieved, exact) -> float:
    """|retrieved ∩ exact| / |exact|, as sets of positions."""
    got = set(np.asarray(retrieved).tolist())
    want = set(np.asarray(exact).tolist())
    if not want:
        raise ValueError("exact index set is empty")
    if not got:
        raise ValueError("retrieved index set is empty")
    return len(got & want) / len(want)
