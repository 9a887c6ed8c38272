"""Top-k selection over a behavior sequence.

All selectors share one ordering contract: candidates are ranked by
score (smaller Hamming distance is better, larger cosine is better),
and ties are broken in favor of the larger sequence position, i.e. the
more recent behavior.  Padding positions (valid_mask False) never appear
in the result.  When k is at least the number of valid positions, every
valid position is returned, so a saturated retrieval degrades to the
full sequence.

Each method has one selector, and each selector takes its keys in two
forms: one sequence shared by every query (request scoring: many
candidates, one history), or one sequence per query (training,
evaluation, forward and long_selection: one target per sample, each
against its own padded window, in one call per batch).  Rows are
(n_queries, k_eff) with k_eff = min(k, the largest valid count); a row
with fewer valid keys ends in position -1, with distance -1, cosine NaN
or match False.

Every selector ranks by one shift-coded int key, key = (score << s) |
reversed position with s = (L - 1).bit_length(), where the smallest key
wins: it orders exactly as score * L + reversed position does, and
decodes with a mask and a shift instead of integer % and //.  Padding
positions carry the key dtype's largest value (every bit below the sign
set) in place of their low bits, and OR-ing that into any non-negative
key gives it back, so masking needs no scatter, and a padding key is
recognisable after the sort.

The Hamming selector ranks by total distance across all hash rounds and
never materializes a full sort.  Every pass reads contiguous,
cache-resident operands:

- Row blocks sized for L2.  Query rows are processed in blocks whose
  XOR, popcount and composite arrays together hold about 64k elements
  (about 850 KB, inside the 2 MiB per-core L2 of the x86_64 hosts this
  was measured on).  Each block's rows are partitioned whole and only
  their k winners are kept, so one small (n, k) sort finishes the job.
  One pass over a (128 x 2048) matrix would spill L2 between passes.
  The arrays are allocated per block and kept by no call, so concurrent
  selectors share nothing.
- Contiguous XOR operands.  The block's query column is tiled into the
  XOR buffer first, and the key row is XORed into it.  NumPy's uint64
  XOR costs about 1.0 ns per element with the query broadcast as a
  stride-0 operand and about 0.35 ns with two contiguous operands.

The angular selector is exact top-k by cosine, the quantity SimHash
approximates (two vectors at angle theta agree on a hash bit with
probability 1 - theta/pi), and ranks cosines at float32 resolution.
Cosines are computed in float64 from unit vectors with one product per
row block (a GEMM for shared keys, a batched matrix-vector product for
per-query keys), then rounded to float32.  BLAS does not compute a dot
product the same way at every position of a matrix, or in a one-row and
a many-row call: with OpenBLAS 0.3.31, repeated key rows got unequal
float64 cosines in 152 of 200 random (queries x keys) products, and a
one-row call differed from the same row of the batch in all 200.  The
rounding absorbs those last-bit differences, so repeated keys tie exactly
and their order is recency, and a query selects the same rows whatever
batch it comes in.  The rounded cosine's sortable integer form,
subtracted from 2**31 - 1 so the key stays non-negative and the best
cosine is smallest, is shifted above the position bits.  Padding columns
are masked like the Hamming key's; zero-norm keys get cosine -inf, and a
zero-norm query gets cosine 0 everywhere, so its row is pure recency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fingerprint import FingerprintTable, _check_comparable

# Keys per row block of every selector: hamming_top_k_batch's XOR,
# popcount and key arrays then total about 850 KB, inside the 2 MiB
# per-core L2 measured on the x86_64 serving host (see the module docstring).
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class TopKResult:
    """Selected sequence positions, best first."""

    indices: np.ndarray  # int64, positions into the original sequence
    scores: np.ndarray  # distance / similarity / match flag, aligned with indices
    n_valid: int


def _low_keys(valid_mask, key_shape: tuple, n: int, k: int, dtype):
    """Checks the arguments every selector shares and returns (mask, low
    key bits, k_eff, short) for keys of shape (L,), shared by all n
    queries, or (n, L), one row per query.

    The low bits are the reversed positions, with the key dtype's largest
    value at padding, so OR-ing them into a non-negative key ranks padding
    last.  k_eff is min(k, the largest valid count); short says some row
    has fewer valid keys than k_eff, so its tail reads -1.  A shared mask
    costs one scalar count and is never short."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(key_shape) == 2 and key_shape[0] != n:
        raise ValueError(f"{key_shape[0]} key sets for {n} queries")
    mask = np.asarray(valid_mask, dtype=bool)
    if mask.shape != key_shape:
        raise ValueError(f"valid_mask shape {mask.shape} does not match keys {key_shape}")
    low = np.arange(key_shape[-1] - 1, -1, -1, dtype=dtype)
    if mask.ndim == 1:
        n_valid = int(np.count_nonzero(mask))
        if n_valid < mask.shape[0]:
            low = np.where(mask, low, np.iinfo(dtype).max)
        return mask, low, min(k, n_valid), False
    counts = np.count_nonzero(mask, axis=1)
    k_eff = min(k, int(counts.max(initial=0)))
    return mask, np.where(mask, low, np.iinfo(dtype).max), k_eff, bool((counts < k_eff).any())


def _top_k(n: int, length: int, k_eff: int, short: bool, shift: int, dtype, block_keys):
    """(positions, score bits), each (n, k_eff), best first.

    block_keys(rows) makes the (rows, length) keys of one row block, where
    the smallest key wins and its low shift bits are the reversed
    position; each block is partitioned whole and keeps its k_eff smallest.
    The key is invertible, so selection never needs index arrays: the
    survivors are sorted and position and score read back out of the
    bits.  Both read -1 where a row ran out of valid keys."""
    top = np.empty((n, k_eff), dtype)
    step = max(1, _BLOCK_ELEMENTS // max(length, 1))
    for start in range(0, n if k_eff else 0, step):  # k_eff = 0: nothing to select
        rows = slice(start, start + step)
        key = block_keys(rows)
        if k_eff < length:
            key.partition(k_eff - 1, axis=1)
        top[rows] = key[:, :k_eff]
    top.sort(axis=1)
    t = top.dtype.type
    pos = (t(length - 1) - (top & t((1 << shift) - 1))).astype(np.int64)
    bits = (top >> shift).astype(np.int64)
    if short:
        pad = top == np.iinfo(dtype).max
        pos[pad] = -1
        bits[pad] = -1
    return pos, bits


def _distance_keys(q: np.ndarray, kt: np.ndarray, shift: int, ctype) -> np.ndarray:
    """distance << shift for one block of query rows against their keys,
    (n_block, length), in fresh arrays.  kt[w] is word w of the shared keys
    (length,) or of each row's own keys (n_block, length).

    Each word's query column is tiled into the XOR buffer before the key
    row is XORed in, so the XOR reads two contiguous operands."""
    shape = (q.shape[0], kt.shape[-1])
    buf = np.empty(shape, np.uint64)
    pc = np.empty(shape, np.uint8)
    composite = np.empty(shape, ctype)
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


def hamming_top_k_batch(queries: FingerprintTable, keys: FingerprintTable, valid_mask, k: int):
    """Row-wise top-k for a batch of queries, against one key table shared
    by every query (keys.words (L, w), valid_mask (L,)) or one key set per
    query (keys.words (n, L, w), valid_mask (n, L)).

    Returns (indices, distances) of shape (n_queries, k_eff), each row
    ordered by distance, ties to the more recent position.
    """
    _check_comparable(queries, keys)
    qwords, kwords = queries.words, keys.words
    n, length, per_query = qwords.shape[0], kwords.shape[-2], kwords.ndim == 3
    # key = distance << shift | reversed position; narrow keys partition
    # measurably faster, and int32 holds every realistic (length, bits)
    shift = (length - 1).bit_length()
    ctype = np.int32 if (keys.rounds * keys.bits_per_round + 1) << shift < 2**31 else np.int64
    _, low, k_eff, short = _low_keys(valid_mask, kwords.shape[:-1], n, k, ctype)
    kt = np.ascontiguousarray(kwords.transpose(2, 0, 1) if per_query else kwords.T)

    def block_keys(rows):
        composite = _distance_keys(qwords[rows], kt[:, rows] if per_query else kt, shift, ctype)
        composite |= low[rows] if per_query else low
        return composite

    return _top_k(n, length, k_eff, short, shift, ctype, block_keys)


def _sortable(bits: np.ndarray) -> np.ndarray:
    """In place: float32 bit patterns (as int32) to ints that order as the
    floats do, -inf lowest; the map is its own inverse."""
    sign = np.right_shift(bits, 31)
    sign &= 0x7FFFFFFF
    bits ^= sign
    return bits


# sortable(-inf) is -2**31 + 2**23 - 1, so _COSINE_TOP minus a sortable
# cosine is non-negative (OR-ing padding's all-ones low bits into a negative
# key would give -1, which ranks first) and smallest for the best cosine
_COSINE_TOP = np.int64(2**31 - 1)


def _unit_rows(x: np.ndarray):
    """(float64 rows scaled to unit norm, zero rows left zero, norms)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.einsum("...j,...j->...", x, x))
    return x / np.where(norms > 0.0, norms, 1.0)[..., None], norms


def angular_top_k_batch(queries, keys, valid_mask, k: int):
    """Row-wise top-k by cosine for a batch of query vectors, against one
    key matrix shared by every query (keys (L, d), valid_mask (L,)) or one
    key matrix per query (keys (n, L, d), valid_mask (n, L)).

    Returns (indices, cosines) of shape (n_queries, k_eff): positions
    into keys, best first, and their cosines rounded to float32 (held as
    float64), NaN past a row's valid keys.  Ties, at that resolution, go
    to the more recent position.
    """
    q = np.asarray(queries)
    mat = np.asarray(keys)
    if q.ndim != 2 or mat.ndim not in (2, 3) or q.shape[1] != mat.shape[-1]:
        raise ValueError(f"queries shape {q.shape} does not match keys {mat.shape}")
    n, length, per_query = q.shape[0], mat.shape[-2], mat.ndim == 3
    mask, low, k_eff, short = _low_keys(valid_mask, mat.shape[:-1], n, k, np.int64)
    unit_keys, key_norms = _unit_rows(mat)
    unit_q, q_norms = _unit_rows(q)
    zero_keys = (key_norms == 0.0) & mask
    has_zero_keys = bool(zero_keys.any())
    # key = (_COSINE_TOP - sortable(cosine)) << shift | reversed position
    shift = (length - 1).bit_length()

    def block_keys(rows):
        uq = unit_q[rows]
        if per_query:
            cos = np.matmul(unit_keys[rows], uq[:, :, None])[:, :, 0]
        else:
            cos = uq @ unit_keys.T
        if has_zero_keys:
            zero = zero_keys[rows] if per_query else zero_keys
            cos[zero & (q_norms[rows] > 0.0)[:, None]] = -np.inf
        rounded = cos.astype(np.float32)
        rounded += 0.0  # -0.0 to +0.0, so equal cosines share one key
        key = _COSINE_TOP - _sortable(rounded.view(np.int32))
        key <<= shift
        key |= low[rows] if per_query else low
        return key

    idx, bits = _top_k(n, length, k_eff, short, shift, np.int64, block_keys)
    cosines = _sortable((_COSINE_TOP - bits).astype(np.int32)).view(np.float32).astype(np.float64)
    cosines[idx < 0] = np.nan
    return idx, cosines


def category_hard_search_batch(target_categories, categories, valid_mask, k: int):
    """Row-wise k most recent behaviors in each target category, backfilled
    with the most recent non-matching behaviors: (indices, matches), each
    (n_targets, k_eff), for a batch of target categories against one
    shared sequence (categories and valid_mask (L,)) or one sequence per
    target ((n, L))."""
    targets = np.asarray(target_categories)
    cats = np.asarray(categories)
    if targets.ndim != 1 or cats.ndim not in (1, 2):
        raise ValueError(f"categories shape {cats.shape} does not match targets {targets.shape}")
    n, length, per_query = targets.shape[0], cats.shape[-1], cats.ndim == 2
    _, low, k_eff, short = _low_keys(valid_mask, cats.shape, n, k, np.int64)
    # key = mismatch << shift | reversed position, as in the Hamming key
    shift = (length - 1).bit_length()

    def block_keys(rows):
        key = np.not_equal(cats[rows] if per_query else cats, targets[rows, None]).astype(np.int64)
        key <<= shift
        key |= low[rows] if per_query else low
        return key

    idx, bits = _top_k(n, length, k_eff, short, shift, np.int64, block_keys)
    return idx, bits == 0


def recall_at_k(retrieved, exact) -> float:
    """|retrieved ∩ exact| / |exact|, as sets of positions."""
    got = set(np.asarray(retrieved).tolist())
    want = set(np.asarray(exact).tolist())
    if not want:
        raise ValueError("exact index set is empty")
    if not got:
        raise ValueError("retrieved index set is empty")
    return len(got & want) / len(want)
