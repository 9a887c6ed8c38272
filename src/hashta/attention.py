"""Target attention over a behavior sequence, full or retrieval-restricted.

One query (the candidate item embedding) attends over the sequence rows.
Per head: Q = t W_q, K = S W_k, V = S W_v, weights = softmax(alpha * K Q)
over valid positions, head = weights V; heads are concatenated and mixed
by W_o.  Padding positions are excluded from the softmax, a fully masked
or empty sequence yields the zero vector, and the softmax is computed
with a max shift so large logits cannot overflow.

The restricted variant fingerprints the raw target and sequence
embeddings with a shared hash family, keeps the top-k rows by Hamming
distance, and runs the same attention over the kept rows only.  Kept
rows are gathered in ascending sequence order, so with k >= L the
restricted path executes the exact floating-point operations of the full
path and the two are bit-identical, not merely close.

Gradients are analytic (derived by hand, checked against central
differences in the tests).  The top-k selection is treated as a fixed
gather: gradients flow into the selected rows and the projections, never
into the selection itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fingerprint import FingerprintTable, HashFamily, fingerprint_batch, simhash
from .retrieval import TopKResult, top_k_by_hamming


@dataclass(frozen=True)
class MHTAParams:
    """Projection weights for one multi-head target attention block."""

    wq: np.ndarray  # (n_heads, d, d_head)
    wk: np.ndarray  # (n_heads, d, d_head)
    wv: np.ndarray  # (n_heads, d, d_head)
    wo: np.ndarray  # (n_heads * d_head, d)
    alpha: float  # a Python float, so it never widens float32 weights

    @property
    def n_heads(self) -> int:
        return self.wq.shape[0]

    @property
    def d(self) -> int:
        return self.wq.shape[1]

    @property
    def d_head(self) -> int:
        return self.wq.shape[2]


def init_mhta_params(
    d: int, n_heads: int, seed: int, d_head: Optional[int] = None
) -> MHTAParams:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) init; d_head defaults to d / n_heads."""
    if d < 1 or n_heads < 1:
        raise ValueError(f"d and n_heads must be positive, got d={d}, n_heads={n_heads}")
    if d_head is None:
        if d % n_heads != 0:
            raise ValueError(f"d={d} not divisible by n_heads={n_heads}")
        d_head = d // n_heads
    if d_head < 1:
        raise ValueError(f"d_head must be positive, got {d_head}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    shape = (n_heads, d, d_head)
    wq = rng.uniform(-bound, bound, shape)
    wk = rng.uniform(-bound, bound, shape)
    wv = rng.uniform(-bound, bound, shape)
    wo = rng.uniform(-bound, bound, (n_heads * d_head, d))
    return MHTAParams(wq, wk, wv, wo, 1.0 / math.sqrt(d_head))


@dataclass(frozen=True)
class AttentionInput:
    target: np.ndarray  # (d,)
    sequence: np.ndarray  # (L, d)
    valid_mask: np.ndarray  # (L,) bool


def _check_input(inp: AttentionInput, d: int):
    t = np.asarray(inp.target, dtype=np.float64)
    s = np.asarray(inp.sequence, dtype=np.float64)
    m = np.asarray(inp.valid_mask, dtype=bool)
    if t.shape != (d,):
        raise ValueError(f"target shape {t.shape}, expected ({d},)")
    if s.ndim != 2 or s.shape[1] != d:
        raise ValueError(f"sequence shape {s.shape}, expected (L, {d})")
    if m.shape != (s.shape[0],):
        raise ValueError(f"mask shape {m.shape} does not match sequence length {s.shape[0]}")
    return t, s, m


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over masked-in entries; all-masked input gives all zeros."""
    w = np.zeros_like(logits)
    if not mask.any():
        return w
    shifted = logits[mask] - logits[mask].max()
    e = np.exp(shifted)
    w[mask] = e / e.sum()
    return w


def single_head_attention(query, keys, values, alpha: float, valid_mask) -> np.ndarray:
    """One attention head: softmax(alpha * K q) applied to V."""
    q = np.asarray(query, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    mask = np.asarray(valid_mask, dtype=bool)
    if k.ndim != 2 or q.shape != (k.shape[1],):
        raise ValueError(f"query shape {q.shape} does not match keys {k.shape}")
    if v.ndim != 2 or v.shape[0] != k.shape[0]:
        raise ValueError(f"values shape {v.shape} does not match keys {k.shape}")
    if mask.shape != (k.shape[0],):
        raise ValueError(f"mask shape {mask.shape} does not match keys {k.shape}")
    w = masked_softmax(alpha * (k @ q), mask)
    return w @ v


class _Cache:
    __slots__ = ("target", "seq", "mask", "q", "k", "v", "w", "concat")


def mhta_with_cache(inp: AttentionInput, params: MHTAParams):
    t, s, mask = _check_input(inp, params.d)
    n_h, d_h = params.n_heads, params.d_head
    cache = _Cache()
    cache.target, cache.seq, cache.mask = t, s, mask
    cache.q = np.empty((n_h, d_h))
    cache.k = np.empty((n_h, s.shape[0], d_h))
    cache.v = np.empty((n_h, s.shape[0], d_h))
    cache.w = np.empty((n_h, s.shape[0]))
    concat = np.empty(n_h * d_h)
    for h in range(n_h):
        q = t @ params.wq[h]
        k = s @ params.wk[h]
        v = s @ params.wv[h]
        w = masked_softmax(params.alpha * (k @ q), mask)
        cache.q[h], cache.k[h], cache.v[h], cache.w[h] = q, k, v, w
        concat[h * d_h : (h + 1) * d_h] = w @ v
    cache.concat = concat
    return concat @ params.wo, cache


def mhta(inp: AttentionInput, params: MHTAParams) -> np.ndarray:
    out, _ = mhta_with_cache(inp, params)
    return out


@dataclass
class AttentionGrads:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    target: np.ndarray
    sequence: np.ndarray  # (L, d); zero rows at masked positions


def mhta_backward(cache: _Cache, params: MHTAParams, upstream: np.ndarray) -> AttentionGrads:
    """Gradients of upstream . mhta(...) w.r.t. weights and inputs."""
    t, s = cache.target, cache.seq
    n_h, d_h = params.n_heads, params.d_head
    g = AttentionGrads(
        wq=np.zeros_like(params.wq),
        wk=np.zeros_like(params.wk),
        wv=np.zeros_like(params.wv),
        wo=np.outer(cache.concat, upstream),
        target=np.zeros_like(t),
        sequence=np.zeros_like(s),
    )
    g_concat = params.wo @ upstream
    for h in range(n_h):
        q, k, v, w = cache.q[h], cache.k[h], cache.v[h], cache.w[h]
        g_head = g_concat[h * d_h : (h + 1) * d_h]
        g_w = v @ g_head
        g_v = np.outer(w, g_head)
        g_logits = w * (g_w - w @ g_w)  # masked rows have w == 0, so they stay 0
        g_q = params.alpha * (g_logits @ k)
        g_k = params.alpha * np.outer(g_logits, q)
        g.wq[h] = np.outer(t, g_q)
        g.target += params.wq[h] @ g_q
        g.wk[h] = s.T @ g_k
        g.wv[h] = s.T @ g_v
        g.sequence += g_k @ params.wk[h].T + g_v @ params.wv[h].T
    return g


def attention_gradients(
    inp: AttentionInput, params: MHTAParams, upstream: np.ndarray
) -> AttentionGrads:
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != (params.d,):
        raise ValueError(f"upstream shape {up.shape}, expected ({params.d},)")
    _, cache = mhta_with_cache(inp, params)
    return mhta_backward(cache, params, up)


def restrict(inp: AttentionInput, indices: np.ndarray) -> AttentionInput:
    """Attention input over the selected rows, kept in ascending sequence order."""
    sel = np.sort(np.asarray(indices, dtype=np.int64))
    seq = np.asarray(inp.sequence, dtype=np.float64)[sel]
    return AttentionInput(inp.target, seq, np.ones(sel.shape[0], dtype=bool))


def eta_attention(
    inp: AttentionInput,
    params: MHTAParams,
    family: HashFamily,
    k: int,
    precomputed_key_fps: Optional[FingerprintTable] = None,
    hash_projected: bool = False,
):
    """Hash, retrieve top-k by Hamming distance, attend over the kept rows.

    Returns (output, TopKResult).  By default the raw d-dimensional
    embeddings are hashed, which is what makes precomputed per-item
    fingerprint tables possible.  With hash_projected=True the head-0
    projected query/keys are hashed instead (family dim must equal
    d_head); that variant cannot use a precomputed table."""
    t, s, mask = _check_input(inp, params.d)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if hash_projected:
        if precomputed_key_fps is not None:
            raise ValueError("precomputed fingerprints are per-item; they cannot back hash_projected")
        if family.dim != params.d_head:
            raise ValueError(
                f"family dim {family.dim} must equal d_head {params.d_head} for hash_projected"
            )
        query_fp = simhash(t @ params.wq[0], family)
        key_fps = fingerprint_batch(s @ params.wk[0], family)
    else:
        if family.dim != params.d:
            raise ValueError(f"family dim {family.dim} must equal d {params.d}")
        query_fp = simhash(t, family)
        if precomputed_key_fps is not None:
            if len(precomputed_key_fps) != s.shape[0]:
                raise ValueError(
                    f"precomputed table has {len(precomputed_key_fps)} rows,"
                    f" sequence has {s.shape[0]}"
                )
            key_fps = precomputed_key_fps
        else:
            key_fps = fingerprint_batch(s, family)
    top = top_k_by_hamming(query_fp, key_fps, mask, k)
    out = mhta(restrict(AttentionInput(t, s, mask), top.indices), params)
    return out, top
