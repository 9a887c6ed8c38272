"""Multi-head target attention over a behavior sequence, per sample.

One query (the candidate item embedding) attends over the sequence rows.
Per head: Q = t W_q, K = S W_k, V = S W_v, weights = softmax(alpha * K Q)
over valid positions, head = weights V; heads are concatenated and mixed
by W_o.  Padding positions are excluded from the softmax, a fully masked
or empty sequence yields the zero vector, and the softmax is computed
with a max shift so large logits cannot overflow.

This is the per-sample forward and backward that training and the
scoring oracle use.  Retrieving variants pass only their selected rows,
in ascending sequence order, so with k >= L they run the exact
floating-point operations of full attention.  Gradients are analytic
(derived by hand, checked against central differences in the tests);
the selection is a fixed gather, so gradients flow into the selected
rows and the projections, never into the selection itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass
class AttentionGrads:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    target: np.ndarray
    sequence: np.ndarray  # (L, d); zero rows at masked positions


def mhta_backward(cache: _Cache, params: MHTAParams, upstream: np.ndarray) -> AttentionGrads:
    """Gradients of upstream . (mhta_with_cache output) w.r.t. weights and inputs."""
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
