"""Multi-head target attention of a batch of queries over padded row sets.

Query b (a candidate item embedding) attends over the rows where the mask
is set, of one row set shared by every query or of its own.  Per head:
Q = t W_q, K = S W_k, V = S W_v, weights = softmax(alpha * K Q) over
valid rows, head = weights V; heads are concatenated and mixed by W_o.
Padding rows get weight exactly zero, a query with no valid row (or W = 0)
yields the zero vector, and the softmax is shifted by the row max so
large logits cannot overflow.

The projections are folded so the rows are never projected: per head,
alpha W_q W_k^T is one (d, d) block of a (d, n_heads * d) query-key matrix
and W_v W_o one (d, d_out) block of an (n_heads * d, d_out) value-output
matrix, so the logits are (t QK) S^T and the output is (weights S) VO.
Gradients are analytic (derived by hand from the same form, checked
against central differences in the tests).  Retrieving variants pass only
their selected rows, so the selection is a fixed gather: gradients flow
into the selected rows and the projections, never into the selection
itself.  The model's one forward pass attends through masked_attention
over either window form: one row set shared by a request's candidates,
or one per sample.  Only full attention over a shared window, which
projects each distinct history row once per request, has its own kernel.
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


def _folded(params: MHTAParams):
    """(d, n_heads * d) query-key matrix with head h's block alpha W_q[h]
    W_k[h]^T, and (n_heads * d, d_out) value-output matrix with head h's
    block W_v[h] W_o[h]."""
    n_h, d, d_h = params.wq.shape
    qk = params.alpha * np.matmul(params.wq, params.wk.transpose(0, 2, 1))  # (n_heads, d, d)
    vo = np.matmul(params.wv, params.wo.reshape(n_h, d_h, -1))  # (n_heads, d, d_out)
    return qk.transpose(1, 0, 2).reshape(d, n_h * d), vo.reshape(n_h * d, -1)


def _softmax_rows(logits: np.ndarray, mask=None) -> np.ndarray:
    """In-place softmax along the last axis, over the entries where mask
    (broadcast against logits; None for all) is set.  Unset entries are
    -inf before the max, so they weigh 0, and a row with none set is all 0.

    The row max is taken down the columns of a transposed copy: NumPy's
    max over many short rows costs several times more than over one long
    contiguous axis, and a max is exact in any order."""
    c = logits.shape[-1]
    if c == 0:
        return logits
    if mask is not None:
        np.copyto(logits, -np.inf, where=~mask)
        empty = ~mask.any(axis=-1, keepdims=True)
    row_max = np.ascontiguousarray(logits.reshape(-1, c).T).max(axis=0)
    row_max = row_max.reshape(logits.shape[:-1] + (1,))
    if mask is not None:
        np.copyto(row_max, 0.0, where=empty)  # so -inf - max is -inf, not NaN
    logits -= row_max
    np.exp(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    if mask is not None:
        np.copyto(total, 1.0, where=empty)
    logits /= total
    return logits


def masked_attention(query: np.ndarray, rows: np.ndarray, mask: np.ndarray, params: MHTAParams):
    """(B, d_out) outputs for query (B, d) over the rows where the boolean
    mask is set, and the cache masked_attention_backward reads.

    rows (W, d) with mask (W,) is one row set shared by every query, with
    no cache (None); rows (B, W, d) with mask (B, W) is one row set per
    query.  Outputs keep the dtype of the inputs and weights."""
    shared = rows.ndim == 2
    d = params.d
    if (query.ndim != 2 or query.shape[1] != d or rows.ndim not in (2, 3) or rows.shape[-1] != d
            or mask.shape != rows.shape[:-1] or not (shared or rows.shape[0] == query.shape[0])):
        raise ValueError(f"query {query.shape}, rows {rows.shape} and mask {mask.shape}"
                         f" do not fit d={d}")
    b, n_h = query.shape[0], params.n_heads
    qk_w, vo_w = _folded(params)
    if shared:
        if not mask.all():
            rows = rows[mask]
        if rows.shape[0] == 0:
            return np.zeros((b, vo_w.shape[1]), np.result_type(query, rows, vo_w)), None
        weights = _softmax_rows((query @ qk_w).reshape(b * n_h, d) @ rows.T)  # (B * n_heads, W)
        return (weights @ rows).reshape(b, n_h * d) @ vo_w, None
    qk = (query @ qk_w).reshape(b, n_h, d)
    weights = _softmax_rows(np.matmul(qk, rows.transpose(0, 2, 1)),  # (B, n_heads, W)
                            None if mask.all() else mask[:, None, :])
    pooled = np.matmul(weights, rows)  # (B, n_heads, d)
    return pooled.reshape(b, n_h * d) @ vo_w, (query, rows, qk, weights, pooled, qk_w, vo_w)


def masked_attention_backward(cache, params: MHTAParams, upstream: np.ndarray):
    """Gradients of sum(upstream * output) for one row set per query:
    ({"wq", "wk", "wv", "wo"}, query (B, d), rows (B, W, d)); masked rows
    get exactly zero."""
    query, rows, qk, weights, pooled, qk_w, vo_w = cache
    b, n_h, d = qk.shape
    g_heads = (upstream @ params.wo.T).reshape(b, n_h, -1).transpose(1, 0, 2)  # (H, B, d_head)
    heads = np.matmul(pooled.transpose(1, 0, 2), params.wv).transpose(1, 0, 2).reshape(b, -1)
    g_pooled = (upstream @ vo_w.T).reshape(b, n_h, d)
    g_w = np.matmul(g_pooled, rows.transpose(0, 2, 1))
    g_logits = weights * (g_w - (weights * g_w).sum(axis=2, keepdims=True))
    g_rows = (np.matmul(weights.transpose(0, 2, 1), g_pooled)
              + np.matmul(g_logits.transpose(0, 2, 1), qk))
    g_qk = np.matmul(g_logits, rows).reshape(b, n_h * d)
    # head h's (d, d) block of the query-key matrix, alpha folded in
    g_qk_w = params.alpha * (query.T @ g_qk).reshape(d, n_h, d).transpose(1, 0, 2)
    grads = {
        "wq": np.matmul(g_qk_w, params.wk),
        "wk": np.matmul(g_qk_w.transpose(0, 2, 1), params.wq),
        "wv": np.matmul(pooled.transpose(1, 2, 0), g_heads),
        "wo": heads.T @ upstream,
    }
    return grads, g_qk @ qk_w.T, g_rows
