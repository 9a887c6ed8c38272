"""Multi-head target attention of a batch of queries over padded row sets.

Query b (a candidate item embedding) attends over the rows of its own
(W, d) block where mask[b] is set.  Per head: Q = t W_q, K = S W_k,
V = S W_v, weights = softmax(alpha * K Q) over valid rows, head =
weights V; heads are concatenated and mixed by W_o.  Padding rows get
weight exactly zero, a block with no valid row (or W = 0) yields the zero
vector, and the softmax is shifted by the row max so large logits cannot
overflow.

The projections are folded so the rows are never projected: the logits
are S (alpha W_k q) and each head is (weights S) W_v, so only two batched
products, (heads x d) by (d x W) and (heads x W) by (W x d), touch the
rows of each query.  Gradients are analytic (derived by hand from the same
form, checked against central differences in the tests).  Retrieving
variants pass only their selected rows, so the selection is a fixed
gather: gradients flow into the selected rows and the projections, never
into the selection itself.  Training, evaluation and the float64
reference forward run these two functions; request serving folds the
same algebra across candidates that share one history (see
model.attention_stage).
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


def masked_attention(query: np.ndarray, rows: np.ndarray, mask: np.ndarray, params: MHTAParams):
    """(B, d_out) outputs for query (B, d) over rows (B, W, d) where mask
    (B, W) is set, and the cache masked_attention_backward reads."""
    b, w, d = rows.shape
    if query.shape != (b, d) or mask.shape != (b, w) or d != params.d:
        raise ValueError(f"query {query.shape}, rows {rows.shape} and mask {mask.shape}"
                         f" do not fit d={params.d}")
    q = np.matmul(query, params.wq)  # (n_heads, B, d_head)
    qk = (params.alpha * np.matmul(q, params.wk.transpose(0, 2, 1))).transpose(1, 0, 2)  # (B, H, d)
    logits = np.where(mask[:, None, :], np.matmul(qk, rows.transpose(0, 2, 1)), -np.inf)
    top = logits.max(axis=2, keepdims=True, initial=-np.inf)
    top[top == -np.inf] = 0.0  # no valid row: every weight below comes out 0
    weights = np.exp(logits - top)
    total = weights.sum(axis=2, keepdims=True)
    weights /= np.where(total > 0.0, total, 1.0)
    pooled = np.matmul(weights, rows)  # (B, H, d)
    heads = np.matmul(pooled.transpose(1, 0, 2), params.wv).transpose(1, 0, 2).reshape(b, -1)
    return heads @ params.wo, (query, rows, q, qk, weights, pooled, heads)


def masked_attention_backward(cache, params: MHTAParams, upstream: np.ndarray):
    """Gradients of sum(upstream * output): ({"wq", "wk", "wv", "wo"},
    query (B, d), rows (B, W, d)); masked rows get exactly zero."""
    query, rows, q, qk, weights, pooled, heads = cache
    b = query.shape[0]
    g_heads = (upstream @ params.wo.T).reshape(b, params.n_heads, -1).transpose(1, 0, 2)
    g_wv = np.matmul(pooled.transpose(1, 2, 0), g_heads)  # (H, d, d_head)
    g_pooled = np.matmul(g_heads, params.wv.transpose(0, 2, 1)).transpose(1, 0, 2)  # (B, H, d)
    g_w = np.matmul(g_pooled, rows.transpose(0, 2, 1))
    g_logits = weights * (g_w - (weights * g_w).sum(axis=2, keepdims=True))
    g_rows = (np.matmul(weights.transpose(0, 2, 1), g_pooled)
              + np.matmul(g_logits.transpose(0, 2, 1), qk))
    g_qk = params.alpha * np.matmul(g_logits, rows).transpose(1, 0, 2)  # (H, B, d)
    g_q = np.matmul(g_qk, params.wk)  # (H, B, d_head)
    grads = {
        "wq": np.matmul(query.T, g_q),
        "wk": np.matmul(g_qk.transpose(0, 2, 1), q),
        "wv": g_wv,
        "wo": heads.T @ upstream,
    }
    return grads, np.matmul(g_q, params.wq.transpose(0, 2, 1)).sum(axis=0), g_rows
