import math

import numpy as np
import pytest

from hashta import attention
from hashta.attention import MHTAParams, masked_attention, masked_attention_backward
from hashta.model import ModelConfig, init_params
from oracles import softmax_oracle, with_specials


def attention_params(d, n_heads, seed) -> MHTAParams:
    """A seeded d-dim, n_heads block, drawn as the model's init draws one."""
    rng = np.random.default_rng(seed)
    d_h = d // n_heads
    bound = 1.0 / np.sqrt(d)
    wq, wk, wv = (rng.uniform(-bound, bound, (n_heads, d, d_h)) for _ in range(3))
    return MHTAParams(wq, wk, wv, rng.uniform(-bound, bound, (d, d)), 1.0 / math.sqrt(d_h))


def attend(target, sequence, mask, params: MHTAParams) -> np.ndarray:
    """One query over one row set: a batch of one."""
    out, _ = masked_attention(np.asarray(target, float)[None], np.asarray(sequence, float)[None],
                              np.asarray(mask, bool)[None], params)
    return out[0]


def loop_mhta(target, sequence, mask, params: MHTAParams) -> np.ndarray:
    """Plain-loop oracle: no masking tricks, no vectorized softmax."""
    t = np.asarray(target, float)
    s = np.asarray(sequence, float)
    pieces = []
    for h in range(params.n_heads):
        q = t @ params.wq[h]
        logits = [params.alpha * float(s[i] @ params.wk[h] @ q) for i in range(len(s))]
        valid = [i for i in range(len(s)) if mask[i]]
        head = np.zeros(params.d_head)
        if valid:
            mx = max(logits[i] for i in valid)
            exps = {i: np.exp(logits[i] - mx) for i in valid}
            z = sum(exps.values())
            for i in valid:
                head += (exps[i] / z) * (s[i] @ params.wv[h])
        pieces.append(head)
    return np.concatenate(pieces) @ params.wo


def random_batch(seed, batch=3, d=6, n_heads=2, length=9, mask_p=0.8):
    """(targets (B, d), sequences (B, L, d), masks (B, L)), params."""
    rng = np.random.default_rng(seed)
    params = attention_params(d, n_heads, seed)
    return (rng.standard_normal((batch, d)), rng.standard_normal((batch, length, d)),
            rng.random((batch, length)) < mask_p), params


def softmax_weights(logits, mask) -> np.ndarray:
    """The attention weights over rows whose logits are given: with identity
    projections and query e_0, row i = (logits[i], e_i) scores logits[i],
    and output 1 + i reads back its weight."""
    n = len(logits)
    eye = np.eye(n + 1)
    params = MHTAParams(eye[None], eye[None], eye[None], eye, 1.0)
    rows = np.concatenate([np.asarray(logits, float)[:, None], np.eye(n)], axis=1)
    return attend(eye[0], rows, mask, params)[1:]


# ---------------------------------------------------------------------------
# forward


def test_init_is_seeded_and_bounded():
    def model_block(seed):
        config = ModelConfig(d=8, n_heads=2, n_items=1, n_categories=1, n_users=1, seed=seed)
        return init_params(config).long_attn

    a, b, c = model_block(3), model_block(3), model_block(4)
    np.testing.assert_array_equal(a.wq, b.wq)
    assert not np.array_equal(a.wq, c.wq)
    bound = 1.0 / np.sqrt(8)
    for w in (a.wq, a.wk, a.wv, a.wo):
        assert np.all(np.abs(w) <= bound)
    assert a.alpha == pytest.approx(1.0 / 2.0)  # d_head = 4
    assert type(a.alpha) is float
    assert (a.n_heads, a.d, a.d_head) == (2, 8, 4)


def test_init_rejects_bad_dims():
    # attention dims come from the model config, which checks them
    with pytest.raises(ValueError):
        ModelConfig(d=6, n_heads=4)  # not divisible
    with pytest.raises(ValueError):
        ModelConfig(d=0, n_heads=1)


def test_masked_softmax_basics():
    logits = np.array([1.0, 2.0, 3.0, 4.0])
    mask = np.array([True, False, True, True])
    w = softmax_weights(logits, mask)
    assert w[1] == 0.0
    assert w.sum() == pytest.approx(1.0)
    assert w[3] > w[2] > w[0]
    # shift invariance
    np.testing.assert_allclose(softmax_weights(logits + 100.0, mask), w, atol=1e-12)
    # huge logits must not overflow
    assert np.isfinite(softmax_weights(np.array([1e4, -1e4]), np.ones(2, bool))).all()
    assert softmax_weights(logits, np.zeros(4, bool)).tolist() == [0.0] * 4


def test_single_head_matches_manual():
    # one head with identity projections: softmax(K q) applied to V = K
    eye = np.eye(2)
    params = MHTAParams(eye[None], eye[None], eye[None], eye, 1.0)
    keys = np.array([[2.0, 0.0], [0.0, 1.0]])
    out = attend(np.array([1.0, 0.0]), keys, np.ones(2, bool), params)
    w0 = math.exp(2.0) / (math.exp(2.0) + math.exp(0.0))
    expect = w0 * keys[0] + (1 - w0) * keys[1]
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_mhta_matches_loop_oracle():
    for seed in range(4):
        (targets, seqs, masks), params = random_batch(seed, batch=12)
        out, _ = masked_attention(targets, seqs, masks, params)
        for b in range(12):
            np.testing.assert_allclose(out[b], loop_mhta(targets[b], seqs[b], masks[b], params),
                                       atol=1e-10)
        # one row set shared by every query
        out, cache = masked_attention(targets, seqs[0], masks[0], params)
        assert cache is None
        for b in range(12):
            np.testing.assert_allclose(out[b], loop_mhta(targets[b], seqs[0], masks[0], params),
                                       atol=1e-10)


SHARED_CASES = {
    "mixed": lambda rng: np.r_[True, rng.random(8) < 0.6],
    "all_valid": lambda rng: np.ones(9, bool),
    "all_padding": lambda rng: np.zeros(9, bool),
    "empty": lambda rng: np.zeros(0, bool),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(SHARED_CASES))
def test_shared_rows_equal_repeated_per_query_rows(case, dtype):
    rng = np.random.default_rng(12)
    mask = SHARED_CASES[case](rng)
    params = attention_params(6, 2, seed=12)
    params = MHTAParams(*(w.astype(dtype) for w in (params.wq, params.wk, params.wv, params.wo)),
                        params.alpha)
    targets = rng.standard_normal((5, 6)).astype(dtype)
    rows = rng.standard_normal((mask.size, 6)).astype(dtype)
    rows[~mask] = 1e6  # large values in padding must not leak
    shared, cache = masked_attention(targets, rows, mask, params)
    repeated, _ = masked_attention(targets, np.broadcast_to(rows, (5,) + rows.shape),
                                   np.broadcast_to(mask, (5, mask.size)), params)
    assert cache is None
    assert shared.dtype == repeated.dtype == dtype
    tol = 1e-6 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(shared, repeated, rtol=0, atol=tol)
    want = [loop_mhta(t, rows.astype(float), mask, params) for t in targets]
    np.testing.assert_allclose(shared, want, rtol=0, atol=100 * tol)
    if not mask.any():
        np.testing.assert_array_equal(shared, 0.0)
        np.testing.assert_array_equal(repeated, 0.0)


def test_rows_of_a_batch_are_independent():
    # each query's output is its own one-row call's, whatever the others hold
    (targets, seqs, masks), params = random_batch(2, batch=6, mask_p=0.5)
    masks[1] = False  # a query with no valid row next to ones with some
    seqs[2, ~masks[2]] = 1e6  # large values in padding must not leak
    out, _ = masked_attention(targets, seqs, masks, params)
    for b in range(6):
        np.testing.assert_allclose(out[b], attend(targets[b], seqs[b], masks[b], params),
                                   rtol=0, atol=1e-12)


def test_single_valid_row_pipes_value_through():
    (targets, seqs, _), params = random_batch(3, length=5)
    mask = np.zeros(5, bool)
    mask[2] = True
    out = attend(targets[0], seqs[0], mask, params)
    v = np.concatenate([seqs[0, 2] @ params.wv[h] for h in range(params.n_heads)])
    np.testing.assert_allclose(out, v @ params.wo, atol=1e-12)


def test_identical_rows_get_uniform_weights():
    rng = np.random.default_rng(5)
    row = rng.standard_normal(4)
    target = rng.standard_normal(4)
    params = attention_params(4, 2, seed=1)
    one = attend(target, row[None, :], np.ones(1, bool), params)
    np.testing.assert_allclose(attend(target, np.tile(row, (6, 1)), np.ones(6, bool), params), one,
                               atol=1e-12)


def test_all_masked_yields_zero_vector():
    (targets, seqs, _), params = random_batch(7, length=4)
    out, _ = masked_attention(targets, seqs, np.zeros((3, 4), bool), params)
    np.testing.assert_array_equal(out, np.zeros((3, 6)))
    empty, _ = masked_attention(targets, np.zeros((3, 0, 6)), np.zeros((3, 0), bool), params)
    np.testing.assert_array_equal(empty, np.zeros((3, 6)))


def test_masking_equals_deleting_rows():
    (targets, seqs, masks), params = random_batch(9, length=10, mask_p=0.6)
    for b in range(3):
        kept = np.flatnonzero(masks[b])
        np.testing.assert_allclose(attend(targets[b], seqs[b], masks[b], params),
                                   attend(targets[b], seqs[b, kept], np.ones(kept.size, bool),
                                          params), atol=1e-12)


def test_shape_validation():
    (targets, seqs, masks), params = random_batch(0)
    with pytest.raises(ValueError):
        masked_attention(targets[:, :5], seqs, masks, params)
    with pytest.raises(ValueError):
        masked_attention(targets[:, :5], seqs[:, :, :5], masks, params)
    with pytest.raises(ValueError):
        masked_attention(targets, seqs, masks[:, :-1], params)
    with pytest.raises(ValueError):
        masked_attention(targets[:2], seqs, masks, params)
    # shared rows: the mask must be (W,) and the rows (W, d)
    for rows, mask in ((seqs[0], masks[0, :-1]), (seqs[0], masks[:1]), (seqs[0], masks),
                       (seqs[0, :, :5], masks[0]), (seqs[0, 0], masks[0, :1])):
        with pytest.raises(ValueError):
            masked_attention(targets, rows, mask, params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_rows_equals_its_last_axis_oracle(dtype):
    rng = np.random.default_rng(41)
    for shape in [(256, 16), (128, 2, 48), (3, 1), (5, 300)]:
        x = rng.standard_normal(shape).astype(dtype) * dtype(20)
        specials = with_specials(rng, shape, dtype)
        # a (B, 1, W) mask broadcasts over heads, as masked_attention passes it
        mask = rng.random((shape[0], 1, shape[2]) if len(shape) == 3 else shape) < 0.7
        mask[0] = False  # an all-masked row
        for logits in (x, specials):
            for m in (None, mask):
                with np.errstate(invalid="ignore"):  # inf - inf in rows holding +inf
                    want = softmax_oracle(logits.copy(), m)
                    got = attention._softmax_rows(logits.copy(), m)
                assert got.dtype == dtype
                assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# gradients


def fd_gradient(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f()
        flat[i] = keep - eps
        dn = f()
        flat[i] = keep
        gf[i] = (up - dn) / (2 * eps)
    return g


def test_gradients_match_central_differences():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        (targets, seqs, masks), params = random_batch(seed, d=4, n_heads=2, length=5, mask_p=0.7)
        upstream = rng.standard_normal((3, 4))
        out, cache = masked_attention(targets, seqs, masks, params)
        grads, g_targets, g_seqs = masked_attention_backward(cache, params, upstream)

        def loss():
            return float((upstream * masked_attention(targets, seqs, masks, params)[0]).sum())

        for name in ("wq", "wk", "wv", "wo"):
            fd = fd_gradient(loss, getattr(params, name))
            assert grads[name].shape == fd.shape
            assert np.max(np.abs(grads[name] - fd)) < 1e-7, name
        assert np.max(np.abs(g_targets - fd_gradient(loss, targets))) < 1e-7
        assert np.max(np.abs(g_seqs - fd_gradient(loss, seqs))) < 1e-7


def test_masked_rows_receive_zero_gradient():
    (targets, seqs, masks), params = random_batch(11, length=6, mask_p=0.5)
    masks[2] = False
    _, cache = masked_attention(targets, seqs, masks, params)
    _, g_targets, g_seqs = masked_attention_backward(cache, params, np.ones((3, 6)))
    np.testing.assert_array_equal(g_seqs[~masks], 0.0)
    np.testing.assert_array_equal(g_targets[2], 0.0)  # nothing attended, nothing to move
