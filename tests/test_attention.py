import math

import numpy as np
import pytest

from hashta.attention import (
    AttentionInput,
    MHTAParams,
    masked_softmax,
    mhta_backward,
    mhta_with_cache,
)
from hashta.model import ModelConfig, _attn_from_rng


def attention_params(d, n_heads, seed) -> MHTAParams:
    """The model's seeded attention init for a d-dim, n_heads block."""
    return _attn_from_rng(np.random.default_rng(seed), ModelConfig(d=d, n_heads=n_heads))


def mhta(inp: AttentionInput, params: MHTAParams) -> np.ndarray:
    return mhta_with_cache(inp, params)[0]


def attention_gradients(inp: AttentionInput, params: MHTAParams, upstream):
    _, cache = mhta_with_cache(inp, params)
    return mhta_backward(cache, params, np.asarray(upstream, dtype=np.float64))


def loop_mhta(inp: AttentionInput, params: MHTAParams) -> np.ndarray:
    """Plain-loop oracle: no masking tricks, no vectorized softmax."""
    t = np.asarray(inp.target, float)
    s = np.asarray(inp.sequence, float)
    mask = np.asarray(inp.valid_mask, bool)
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


def random_case(seed, d=6, n_heads=2, length=9, mask_p=0.8):
    rng = np.random.default_rng(seed)
    params = attention_params(d, n_heads, seed)
    inp = AttentionInput(
        rng.standard_normal(d),
        rng.standard_normal((length, d)),
        rng.random(length) < mask_p,
    )
    return inp, params


# ---------------------------------------------------------------------------
# forward


def test_init_is_seeded_and_bounded():
    a = attention_params(8, 2, seed=3)
    b = attention_params(8, 2, seed=3)
    c = attention_params(8, 2, seed=4)
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
    w = masked_softmax(logits, mask)
    assert w[1] == 0.0
    assert w.sum() == pytest.approx(1.0)
    assert w[3] > w[2] > w[0]
    # shift invariance
    np.testing.assert_allclose(masked_softmax(logits + 100.0, mask), w, atol=1e-12)
    # huge logits must not overflow
    assert np.isfinite(masked_softmax(np.array([1e4, -1e4]), np.ones(2, bool))).all()
    assert masked_softmax(logits, np.zeros(4, bool)).tolist() == [0.0] * 4


def test_single_head_matches_manual():
    # one head with identity projections: softmax(K q) applied to V = K
    eye = np.eye(2)
    params = MHTAParams(eye[None], eye[None], eye[None], eye, 1.0)
    keys = np.array([[2.0, 0.0], [0.0, 1.0]])
    out = mhta(AttentionInput(np.array([1.0, 0.0]), keys, np.ones(2, bool)), params)
    w0 = math.exp(2.0) / (math.exp(2.0) + math.exp(0.0))
    expect = w0 * keys[0] + (1 - w0) * keys[1]
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_mhta_matches_loop_oracle():
    for seed in range(12):
        inp, params = random_case(seed)
        np.testing.assert_allclose(mhta(inp, params), loop_mhta(inp, params), atol=1e-10)


def test_single_valid_row_pipes_value_through():
    inp, params = random_case(3, length=5)
    mask = np.zeros(5, bool)
    mask[2] = True
    out = mhta(AttentionInput(inp.target, inp.sequence, mask), params)
    v = np.concatenate([inp.sequence[2] @ params.wv[h] for h in range(params.n_heads)])
    np.testing.assert_allclose(out, v @ params.wo, atol=1e-12)


def test_identical_rows_get_uniform_weights():
    rng = np.random.default_rng(5)
    row = rng.standard_normal(4)
    inp = AttentionInput(rng.standard_normal(4), np.tile(row, (6, 1)), np.ones(6, bool))
    params = attention_params(4, 2, seed=1)
    one = mhta(AttentionInput(inp.target, row[None, :], np.ones(1, bool)), params)
    np.testing.assert_allclose(mhta(inp, params), one, atol=1e-12)


def test_all_masked_yields_zero_vector():
    inp, params = random_case(7, length=4)
    out = mhta(AttentionInput(inp.target, inp.sequence, np.zeros(4, bool)), params)
    np.testing.assert_array_equal(out, np.zeros(6))
    empty = AttentionInput(inp.target, np.zeros((0, 6)), np.zeros(0, bool))
    np.testing.assert_array_equal(mhta(empty, params), np.zeros(6))


def test_masking_equals_deleting_rows():
    inp, params = random_case(9, length=10, mask_p=0.6)
    kept = np.flatnonzero(inp.valid_mask)
    compact = AttentionInput(
        inp.target, inp.sequence[kept], np.ones(kept.size, bool)
    )
    np.testing.assert_allclose(mhta(inp, params), mhta(compact, params), atol=1e-12)


def test_shape_validation():
    inp, params = random_case(0)
    with pytest.raises(ValueError):
        mhta(AttentionInput(np.zeros(5), inp.sequence, inp.valid_mask), params)
    with pytest.raises(ValueError):
        mhta(AttentionInput(inp.target, inp.sequence[:, :5], inp.valid_mask), params)
    with pytest.raises(ValueError):
        mhta(AttentionInput(inp.target, inp.sequence, inp.valid_mask[:-1]), params)


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
        inp, params = random_case(seed, d=4, n_heads=2, length=5, mask_p=0.7)
        upstream = rng.standard_normal(4)
        grads = attention_gradients(inp, params, upstream)

        def loss():
            return float(upstream @ mhta(inp, params))

        for name in ("wq", "wk", "wv", "wo"):
            fd = fd_gradient(loss, getattr(params, name))
            got = getattr(grads, name)
            assert np.max(np.abs(got - fd)) < 1e-7, name
        fd_t = fd_gradient(loss, np.asarray(inp.target))
        assert np.max(np.abs(grads.target - fd_t)) < 1e-7
        fd_s = fd_gradient(loss, np.asarray(inp.sequence))
        assert np.max(np.abs(grads.sequence - fd_s)) < 1e-7


def test_masked_rows_receive_zero_gradient():
    inp, params = random_case(11, length=6, mask_p=0.5)
    grads = attention_gradients(inp, params, np.ones(6))
    for i in range(6):
        if not inp.valid_mask[i]:
            np.testing.assert_array_equal(grads.sequence[i], np.zeros(6))
