import hashlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashta import model, retrieval
from hashta.data import SECONDS_PER_DAY, Sample
from hashta.errors import FormatError, NumericError
from hashta.fingerprint import fingerprint_batch
from hashta.model import (
    ModelConfig,
    auc,
    evaluate,
    fingerprint_items,
    flatten,
    forward,
    init_params,
    load_checkpoint,
    long_selection,
    loss_and_gradients,
    predict_request,
    save_checkpoint,
    train,
    verify_item_fingerprints,
)
from hashta.model import (
    attention_stage,
    candidate_embeddings,
    finish_stage,
    prepare_request,
    retrieval_stage,
)
from hashta.retrieval import hamming_top_k_batch
from oracles import (
    adam_step_per_tensor,
    frozen_selections,
    item_categories_from_samples,
    per_sample_selections,
    record_value,
    request_from_sample,
    with_specials,
)

N_CATS = 5
BASE_TS = 1_700_000_000


def tiny_config(**kw):
    base = dict(
        d=4, l_st=3, l_lt=8, k=4, n_heads=2, m=8, n_rounds=2, variant="ETA",
        mlp_widths=(6,), seed=3, n_items=30, n_categories=N_CATS, n_users=6,
        batch_size=4, epochs=0, learning_rate=0.01, l2=1e-4,
    )
    base.update(kw)
    return ModelConfig(**base)


def cat_of(item: int) -> int:
    return (item - 1) % N_CATS + 1


def mk_sample(rng, label=1, n_short=3, n_long=6, n_pad_long=0, user=1):
    def seq(n, age0):
        rows = tuple(
            (int(i), cat_of(int(i)), BASE_TS - (age0 + j) * 3600)
            for j, i in enumerate(rng.integers(1, 31, size=n))
        )
        return rows

    target = int(rng.integers(1, 31))
    long_rows = seq(n_long, 24) + tuple((0, 0, 0) for _ in range(n_pad_long))
    return Sample(
        user_id=user,
        target_item=target,
        target_category=cat_of(target),
        context_bucket=int(rng.integers(1, 25)),
        timestamp=BASE_TS,
        label=label,
        short_seq=seq(n_short, 1),
        long_seq=long_rows,
    )


# ---------------------------------------------------------------------------
# forward


def test_forward_is_deterministic_probability():
    rng = np.random.default_rng(0)
    for variant in ("POOLING", "DIN_SHORT", "DIN_LONG_AVG", "ETA", "FULL_TA", "SIM_HARD", "ETA_ANGULAR"):
        config = tiny_config(variant=variant)
        params = init_params(config)
        s = mk_sample(rng)
        p = forward(s, params, config)
        assert 0.0 < p < 1.0
        assert forward(s, params, config) == p


def test_variants_disagree_on_a_generic_sample():
    rng = np.random.default_rng(1)
    s = mk_sample(rng, n_long=8)
    probs = {
        v: forward(s, init_params(tiny_config(variant=v)), tiny_config(variant=v))
        for v in ("POOLING", "DIN_SHORT", "FULL_TA", "ETA")
    }
    assert len({round(p, 12) for p in probs.values()}) > 1


def test_forward_validates_inputs():
    config = tiny_config()
    params = init_params(config)
    rng = np.random.default_rng(2)
    good = mk_sample(rng)
    for bad in (
        good.__class__(**{**good.__dict__, "user_id": 99}),
        good.__class__(**{**good.__dict__, "target_item": 0}),
        good.__class__(**{**good.__dict__, "target_category": 77}),
        good.__class__(**{**good.__dict__, "context_bucket": 0}),
        good.__class__(**{**good.__dict__, "long_seq": good.long_seq * 4}),
        good.__class__(**{**good.__dict__, "short_seq": good.short_seq * 2}),
    ):
        with pytest.raises(ValueError):
            forward(bad, params, config)
    # a non-integer id or timestamp is refused, not truncated: int64 would
    # read user 2.7 as user 2
    for field, value in (("user_id", 2.7), ("user_id", np.float64(2.0)), ("target_item", 3.5),
                         ("target_category", 1.5), ("context_bucket", 2.5),
                         ("timestamp", BASE_TS + 0.5)):
        with pytest.raises(ValueError, match=rf"^{field}=.* is not an integer$"):
            forward(replace(good, **{field: value}), params, config)
    # so is one in a tuple window row, which reaches the id matrix through _padded
    for field, value in (("long_seq", ((2.7, 1, BASE_TS),) + good.long_seq),
                         ("short_seq", good.short_seq[:-1] + ((1, np.float64(1.0), BASE_TS),))):
        with pytest.raises(ValueError, match=rf"^{field} holds a value that is not an integer$"):
            forward(replace(good, **{field: value}), params, config)
        with pytest.raises(ValueError, match=rf"^{field} holds a value that is not an integer$"):
            loss_and_gradients([good, replace(good, **{field: value})], params, config)
    # an integer past int64 is refused, not left to overflow the id matrix
    for field, value in (("timestamp", 2**70), ("timestamp", -(2**63) - 1), ("timestamp", 2**63),
                         ("user_id", 2**64), ("timestamp", np.uint64(2**64 - 1))):
        with pytest.raises(ValueError, match=rf"^{field}=.* does not fit in int64$"):
            forward(replace(good, **{field: value}), params, config)
    # NumPy integers are integers
    assert forward(replace(good, user_id=np.int64(2), timestamp=np.int32(BASE_TS)), params,
                   config) == forward(replace(good, user_id=2), params, config)


@pytest.mark.parametrize("use_time_buckets", [False, True])
def test_predict_request_refuses_timestamps_past_int64(use_time_buckets):
    config = tiny_config(use_time_buckets=use_time_buckets)
    params = init_params(config)
    req = request_from_sample(mk_sample(np.random.default_rng(2)))
    for value in (2**70, -(2**63) - 1):
        with pytest.raises(ValueError, match=r"^timestamp=.* does not fit in int64$"):
            predict_request(replace(req, timestamp=value), [(1, 1)], params, config)
    assert predict_request(replace(req, timestamp=2**63 - 1), [(1, 1)], params, config).shape == (1,)


def test_predict_request_refuses_non_integer_ids():
    config = tiny_config(use_time_buckets=True)
    params = init_params(config)
    req = request_from_sample(mk_sample(np.random.default_rng(2)))
    cands = [(1, 1), (2, 2)]
    for field, value in (("user_id", 2.7), ("context_bucket", np.float32(3.0)),
                         ("timestamp", BASE_TS + 0.5)):
        with pytest.raises(ValueError, match=rf"^{field}=.* is not an integer$"):
            predict_request(replace(req, **{field: value}), cands, params, config)
    # a float id in a tuple window row or a candidate pair is refused, not
    # read as item 2
    for field, value in (("long_seq", req.long_seq[:-1] + ((2.7, 1, 50),)),
                         ("short_seq", ((1, np.float32(1.0), BASE_TS),) + req.short_seq[1:])):
        with pytest.raises(ValueError, match=rf"^{field} holds a value that is not an integer$"):
            predict_request(replace(req, **{field: value}), cands, params, config)
    for bad in ([(2.7, 1)], [(1, 1), (2, np.float64(2.0))]):
        with pytest.raises(ValueError, match="^candidates hold a value that is not an integer$"):
            predict_request(req, bad, params, config)
    np.testing.assert_array_equal(
        predict_request(replace(req, user_id=np.uint8(2)), cands, params, config),
        predict_request(replace(req, user_id=2), cands, params, config))


def test_empty_long_window_is_fine_everywhere():
    rng = np.random.default_rng(3)
    s = mk_sample(rng, n_long=0)
    for variant in ("POOLING", "DIN_SHORT", "DIN_LONG_AVG", "ETA", "FULL_TA", "SIM_HARD", "ETA_ANGULAR"):
        config = tiny_config(variant=variant)
        p = forward(s, init_params(config), config)
        assert 0.0 < p < 1.0


def test_padding_rows_do_not_change_the_score():
    rng = np.random.default_rng(4)
    clean = mk_sample(rng, n_long=5)
    padded = Sample(**{**clean.__dict__, "long_seq": clean.long_seq + ((0, 0, 0),) * 3})
    for variant in ("POOLING", "FULL_TA", "ETA"):
        config = tiny_config(variant=variant)
        params = init_params(config)
        assert forward(padded, params, config) == pytest.approx(
            forward(clean, params, config), abs=1e-12
        )


def test_eta_equals_full_attention_when_k_covers_window():
    rng = np.random.default_rng(5)
    eta_cfg = tiny_config(variant="ETA", k=8)
    full_cfg = tiny_config(variant="FULL_TA", k=8)
    eta_params = init_params(eta_cfg)
    full_params = init_params(full_cfg)
    for _ in range(20):
        s = mk_sample(rng, n_long=int(rng.integers(1, 9)))
        assert forward(s, eta_params, eta_cfg) == forward(s, full_params, full_cfg)


def test_precomputed_item_table_is_bit_identical():
    rng = np.random.default_rng(6)
    config = tiny_config(variant="ETA")
    params = init_params(config)
    samples = [mk_sample(rng, label=int(rng.integers(0, 2))) for _ in range(40)]
    cats = item_categories_from_samples(samples, config)
    table = fingerprint_items(params, config, cats)
    verify_item_fingerprints(table, params, config, cats)
    for s in samples:
        assert forward(s, params, config, item_fps=table) == forward(s, params, config)
        a = long_selection(s, params, config, item_fps=table)
        b = long_selection(s, params, config)
        assert a.indices.tolist() == b.indices.tolist()
    ev_a = evaluate(samples, params, config, item_fps=table)
    ev_b = evaluate(samples, params, config)
    assert ev_a.auc == ev_b.auc
    np.testing.assert_array_equal(ev_a.scores, ev_b.scores)


@pytest.mark.parametrize("n_rows", [model._TABLE_BLOCK_ROWS - 1, model._TABLE_BLOCK_ROWS,
                                    model._TABLE_BLOCK_ROWS + 1, 31])
def test_item_table_row_blocks_equal_one_hashing_pass(n_rows):
    # row counts one below, at and one above the row block, and one smaller
    # than a block: each table equals one fingerprint_batch call over every
    # item + category sum with the padding row zeroed
    config = tiny_config(variant="ETA", n_items=n_rows - 1)
    params = init_params(config)
    cats = np.array([0] + [cat_of(i) for i in range(1, n_rows)])
    table = fingerprint_items(params, config, cats)
    vecs = params.item_emb + params.cat_emb[cats]
    vecs[0] = 0.0
    want = fingerprint_batch(vecs, params.family)
    assert table.words.dtype == want.words.dtype
    np.testing.assert_array_equal(table.words, want.words)
    assert (table.rounds, table.bits_per_round) == (want.rounds, want.bits_per_round)
    verify_item_fingerprints(table, params, config, cats)


def test_predict_request_reads_candidate_bits_from_table_identically():
    rng = np.random.default_rng(61)
    config = tiny_config(variant="ETA")
    params = init_params(config)
    cats = np.array([0] + [cat_of(i) for i in range(1, config.n_items + 1)])
    table = fingerprint_items(params, config, cats)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=12)]
    for _ in range(10):
        req = request_from_sample(mk_sample(rng, n_long=int(rng.integers(0, 9))))
        np.testing.assert_array_equal(
            predict_request(req, cands, params, config, item_fps=table),
            predict_request(req, cands, params, config),
        )


def test_verify_rejects_stale_or_mismatched_tables():
    config = tiny_config(variant="ETA")
    params = init_params(config)
    cats = np.array([0] + [cat_of(i) for i in range(1, 31)])
    table = fingerprint_items(params, config, cats)
    for wrong in (cats[:16], np.concatenate((cats, [1, 2, 3]))):  # too short, too long
        with pytest.raises(ValueError) as err:
            verify_item_fingerprints(table, params, config, wrong)
        assert f"shape {wrong.shape}, expected {cats.shape}" in str(err.value)
    # a category id past either end of the embedding rows is refused, not
    # wrapped (-1) or left to fail at the gather (n_categories + 1)
    for bad in (-1, N_CATS + 1):
        wrong = cats.copy()
        wrong[7] = bad
        for build_or_check in (lambda c: fingerprint_items(params, config, c),
                               lambda c: verify_item_fingerprints(table, params, config, c)):
            with pytest.raises(ValueError, match=rf"outside \[0, {N_CATS}\]"):
                build_or_check(wrong)
    params.item_emb[5] += 3.0  # weights moved on: table is now stale
    with pytest.raises(FormatError) as err:
        verify_item_fingerprints(table, params, config, cats)
    assert "stale" in str(err.value)
    other = fingerprint_items(init_params(tiny_config(m=16)), tiny_config(m=16), cats)
    with pytest.raises(FormatError):
        verify_item_fingerprints(other, init_params(config), config, cats)


def test_hashing_ignores_the_age_component():
    # the age embedding shifts scores but must never shift retrieval
    rng = np.random.default_rng(7)
    s = mk_sample(rng, n_long=5, n_pad_long=3)
    plain_cfg = tiny_config(variant="ETA", use_time_buckets=False)
    aged_cfg = tiny_config(variant="ETA", use_time_buckets=True)
    plain = init_params(plain_cfg)
    aged = init_params(aged_cfg)
    np.testing.assert_array_equal(plain.item_emb, aged.item_emb)
    sel_plain = long_selection(s, plain, plain_cfg)
    sel_aged = long_selection(s, aged, aged_cfg)
    assert sel_plain.indices.tolist() == sel_aged.indices.tolist()
    # the hash input is item + category: the target's query bits against
    # the long window's key bits
    items = np.array([row[0] for row in s.long_seq])
    cats = np.array([row[1] for row in s.long_seq])
    target = aged.item_emb[s.target_item] + aged.cat_emb[s.target_category]
    direct, _ = hamming_top_k_batch(
        fingerprint_batch(target[None, :], aged.family),
        fingerprint_batch(aged.item_emb[items] + aged.cat_emb[cats], aged.family),
        items != 0, aged_cfg.k)
    assert sel_aged.indices.tolist() == direct[0].tolist()
    # n_valid counts the window's behaviours, not its (0, 0, 0) padding rows
    assert sel_plain.n_valid == sel_aged.n_valid == 5
    empty = long_selection(replace(s, long_seq=()), aged, aged_cfg)
    assert empty.indices.tolist() == [] and empty.n_valid == 0


def selection_batch(rng):
    """Mixed long-window lengths, an empty window, (0, 0, 0) rows inside
    windows, windows shorter than k = 4, and one item repeated across a
    window, which ties every Hamming distance at the K-th boundary."""
    batch = [mk_sample(rng, n_long=n, n_pad_long=pad, label=i % 2)
             for i, (n, pad) in enumerate(((8, 0), (0, 0), (3, 0), (2, 5), (6, 2)))]
    gap = (0, 0, 0)
    rows = list(batch[0].long_seq)
    batch.append(replace(batch[0], long_seq=(rows[0], gap, rows[1], gap, *rows[2:6])))
    twin = rows[4]
    batch.append(replace(batch[0], target_item=twin[0], target_category=twin[1],
                         long_seq=(rows[0], twin, twin, gap, twin, twin, twin, rows[1])))
    return batch


@pytest.mark.parametrize("variant,m,table", [
    ("ETA", 32, False), ("ETA", 32, True), ("ETA", 40, False), ("ETA", 40, True),
    ("ETA", 64, False), ("ETA", 64, True), ("SIM_HARD", 8, False), ("ETA_ANGULAR", 8, False),
])
def test_batch_selection_equals_per_sample_selector_calls(variant, m, table):
    # one selector call over the padded batch gives each sample the rows,
    # and scores, of a one-row call on its own window; -1 pads a row past
    # its valid count
    config = tiny_config(variant=variant, m=m)
    params = init_params(config)
    batch = selection_batch(np.random.default_rng(15))
    item_fps = None
    if table:
        item_fps = fingerprint_items(params, config, [0] + [cat_of(i) for i in range(1, 31)])
    state, ids, targets = model._sample_state(batch, params, config, item_fps)
    idx, scores = model._retrieve(state, ids[:, 2], targets, ids[:, 3], params, config)
    want = per_sample_selections(batch, params, config, item_fps)
    assert idx.shape == scores.shape == (len(batch), config.k)
    for row, (want_idx, want_scores) in enumerate(want):
        n = want_idx.shape[0]
        assert idx[row, :n].tolist() == want_idx.tolist(), row
        assert scores[row, :n].tolist() == want_scores.tolist(), row
        assert (idx[row, n:] == -1).all(), row
    assert [w[0].shape[0] for w in want] == [4, 0, 3, 2, 4, 4, 4]
    if variant != "SIM_HARD":  # five copies of the target tie for k = 4 places: recency wins
        assert want[-1][0].tolist() == [6, 5, 4, 2]


def test_long_selection_rejects_non_selecting_variant():
    config = tiny_config(variant="FULL_TA")
    with pytest.raises(ValueError):
        long_selection(mk_sample(np.random.default_rng(0)), init_params(config), config)


def test_non_finite_weights_raise_numeric_error():
    config = tiny_config(variant="POOLING")
    params = init_params(config)
    s = mk_sample(np.random.default_rng(8))
    params.user_emb[s.user_id] = np.nan
    with pytest.raises(NumericError) as err:
        forward(s, params, config)
    assert "embeddings" in str(err.value)


def test_selection_tracks_embedding_updates():
    # after making one behavior's embedding collinear with the target, the
    # very next retrieval must rank it first: fingerprints are not cached
    config = tiny_config(variant="ETA", k=2, m=16, l_lt=8)
    params = init_params(config)
    rng = np.random.default_rng(9)
    s = mk_sample(rng, n_long=8)
    before = long_selection(s, params, config)
    outside = [p for p in range(8) if p not in before.indices.tolist()]
    pos = outside[0]
    item, cat, _ = s.long_seq[pos]
    target_vec = params.item_emb[s.target_item] + params.cat_emb[s.target_category]
    params.item_emb[item] = 10.0 * target_vec - params.cat_emb[cat]
    after = long_selection(s, params, config)
    assert pos in after.indices.tolist()
    assert after.scores[after.indices.tolist().index(pos)] == 0


# ---------------------------------------------------------------------------
# loss and gradients


def manual_loss(batch, params, config):
    """forward()-based oracle: -mean log-likelihood plus the L2 term."""
    total = 0.0
    for s in batch:
        p = forward(s, params, config)
        total += -(s.label * np.log(p) + (1 - s.label) * np.log1p(-p))
    total /= len(batch)
    for name, arr in flatten(params, config).items():
        if name.startswith(("short.", "long.", "mlp.w")):
            total += config.l2 * float((arr * arr).sum())
    return total


def test_loss_matches_forward_based_oracle():
    rng = np.random.default_rng(10)
    for variant in ("POOLING", "ETA", "FULL_TA", "DIN_LONG_AVG"):
        config = tiny_config(variant=variant)
        params = init_params(config)
        batch = [mk_sample(rng, label=i % 2) for i in range(6)]
        loss, _ = loss_and_gradients(batch, params, config)
        assert loss == pytest.approx(manual_loss(batch, params, config), abs=1e-10)


def test_l2_term_is_exactly_quadratic():
    rng = np.random.default_rng(11)
    batch = [mk_sample(rng, label=1)]
    cfg0 = tiny_config(variant="POOLING", l2=0.0)
    cfg1 = tiny_config(variant="POOLING", l2=0.5)
    params = init_params(cfg0)
    l0, _ = loss_and_gradients(batch, params, cfg0)
    l1, _ = loss_and_gradients(batch, params, cfg1)
    sq = sum(
        float((a * a).sum())
        for n, a in flatten(params, cfg0).items()
        if n.startswith(("short.", "long.", "mlp.w"))
    )
    assert l1 - l0 == pytest.approx(0.5 * sq, rel=1e-12)


def test_padding_row_gradients_are_zero():
    rng = np.random.default_rng(12)
    config = tiny_config(variant="FULL_TA")
    batch = [mk_sample(rng, n_pad_long=2, label=0) for _ in range(3)]
    _, grads = loss_and_gradients(batch, init_params(config), config)
    for name in ("item_emb", "cat_emb", "user_emb", "ctx_emb"):
        np.testing.assert_array_equal(grads[name][0], np.zeros(config.d))


@pytest.mark.parametrize("variant", ["POOLING", "DIN_SHORT", "DIN_LONG_AVG", "FULL_TA", "ETA",
                                     "SIM_HARD", "ETA_ANGULAR"])
def test_gradients_match_central_differences(variant):
    rng = np.random.default_rng(13)
    config = tiny_config(variant=variant, use_time_buckets=(variant == "FULL_TA"))
    params = init_params(config)
    batch = [
        mk_sample(rng, label=1, n_long=6),
        mk_sample(rng, label=0, n_long=4, n_pad_long=2),
        mk_sample(rng, label=0, n_long=8, user=2),
    ]
    frozen = None
    if variant in model.SELECTING_VARIANTS:
        frozen = frozen_selections([long_selection(s, params, config).indices for s in batch])
    _, grads = loss_and_gradients(batch, params, config, frozen_selections=frozen)
    flat = flatten(params, config)

    def loss():
        return loss_and_gradients(batch, params, config, frozen_selections=frozen)[0]

    eps = 1e-5
    for name, arr in flat.items():
        view = arr.reshape(-1)
        idx = rng.choice(view.size, size=min(12, view.size), replace=False)
        for i in idx:
            keep = view[i]
            view[i] = keep + eps
            up = loss()
            view[i] = keep - eps
            dn = loss()
            view[i] = keep
            fd = (up - dn) / (2 * eps)
            got = grads[name].reshape(-1)[i]
            assert abs(got - fd) < 1e-6, f"{variant} {name}[{i}]: {got} vs {fd}"


@pytest.mark.parametrize("buckets", [False, True])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_a_sample_scores_the_same_alone_and_in_a_mixed_batch(variant, buckets):
    # windows of different lengths, an empty long window, (0, 0, 0) rows
    # inside windows, and each sample with tuple and with array windows
    rng = np.random.default_rng(14)
    config = tiny_config(variant=variant, use_time_buckets=buckets, batch_size=64, l2=0.0)
    params = init_params(config)
    batch = []
    for i, (n_short, n_long, n_pad) in enumerate(((3, 8, 0), (3, 0, 0), (1, 3, 5), (0, 5, 2),
                                                 (2, 1, 0), (3, 6, 2))):
        s = mk_sample(rng, label=i % 2, n_short=n_short, n_long=n_long, n_pad_long=n_pad,
                      user=1 + i % 3)
        batch += [s, with_array_windows(s)]
    alone = np.array([forward(s, params, config) for s in batch])
    np.testing.assert_allclose(evaluate(batch, params, config).scores, alone, rtol=0, atol=1e-12)
    # the batch gradient is the mean of the one-sample gradients
    _, grads = loss_and_gradients(batch, params, config)
    singles = [loss_and_gradients([s], params, config)[1] for s in batch]
    for name, g in grads.items():
        np.testing.assert_allclose(g, np.mean([one[name] for one in singles], axis=0),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_empty_batch_rejected():
    config = tiny_config()
    with pytest.raises(ValueError):
        loss_and_gradients([], init_params(config), config)


# ---------------------------------------------------------------------------
# training


def toy_dataset(n, seed, n_long=6):
    """Label is 1 iff the target's category is 1: short/long content is noise."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        if label:
            target = int(rng.choice([1, 6, 11, 16, 21, 26]))
        else:
            target = int(rng.choice([i for i in range(1, 31) if cat_of(i) != 1]))
        base = mk_sample(rng, label=label, n_long=n_long, user=int(rng.integers(1, 7)))
        out.append(Sample(**{**base.__dict__, "target_item": target, "target_category": cat_of(target)}))
    return out


def test_train_epochs_zero_returns_untouched_init():
    config = tiny_config(epochs=0)
    result = train([], [], config)
    want = flatten(init_params(config), config)
    got = flatten(result.params, config)
    for name in model._param_shapes(config):
        np.testing.assert_array_equal(got[name], want[name])
    assert result.metrics == [] and result.best_epoch == -1


@pytest.mark.parametrize("weights", ["init_params", "load_checkpoint"])
def test_adam_step_matches_the_per_tensor_oracle(weights, tmp_path):
    # float64 gradients against float64 (init) and float32 (checkpoint)
    # weights: the same IEEE operations per element, so equal bit for bit
    config = tiny_config(use_time_buckets=True)
    params = init_params(config)
    if weights == "load_checkpoint":
        save_checkpoint(tmp_path / "model.htac", params, config)
        params, _ = load_checkpoint(tmp_path / "model.htac")
    want = {name: arr.copy() for name, arr in flatten(params, config).items()}
    state, want_state = model.AdamState(params.flat), {"t": 0, "m": {}, "v": {}}
    got = {"w": flatten(params, config), "m": model._Views(state.m, config),
           "v": model._Views(state.v, config)}
    rng = np.random.default_rng(51)
    n = params.flat.size
    for _ in range(6):
        grads = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, size=n) * (rng.random(n) < 0.8)
        model.adam_step(params.flat, grads, state, config.learning_rate)
        adam_step_per_tensor(want, model._Views(grads, config), want_state, config.learning_rate)
        for name in want:
            assert got["w"][name].dtype == want[name].dtype == params.flat.dtype
            np.testing.assert_array_equal(got["w"][name], want[name], err_msg=name)
            np.testing.assert_array_equal(got["m"][name], want_state["m"][name], err_msg=name)
            np.testing.assert_array_equal(got["v"][name], want_state["v"][name], err_msg=name)


def test_training_is_bitwise_reproducible():
    config = tiny_config(variant="POOLING", epochs=2, batch_size=8)
    data = toy_dataset(48, seed=20)
    val = toy_dataset(16, seed=21)
    a = train(data, val, config)
    b = train(data, val, config)
    for name in model._param_shapes(config):
        np.testing.assert_array_equal(flatten(a.params, config)[name], flatten(b.params, config)[name])
    assert [m["train_loss"] for m in a.metrics] == [m["train_loss"] for m in b.metrics]
    assert [m["val_auc"] for m in a.metrics] == [m["val_auc"] for m in b.metrics]


def test_training_separates_a_toy_problem():
    config = tiny_config(variant="DIN_SHORT", epochs=8, batch_size=16, learning_rate=0.02, l2=0.0)
    data = toy_dataset(240, seed=22)
    val = toy_dataset(60, seed=23)
    result = train(data, val, config)
    assert evaluate(val, result.params, config).auc > 0.95
    assert result.metrics[-1]["train_loss"] < result.metrics[0]["train_loss"]


def test_returned_weights_are_the_best_validation_epoch():
    config = tiny_config(variant="POOLING", epochs=4, batch_size=8, learning_rate=0.05)
    data = toy_dataset(80, seed=24)
    val = toy_dataset(40, seed=25)
    result = train(data, val, config)
    aucs = [m["val_auc"] for m in result.metrics]
    assert len(aucs) == 4
    assert result.best_epoch == int(np.argmax(aucs))
    assert evaluate(val, result.params, config).auc == pytest.approx(max(aucs), abs=1e-12)


def test_training_requires_samples():
    with pytest.raises(ValueError):
        train([], [], tiny_config(epochs=1))


# ---------------------------------------------------------------------------
# auc


def pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_known_values():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert auc([0.1, 0.2, 0.9], [1, 1, 0]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=2, max_size=60
    ).filter(lambda rows: 0 < sum(y for _, y in rows) < len(rows))
)
@settings(max_examples=60, deadline=None)
def test_auc_equals_pairwise_oracle(rows):
    scores = [r / 6.0 for r, _ in rows]  # coarse grid forces plenty of ties
    labels = [y for _, y in rows]
    assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_auc_input_validation():
    with pytest.raises(ValueError):
        auc([], [])
    with pytest.raises(ValueError):
        auc([0.5, 0.6], [1, 1])
    with pytest.raises(ValueError):
        auc([0.5, np.nan], [1, 0])
    with pytest.raises(ValueError):
        auc([0.5, 0.6, 0.7], [1, 0])


# ---------------------------------------------------------------------------
# request scoring


VARIANT_CONFIGS = [
    ("POOLING", {}),
    ("DIN_SHORT", {}),
    ("DIN_LONG_AVG", {}),
    ("ETA", {}),
    ("ETA", {"use_time_buckets": True}),
    ("ETA", {"m": 40}),  # 2 x 40 bits: two words per fingerprint, not densified
    ("FULL_TA", {}),
    ("SIM_HARD", {}),
    ("ETA_ANGULAR", {}),
    ("ETA", {"mlp_widths": ()}),  # the first MLP layer is the output layer
]


@pytest.mark.parametrize("variant,extra", VARIANT_CONFIGS)
def test_predict_request_matches_per_sample_forward(variant, extra):
    rng = np.random.default_rng(30)
    config = tiny_config(variant=variant, **extra)
    params = init_params(config)
    base = mk_sample(rng, n_long=6, n_pad_long=2)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=9)]
    samples = [
        Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
        for it, ct in cands
    ]
    got = predict_request(request_from_sample(base), cands, params, config)
    want = np.array([forward(s, params, config) for s in samples])
    np.testing.assert_allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("length", [1000, 2048])
@pytest.mark.parametrize("padding", ["none", "some", "all"])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_full_attention_over_long_windows_matches_per_sample_forward(length, padding, scale):
    config = tiny_config(variant="FULL_TA", l_lt=2048)
    params = init_params(config)
    # at scale 100 logits reach the hundreds, and exp overflows unless the
    # row max is subtracted
    params.long_attn.wq[...] *= scale
    params.long_attn.wk[...] *= scale
    rng = np.random.default_rng(35)
    base = mk_sample(rng, n_long=length)
    pad = {"none": np.zeros(length, bool), "some": rng.random(length) < 0.3,
           "all": np.ones(length, bool)}[padding]
    base = Sample(**{**base.__dict__, "long_seq": tuple(
        (0, 0, 0) if p else row for row, p in zip(base.long_seq, pad))})
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=6)]
    if scale > 1 and padding != "all":
        state = prepare_request(request_from_sample(base), params, config)
        _, _, emb = candidate_embeddings(cands, params, config)
        qs = params.long_attn.alpha * np.matmul(emb, params.long_attn.wq)
        logits = np.matmul(qs, state.lt_kv[0].transpose(0, 2, 1))  # distinct valid rows
        assert logits.max() > np.log(np.finfo(np.float64).max)
    samples = [
        Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
        for it, ct in cands
    ]
    got = predict_request(request_from_sample(base), cands, params, config)
    want = np.array([forward(s, params, config) for s in samples])
    np.testing.assert_allclose(got, want, atol=1e-9)


# age in days -> time bucket min(9, floor(log2(1 + age_days)))
AGE_BUCKETS = {0: 0, 3: 2, 40: 5}


@pytest.fixture(scope="module")
def full_ta_weights(tmp_path_factory):
    """{use_time_buckets: (float64 init_params, float32 checkpoint, the checkpoint widened)}."""
    out = {}
    for buckets in (False, True):
        config = tiny_config(variant="FULL_TA", l_lt=12, use_time_buckets=buckets)
        out[buckets] = (init_params(config),
                        *loaded_and_widened(config, tmp_path_factory.mktemp("full_ta")))
    return out


behaviour = st.one_of(st.just((0, 0, 0)), st.tuples(st.integers(1, 3), st.integers(1, 2),
                                                     st.sampled_from(sorted(AGE_BUCKETS))))


@given(window=st.lists(behaviour, max_size=12), n_cands=st.integers(0, 4),
       buckets=st.booleans(), float32=st.booleans())
@example(window=[(2, 1, 0), (2, 1, 3), (2, 1, 40), (2, 1, 3)], n_cands=3, buckets=True,
         float32=False)  # one item at three ages
@example(window=[(3, 2, 3)] * 12, n_cands=2, buckets=False, float32=True)  # one repeated item
@example(window=[(1, 1, 0), (1, 2, 0), (1, 1, 0)], n_cands=2, buckets=False,
         float32=False)  # one item under two categories
@example(window=[(1, 1, 0), (0, 0, 0), (1, 1, 0), (0, 0, 0)], n_cands=1, buckets=True,
         float32=True)  # mixed padding
@example(window=[(0, 0, 0)] * 5, n_cands=2, buckets=False, float32=False)  # all padding
@example(window=[(1, 1, 3), (2, 1, 3)], n_cands=0, buckets=True, float32=True)
@settings(max_examples=40, deadline=None)
def test_full_attention_over_distinct_rows_matches_forward(window, n_cands, buckets, float32,
                                                           full_ta_weights):
    config = tiny_config(variant="FULL_TA", l_lt=12, use_time_buckets=buckets)
    native, loaded, wide = full_ta_weights[buckets]
    params, oracle, atol = (loaded, wide, 1e-6) if float32 else (native, native, 1e-9)
    long_seq = tuple((it, ct, 0 if it == 0 else BASE_TS - age * SECONDS_PER_DAY)
                     for it, ct, age in window)
    base = Sample(user_id=1, target_item=1, target_category=1, context_bucket=2,
                  timestamp=BASE_TS, label=1, short_seq=((2, 2, BASE_TS - 3600),),
                  long_seq=long_seq)
    cands = [(1 + i % 3, 1 + i % 2) for i in range(n_cands)]
    request = request_from_sample(base)
    state = prepare_request(request, params, config)
    distinct = {(it, ct, AGE_BUCKETS[age] if buckets else 0)
                for it, ct, age in window if it != 0}
    if distinct:
        ks, vs, counts = state.lt_kv
        assert ks.shape[1] == vs.shape[1] == counts.shape[0] == len(distinct)
        assert counts.dtype == params.item_emb.dtype
        assert counts.sum() == sum(it != 0 for it, _, _ in window)
    else:
        assert state.lt_kv is None
    items, cats, emb = candidate_embeddings(cands, params, config)
    long_rep = attention_stage(state, emb, None, params, config)
    got = finish_stage(state, emb, long_rep, params, config)
    np.testing.assert_array_equal(got, predict_request(request, cands, params, config))
    samples = [Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
               for it, ct in cands]
    want = np.array([forward(s, oracle, config) for s in samples])
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def test_vocabulary_whose_behaviour_key_could_overflow_is_refused():
    with pytest.raises(ValueError, match="int64"):
        init_params(tiny_config(n_items=2**31, n_categories=2**31))


def test_predict_request_handles_empty_inputs():
    config = tiny_config(variant="ETA")
    params = init_params(config)
    req = request_from_sample(mk_sample(np.random.default_rng(31), n_long=0, n_short=0))
    assert predict_request(req, [], params, config).shape == (0,)
    out = predict_request(req, [(1, 1), (2, 2)], params, config)
    assert out.shape == (2,) and np.all((out > 0) & (out < 1))
    full_req = request_from_sample(mk_sample(np.random.default_rng(31)))
    for variant, extra in VARIANT_CONFIGS:  # the stages also take no candidates
        config = tiny_config(variant=variant, **extra)
        params = init_params(config)
        state = prepare_request(full_req, params, config)
        items, cats, emb = candidate_embeddings([], params, config)
        sel = retrieval_stage(state, items, emb, cats, params, config)
        long_rep = attention_stage(state, emb, sel, params, config)
        assert finish_stage(state, emb, long_rep, params, config).shape == (0,), variant


def with_array_windows(record, dtype=np.int64):
    """The same Sample or Request with (n, 3) integer array windows."""
    return replace(record, **{name: np.array(getattr(record, name), dtype=dtype).reshape(-1, 3)
                              for name in ("short_seq", "long_seq")})


@pytest.mark.parametrize("variant,table,extra", [
    ("ETA", True, {}), ("ETA", False, {}), ("ETA", False, {"use_time_buckets": True}),
    ("FULL_TA", False, {}), ("FULL_TA", False, {"use_time_buckets": True}),
])
def test_array_windows_score_bit_identically_to_tuple_windows(variant, table, extra):
    rng = np.random.default_rng(33)
    config = tiny_config(variant=variant, **extra)
    params = init_params(config)
    item_fps = None
    if table:
        cats = np.array([0] + [cat_of(i) for i in range(1, config.n_items + 1)])
        item_fps = fingerprint_items(params, config, cats)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=9)]
    for n_long, n_pad in ((6, 2), (8, 0), (3, 5), (0, 0)):
        tupled = mk_sample(rng, n_long=n_long, n_pad_long=n_pad)
        for arrayed in (with_array_windows(tupled), with_array_windows(tupled, np.int32)):
            assert record_value(arrayed) == record_value(tupled)
            assert (forward(arrayed, params, config, item_fps)
                    == forward(tupled, params, config, item_fps))
            np.testing.assert_array_equal(
                predict_request(request_from_sample(arrayed), cands, params, config, item_fps),
                predict_request(request_from_sample(tupled), cands, params, config, item_fps),
            )


def test_window_arrays_are_checked_like_tuple_windows():
    config = tiny_config(variant="FULL_TA")
    params = init_params(config)
    good = with_array_windows(mk_sample(np.random.default_rng(34), n_long=6))
    cands = [(1, 1)]
    rows = good.long_seq
    refused = (rows.astype(np.float64), rows.astype(np.uint64), rows.astype(bool), rows[:, :2],
               np.concatenate([rows, rows[:, :1]], axis=1), rows[:2].reshape(-1), rows[:, :, None])
    for score in (lambda s: forward(s, params, config),
                  lambda s: predict_request(request_from_sample(s), cands, params, config)):
        for bad in refused:
            with pytest.raises(ValueError, match=r"^long_seq array must be \(n, 3\) integers"):
                score(replace(good, long_seq=bad))
        with pytest.raises(ValueError, match=r"^long_seq length 12 exceeds l_lt=8$"):
            score(replace(good, long_seq=np.concatenate([rows, rows])))
        with pytest.raises(ValueError, match=r"^long_seq item id outside \[0, 30\]$"):
            score(replace(good, long_seq=rows + np.array([31, 0, 0])))
        with pytest.raises(ValueError, match=r"^short_seq category id outside \[0, 5\]$"):
            score(replace(good, short_seq=good.short_seq + np.array([0, 5, 0])))


def test_ids_past_int64_are_refused_with_a_value_error():
    config = tiny_config(variant="FULL_TA")
    params = init_params(config)
    good = mk_sample(np.random.default_rng(43), n_long=4)
    tupled = good.long_seq + ((2**70, 1, BASE_TS),)
    for bad in (tupled, np.array(tupled, dtype=object)):  # build_samples' form past int64
        for score in (lambda s: forward(s, params, config),
                      lambda s: predict_request(request_from_sample(s), [(1, 1)], params, config)):
            with pytest.raises(ValueError, match="^long_seq holds a value that does not fit in int64$"):
                score(replace(good, long_seq=bad))
    with pytest.raises(ValueError, match="^candidates hold a value that does not fit in int64$"):
        predict_request(request_from_sample(good), [(2**64, 1)], params, config)


def test_retrieval_stage_rows_match_single_selection():
    rng = np.random.default_rng(32)
    for variant, extra in (("ETA", {}), ("ETA", {"m": 40}), ("SIM_HARD", {}),
                           ("ETA_ANGULAR", {})):
        config = tiny_config(variant=variant, **extra)
        params = init_params(config)
        base = mk_sample(rng, n_long=8)
        cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=5)]
        state = prepare_request(request_from_sample(base), params, config)
        items, cats, emb = candidate_embeddings(cands, params, config)
        sel = retrieval_stage(state, items, emb, cats, params, config)
        for row, (it, ct) in enumerate(cands):
            s = Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
            single = long_selection(s, params, config)
            assert sel[row].tolist() == single.indices.tolist(), (variant, extra)


def long_scoring_case(variant, lengths, seed):
    """(config, params, item_fps or None, candidates, requests): ETA with a
    fingerprint table, or FULL_TA, on histories of the given lengths whose
    row blocks and distinct-row logits span megabytes."""
    n_items = 2048
    config = tiny_config(variant=variant, d=8, k=32, l_lt=max(lengths), n_items=n_items)
    params = init_params(config)
    item_fps = None
    if variant == "ETA":
        item_fps = fingerprint_items(params, config, [0] + [cat_of(i) for i in range(1, n_items + 1)])
    rng = np.random.default_rng(seed)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, n_items + 1, size=128)]

    def history(n):
        return tuple((int(i), cat_of(int(i)), BASE_TS - (24 + j) * 3600)
                     for j, i in enumerate(rng.integers(1, n_items + 1, size=n)))

    requests = [request_from_sample(replace(mk_sample(rng), long_seq=history(n))) for n in lengths]
    return config, params, item_fps, cands, requests


@pytest.mark.parametrize("variant", ["ETA", "FULL_TA"])
def test_a_scored_request_keeps_no_memory(variant):
    config, params, item_fps, cands, (request,) = long_scoring_case(variant, [2048], 35)
    predict_request(request, cands, params, config, item_fps)  # first-call imports and caches

    def first_call_in_a_fresh_thread():
        before = tracemalloc.get_traced_memory()[0]
        predict_request(request, cands, params, config, item_fps)
        return tracemalloc.get_traced_memory()[0] - before

    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            kept = pool.submit(first_call_in_a_fresh_thread).result()
    finally:
        tracemalloc.stop()
    assert abs(kept) < 64 * 1024, kept


@pytest.mark.parametrize("variant", ["ETA", "FULL_TA"])
def test_concurrent_scorers_are_independent(variant):
    lengths = [2048, 300, 1500, 40, 1999, 700, 1024, 5]
    config, params, item_fps, cands, requests = long_scoring_case(variant, lengths, 36)

    def score(request):
        return predict_request(request, cands, params, config, item_fps)

    serial = [score(r) for r in requests]
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(score, requests))
    for got, want in zip(concurrent, serial):
        np.testing.assert_array_equal(got, want)


def test_stage_composition_equals_predict_request():
    rng = np.random.default_rng(33)
    config = tiny_config(variant="ETA")
    params = init_params(config)
    base = mk_sample(rng, n_long=7)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=6)]
    state = prepare_request(request_from_sample(base), params, config)
    items, cats, emb = candidate_embeddings(cands, params, config)
    sel = retrieval_stage(state, items, emb, cats, params, config)
    long_rep = attention_stage(state, emb, sel, params, config)
    probs = finish_stage(state, emb, long_rep, params, config)
    np.testing.assert_array_equal(probs, predict_request(request_from_sample(base), cands, params, config))


@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_per_target_and_shared_windows_agree_through_the_stages(variant, table, tmp_path):
    # one request's window shared by every candidate, and B copies of it as
    # a sample batch, one per candidate: the same stages select the same
    # rows, and score within 1e-6 (the weights' float32 against float64)
    config = tiny_config(variant=variant, use_time_buckets=True)
    params, _ = loaded_and_widened(config, tmp_path)
    item_fps = None
    if table:
        item_fps = fingerprint_items(params, config, [0] + [cat_of(i) for i in range(1, 31)])
    rng = np.random.default_rng(44)
    base = mk_sample(rng, n_long=7, n_pad_long=1)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=9)]
    items, cats, emb = candidate_embeddings(cands, params, config)
    shared = prepare_request(request_from_sample(base), params, config, item_fps)
    samples = [replace(base, target_item=it, target_category=ct) for it, ct in cands]
    per_target, ids, targets = model._sample_state(samples, params, config, item_fps)
    assert ids[:, 2].tolist() == items.tolist() and ids[:, 3].tolist() == cats.tolist()
    sels, probs = [], []
    for state, cand_emb in ((shared, emb), (per_target, targets)):
        sels.append(retrieval_stage(state, items, cand_emb, cats, params, config))
        long_rep = attention_stage(state, cand_emb, sels[-1], params, config)
        probs.append(finish_stage(state, cand_emb, long_rep, params, config))
    if variant in model.SELECTING_VARIANTS:
        np.testing.assert_array_equal(sels[0], sels[1])
    else:
        assert sels == [None, None]
    np.testing.assert_allclose(probs[0], probs[1], rtol=0, atol=1e-6)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_a_non_finite_request_logit_is_refused_naming_its_stage(variant):
    # as per-sample forward does, request scoring raises rather than
    # return NaN scores
    config = tiny_config(variant=variant)
    request = request_from_sample(mk_sample(np.random.default_rng(45)))
    for stage in ("embeddings", "mlp_hidden_0"):
        params = init_params(config)
        if stage == "embeddings":
            params.user_emb[request.user_id] = np.nan
        else:
            params.mlp_w[0][:, 0] = np.nan
        with pytest.raises(NumericError, match=f"at stage '{stage}'$"):
            predict_request(request, [(1, 1), (7, 2)], params, config)


def test_candidate_embeddings_validate_ids():
    config = tiny_config()
    params = init_params(config)
    with pytest.raises(ValueError):
        candidate_embeddings([(0, 1)], params, config)
    with pytest.raises(ValueError):
        candidate_embeddings([(1, 99)], params, config)


# ---------------------------------------------------------------------------
# scoring at the checkpoint's float32 precision


def loaded_and_widened(config, tmp_path):
    """(float32 weights from a checkpoint, the same values as float64)."""
    path = tmp_path / "model.htac"
    save_checkpoint(path, init_params(config), config)
    loaded, _ = load_checkpoint(path)
    wide = init_params(config)
    for name, arr in flatten(wide, config).items():
        arr[...] = flatten(loaded, config)[name]
    return loaded, wide


@pytest.fixture
def logit_dtypes(monkeypatch):
    """The dtype of every logit array the final sigmoid receives."""
    seen = []
    sigmoid = model._sigmoid
    monkeypatch.setattr(model, "_sigmoid", lambda z: seen.append(z.dtype) or sigmoid(z))
    return seen


def staged_scores(request, cands, params, config, item_fps=None):
    """Every stage's float output, then the probabilities."""
    state = prepare_request(request, params, config, item_fps)
    items, cats, emb = candidate_embeddings(cands, params, config)
    sel = retrieval_stage(state, items, emb, cats, params, config)
    long_rep = attention_stage(state, emb, sel, params, config)
    floats = [state.user_vec, state.ctx_vec, state.st.base, state.st.emb, state.lt.base,
              state.lt.emb, emb, long_rep]
    if state.lt_kv is not None:
        floats += list(state.lt_kv)
    return floats, finish_stage(state, emb, long_rep, params, config)


@pytest.mark.parametrize("variant,extra", VARIANT_CONFIGS)
def test_loaded_weights_score_in_float32(variant, extra, tmp_path, logit_dtypes):
    config = tiny_config(variant=variant, **extra)
    params, wide = loaded_and_widened(config, tmp_path)
    assert all(a.dtype == np.float32 for a in flatten(params, config).values())
    assert type(params.long_attn.alpha) is float
    rng = np.random.default_rng(36)
    base = mk_sample(rng, n_long=5, n_pad_long=3)
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=9)]
    floats, got = staged_scores(request_from_sample(base), cands, params, config)
    assert [a.dtype for a in floats] == [np.float32] * len(floats)
    assert logit_dtypes == [np.float32]  # the whole MLP ran in float32
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, predict_request(request_from_sample(base), cands, params,
                                                       config))
    samples = [Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
               for it, ct in cands]
    want = np.array([forward(s, wide, config) for s in samples])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
    table = fingerprint_items(params, config, np.array([0] + [cat_of(i) for i in range(1, 31)]))
    tabled = predict_request(request_from_sample(base), cands, params, config, item_fps=table)
    np.testing.assert_array_equal(tabled, got)


@pytest.mark.parametrize("variant,extra", VARIANT_CONFIGS)
def test_loaded_weights_keep_float32_without_candidates_or_window(variant, extra, tmp_path,
                                                                 logit_dtypes):
    config = tiny_config(variant=variant, **extra)
    params, _ = loaded_and_widened(config, tmp_path)
    rng = np.random.default_rng(37)
    empty = request_from_sample(mk_sample(rng, n_long=0, n_short=0))
    padded = request_from_sample(mk_sample(rng, n_long=0, n_short=0, n_pad_long=5))
    full = request_from_sample(mk_sample(rng))
    for request, cands in ((full, []), (empty, [(1, 1), (7, 2)]), (padded, [(3, 3)])):
        logit_dtypes.clear()
        floats, probs = staged_scores(request, cands, params, config)
        assert [a.dtype for a in floats] == [np.float32] * len(floats)
        assert logit_dtypes == [np.float32]
        assert probs.shape == (len(cands),) and np.all((probs > 0) & (probs < 1))


@pytest.mark.parametrize("variant,extra", VARIANT_CONFIGS)
def test_loaded_weights_keep_saturated_scores_inside_unit_interval(variant, extra, tmp_path):
    # float32 rounds 1 - 1e-15 to 1.0, so only a float64 clip keeps p < 1
    config = tiny_config(variant=variant, **extra)
    params, _ = loaded_and_widened(config, tmp_path)
    rng = np.random.default_rng(38)
    request = request_from_sample(mk_sample(rng, n_long=8))
    cands = [(int(i), cat_of(int(i))) for i in rng.integers(1, 31, size=9)]
    p = predict_request(request, cands, params, config)
    z = np.log(p) - np.log1p(-p)
    w, b = params.mlp_w[-1].copy(), params.mlp_b[-1].copy()
    seen = set()
    for sign in (1.0, -1.0):
        # the logits are linear in the last layer: every |logit| now reaches 40,
        # and flipping the sign sends each candidate to the other end
        scale = np.float32(sign * 40.0 / np.abs(z).min())
        params.mlp_w[-1][...] = w * scale
        params.mlp_b[-1][...] = b * scale
        sat = predict_request(request, cands, params, config)
        assert np.all((sat > 0) & (sat < 1)), sign
        seen.update(sat.tolist())
    assert seen == {1e-15, 1.0 - 1e-15}


def test_benchmark_shaped_table_scoring_crosses_retrieval_blocks(tmp_path):
    # the serving benchmark's request shape: a 2048-long history, 128
    # candidates, K=48 over 2 x 32 hash bits, float32 checkpoint weights;
    # retrieval runs several row blocks per request
    n_items, length = 400, 2048
    config = tiny_config(d=8, l_lt=length, k=48, m=32, n_items=n_items)
    assert 128 > 2 * (retrieval._BLOCK_ELEMENTS // length)
    params, wide = loaded_and_widened(config, tmp_path)
    rng = np.random.default_rng(39)
    history = tuple((int(i), cat_of(int(i)), BASE_TS - (24 + j) * 3600)
                    for j, i in enumerate(rng.integers(1, n_items + 1, size=length)))
    base = Sample(user_id=2, target_item=1, target_category=1, context_bucket=5,
                  timestamp=BASE_TS, label=1, short_seq=history[:3], long_seq=history)
    cands = [(int(i), cat_of(int(i))) for i in rng.choice(np.arange(1, n_items + 1), 128, replace=False)]
    table = fingerprint_items(params, config, np.array([0] + [cat_of(i) for i in range(1, n_items + 1)]))
    request = request_from_sample(base)
    got = predict_request(request, cands, params, config, item_fps=table)
    np.testing.assert_array_equal(got, predict_request(request, cands, params, config))
    samples = [Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
               for it, ct in cands]
    state = prepare_request(request, params, config, table)
    items, cats, emb = candidate_embeddings(cands, params, config)
    sel = retrieval_stage(state, items, emb, cats, params, config)
    for row, s in enumerate(samples):
        assert sel[row].tolist() == long_selection(s, wide, config).indices.tolist()
    want = np.array([forward(s, wide, config) for s in samples])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_benchmark_shaped_angular_scoring_matches_per_sample_forward(tmp_path):
    # exact angular retrieval at the serving benchmark's shape: a 2048-long
    # history of repeated items, 128 candidates, K=48, float32 weights
    n_items, length = 400, 2048
    config = tiny_config(d=8, l_lt=length, k=48, n_items=n_items, variant="ETA_ANGULAR")
    params, wide = loaded_and_widened(config, tmp_path)
    rng = np.random.default_rng(42)
    history = tuple((int(i), cat_of(int(i)), BASE_TS - (24 + j) * 3600)
                    for j, i in enumerate(rng.integers(1, n_items + 1, size=length)))
    base = Sample(user_id=2, target_item=1, target_category=1, context_bucket=5,
                  timestamp=BASE_TS, label=1, short_seq=history[:3], long_seq=history)
    cands = [(int(i), cat_of(int(i))) for i in rng.choice(np.arange(1, n_items + 1), 128, replace=False)]
    request = request_from_sample(base)
    state = prepare_request(request, params, config)
    items, cats, emb = candidate_embeddings(cands, params, config)
    sel = retrieval_stage(state, items, emb, cats, params, config)
    samples = [Sample(**{**base.__dict__, "target_item": it, "target_category": ct})
               for it, ct in cands]
    for row, s in enumerate(samples):
        assert sel[row].tolist() == long_selection(s, params, config).indices.tolist()
        assert sel[row].tolist() == long_selection(s, wide, config).indices.tolist()
    got = predict_request(request, cands, params, config)
    want = np.array([forward(s, wide, config) for s in samples])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# elementwise kernels against the forms they replaced


def leaky_oracle(x):
    return np.where(x > 0, x, model.LEAKY_SLOPE * x)


def sigmoid_oracle(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_and_sigmoid_equal_their_branching_oracles(dtype):
    rng = np.random.default_rng(40)
    for shape in [(128, 64), (300,), (7, 3, 5)]:
        x = with_specials(rng, shape, dtype)
        got = model._leaky(x)
        assert got.dtype == dtype
        assert np.array_equal(got, leaky_oracle(x), equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(leaky_oracle(x)))
        assert np.array_equal(model._sigmoid(x), sigmoid_oracle(x), equal_nan=True)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    config = tiny_config(variant="ETA", use_time_buckets=True, epochs=0)
    params = init_params(config)
    path = tmp_path / "model.htac"
    save_checkpoint(path, params, config)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == config
    orig = flatten(params, config)
    back = flatten(loaded, cfg2)
    for name in model._param_shapes(config):
        np.testing.assert_array_equal(back[name], orig[name].astype("<f4").astype(np.float64))
    # the hash family comes back identical because it derives from the config
    np.testing.assert_array_equal(loaded.family.projections, params.family.projections)
    s = mk_sample(np.random.default_rng(40))
    assert forward(s, loaded, cfg2) == pytest.approx(forward(s, params, config), abs=1e-5)


def test_checkpoint_rejects_corruption(tmp_path):
    config = tiny_config()
    params = init_params(config)
    path = tmp_path / "model.htac"
    save_checkpoint(path, params, config)
    blob = path.read_bytes()

    cases = {
        "magic": b"NOPE" + blob[4:],
        "version": blob[:4] + (9).to_bytes(4, "little") + blob[8:],
        "truncated": blob[: len(blob) - 7],
        "trailing": blob + b"\x00" * 8,
        "header": blob[:6],
    }
    for name, bad in cases.items():
        p = tmp_path / f"{name}.htac"
        p.write_bytes(bad)
        with pytest.raises(FormatError) as err:
            load_checkpoint(p)
        if name == "truncated":  # 7 bytes short: all 4 of mlp.b1 and 3 of mlp.w1's 24
            assert f"truncated tensor 'mlp.w1' at offset {len(blob) - 28}:" in str(err.value)

    p = tmp_path / "unknown.htac"
    p.write_bytes(with_config_echo(blob, lambda c: c.update(bogus_key=1)))
    with pytest.raises(FormatError) as err:
        load_checkpoint(p)
    assert "bogus_key" in str(err.value)


def test_every_prefix_and_one_byte_more_is_a_format_error_naming_an_offset(tmp_path):
    config = tiny_config(use_time_buckets=True)
    path = tmp_path / "model.htac"
    save_checkpoint(path, init_params(config), config)
    blob = path.read_bytes()
    bad = tmp_path / "bad.htac"
    for cut in [*range(len(blob)), len(blob) + 1]:
        bad.write_bytes(blob[:cut] if cut < len(blob) else blob + b"\x00")
        with pytest.raises(FormatError, match=r"offset \d+"):
            load_checkpoint(bad)


def test_short_payload_read_is_a_format_error(tmp_path, monkeypatch):
    # a file that shrinks after its size was taken: the one payload read comes up short
    config = tiny_config()
    path = tmp_path / "model.htac"
    save_checkpoint(path, init_params(config), config)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-7])
    monkeypatch.setattr(model.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(FormatError, match=r"short read at offset \d+: need \d+ bytes, got"):
        load_checkpoint(path)


def test_checkpoint_is_read_without_a_second_copy(tmp_path):
    config = tiny_config(d=16, n_items=30_000)  # about 2 MB of float32 weights
    params = init_params(config)
    path = tmp_path / "model.htac"
    save_checkpoint(path, params, config)
    payload = 4 * params.flat.size
    assert 1.8e6 < payload < 2.2e6
    load_checkpoint(path)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * payload, peak / payload
    flat = loaded.flat
    assert flat.dtype == np.float32 and flat.dtype.isnative
    assert flat.flags.aligned and flat.flags.writeable and flat.flags.c_contiguous
    assert np.array_equal(flat, params.flat.astype(np.float32))


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the seeded init draws, the tensor order and the float32 encoding all
    # feed this digest of a fresh checkpoint with an age table, so a
    # reordered parameter buffer or init fails here
    config = tiny_config(use_time_buckets=True)
    path = tmp_path / "model.htac"
    save_checkpoint(path, init_params(config), config)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "bc7bb7f9ede91343971c2339d62d5b8b023559c08bb4da05b6e2f8186c10bee9")


def with_config_echo(blob: bytes, edit) -> bytes:
    """A checkpoint blob whose JSON config echo has been passed through edit."""
    import json as _json

    n = int.from_bytes(blob[8:12], "little")
    cfg = _json.loads(blob[12 : 12 + n].decode())
    edit(cfg)
    echo = _json.dumps(cfg).encode()
    return blob[:8] + len(echo).to_bytes(4, "little") + echo + blob[12 + n :]


def test_checkpoint_written_with_hash_projected_false_still_loads(tmp_path):
    # checkpoints from before the option was removed echo it as false
    config = tiny_config(variant="ETA")
    params = init_params(config)
    path = tmp_path / "model.htac"
    save_checkpoint(path, params, config)
    old = tmp_path / "old.htac"
    old.write_bytes(with_config_echo(path.read_bytes(), lambda c: c.update(hash_projected=False)))
    loaded, cfg = load_checkpoint(old)
    assert cfg == config
    s = mk_sample(np.random.default_rng(41))
    assert forward(s, loaded, cfg) == forward(s, load_checkpoint(path)[0], config)


def test_checkpoint_with_hash_projected_true_is_refused(tmp_path):
    config = tiny_config(variant="ETA")
    path = tmp_path / "model.htac"
    save_checkpoint(path, init_params(config), config)
    path.write_bytes(with_config_echo(path.read_bytes(), lambda c: c.update(hash_projected=True)))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "hash_projected" in str(err.value)


def test_checkpoint_with_eta_dot_variant_is_refused(tmp_path):
    config = tiny_config(variant="ETA_ANGULAR")
    path = tmp_path / "model.htac"
    save_checkpoint(path, init_params(config), config)
    path.write_bytes(with_config_echo(path.read_bytes(), lambda c: c.update(variant="ETA_DOT")))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "ETA_DOT" in str(err.value)


def test_checkpoint_preserves_predictions(tmp_path):
    config = tiny_config(variant="POOLING", epochs=2, batch_size=8)
    data = toy_dataset(40, seed=50)
    result = train(data, [], config)
    path = tmp_path / "trained.htac"
    save_checkpoint(path, result.params, config)
    loaded, cfg2 = load_checkpoint(path)
    ev_a = evaluate(data, result.params, config)
    ev_b = evaluate(data, loaded, cfg2)
    np.testing.assert_allclose(ev_a.scores, ev_b.scores, atol=1e-5)
