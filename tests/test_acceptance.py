"""Release checklist: one test per gate, cheapest first.

Each test measures one end-to-end property of the package — hash
geometry, bit-exact kernels, oracle equivalence, gradient correctness,
model quality on the synthetic interest task, and serving latency — and
registers a PASS/FAIL line with the measured numbers (the terminal
summary prints the whole checklist; see conftest.record_acceptance).

The two model-quality gates share one module-scoped fixture that trains
five small models; everything else runs in seconds.  Latency gates run
single-threaded through the interleaved harness protocols in
hashta.bench, so their ratios are stable on a busy machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_acceptance

from hashta.bench import environment_note, run_comparison, run_scaling
from hashta.data import (
    Sample,
    SyntheticSpec,
    build_category_index,
    build_samples,
    generate_synthetic,
    log_from_events,
)
from hashta.fingerprint import fingerprint_batch, new_hash_family
from hashta.model import (
    ModelConfig,
    auc,
    evaluate,
    fingerprint_items,
    flatten,
    forward,
    init_params,
    long_selection,
    loss_and_gradients,
    train,
)
from hashta.retrieval import angular_top_k_batch, hamming_top_k_batch
from oracles import (
    cosines_match,
    frozen_selections,
    hamming,
    item_categories_from_samples,
    top_k_by_angle,
)

BASE_TS = 1_700_000_000


def _sample(rng, config, n_long, n_pad=0, label=1):
    """Random sample matching a config's vocabulary and window shapes."""

    def cat_of(item):
        return (item - 1) % config.n_categories + 1

    def seq(n, age0):
        items = rng.integers(1, config.n_items + 1, size=n)
        return tuple(
            (int(it), cat_of(int(it)), BASE_TS - (age0 + j) * 3600)
            for j, it in enumerate(items)
        )

    target = int(rng.integers(1, config.n_items + 1))
    return Sample(
        user_id=int(rng.integers(1, config.n_users + 1)),
        target_item=target,
        target_category=cat_of(target),
        context_bucket=int(rng.integers(1, config.n_contexts + 1)),
        timestamp=BASE_TS,
        label=label,
        short_seq=seq(config.l_st, 1),
        long_seq=seq(n_long, 24) + tuple((0, 0, 0) for _ in range(n_pad)),
    )


def _check(number, name, ok, detail):
    record_acceptance(number, name, ok, detail)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. bit disagreement rate estimates the angle between the hashed vectors


def test_bit_disagreement_rate_tracks_vector_angle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_pairs, dim = 10_000, 64
    fam = new_hash_family(dim, 64, 8, seed=17)  # 512 bits per vector
    a = rng.standard_normal((n_pairs, dim))
    b = rng.standard_normal((n_pairs, dim))
    fa = fingerprint_batch(a, fam)
    fb = fingerprint_batch(b, fam)
    ham = np.bitwise_count(fa.words ^ fb.words).sum(axis=1)
    cos = (a * b).sum(axis=1) / (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    )
    angle = np.arccos(np.clip(cos, -1.0, 1.0))
    gap = float(np.abs(ham / fam.total_bits - angle / np.pi).mean())
    elapsed = time.perf_counter() - t0
    _check(
        1, "hash-bit-disagreement-tracks-angle",
        gap <= 0.02 and elapsed < 60.0,
        f"mean |bit-rate - angle/pi| {gap:.4f} <= 0.02 over {n_pairs} pairs, "
        f"{elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. word-packed XOR/popcount distance equals counting bits one by one


def _bit_loop_hamming(words_a, words_b):
    """Oracle that walks all 64 positions of every word and counts."""
    x = words_a ^ words_b
    total = np.zeros(x.shape[0], dtype=np.int64)
    for w in range(x.shape[1]):
        col = x[:, w]
        for shift in range(64):
            total += ((col >> np.uint64(shift)) & np.uint64(1)).astype(np.int64)
    return total


def test_packed_hamming_equals_per_bit_count():
    rng = np.random.default_rng(202)
    equal_pairs = 0
    spot_ok = True
    for dim, bits, rounds in ((9, 19, 3), (6, 64, 8)):  # odd width pads words
        fam = new_hash_family(dim, bits, rounds, seed=dim)
        fa = fingerprint_batch(rng.standard_normal((5_000, dim)), fam)
        fb = fingerprint_batch(rng.standard_normal((5_000, dim)), fam)
        fast = np.bitwise_count(fa.words ^ fb.words).sum(axis=1, dtype=np.int64)
        slow = _bit_loop_hamming(fa.words, fb.words)
        equal_pairs += int((fast == slow).sum())
        spot_ok &= all(
            hamming(fa.take([i]), fb.take([i])) == int(slow[i])
            for i in rng.integers(0, 5_000, size=64)
        )
    _check(
        2, "packed-hamming-equals-bit-loop",
        equal_pairs == 10_000 and spot_ok,
        f"{equal_pairs}/10000 pairs exactly equal, scalar path spot-checked",
    )


# ---------------------------------------------------------------------------
# 3. top-k selection reproduces a full exhaustive sort, ties included


def test_top_k_selection_matches_exhaustive_sort():
    bad = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 257))
        k = int(rng.integers(1, length + 8))  # sometimes saturated
        fam = new_hash_family(5, 8, 1, seed=seed % 13)  # few bits: many ties
        embs = rng.standard_normal((length, 5))
        dup = rng.integers(0, length, size=length // 3)
        embs[dup] = embs[rng.integers(0, length, size=dup.size)]  # exact cosine ties
        table = fingerprint_batch(embs, fam)
        query_vec = rng.standard_normal(5)
        query = fingerprint_batch(query_vec[None, :], fam)
        mask = rng.random(length) < 0.85
        if not mask.any():
            mask[int(rng.integers(0, length))] = True

        idx, dist = hamming_top_k_batch(query, table, mask, k)
        dists = np.bitwise_count(table.words ^ query.words).sum(axis=1)
        order = sorted(
            (i for i in range(length) if mask[i]), key=lambda i: (dists[i], -i)
        )
        want = order[: min(k, len(order))]
        if idx[0].tolist() != want or dist[0].tolist() != [int(dists[i]) for i in want]:
            bad += 1
            continue

        idx, cos = angular_top_k_batch(query_vec[None, :], embs, mask, k)
        want, want_cos = top_k_by_angle(query_vec, embs, mask, k)
        if idx[0].tolist() != want or not cosines_match(cos[0], want_cos):
            bad += 1
    _check(
        3, "top-k-matches-exhaustive-sort",
        bad == 0,
        f"{500 - bad}/500 instances exact for hash and angular selection, "
        "distance and cosine ties broken by recency",
    )


# ---------------------------------------------------------------------------
# 4. a retrieval budget covering the whole window reproduces full attention


def test_full_retrieval_budget_matches_unrestricted_attention():
    rng = np.random.default_rng(404)
    l_lt = 24
    config = ModelConfig(
        d=8, l_st=4, l_lt=l_lt, k=l_lt, n_heads=2, m=16, n_rounds=2,
        variant="ETA", mlp_widths=(12,), seed=9,
        n_items=120, n_categories=8, n_users=12, epochs=0,
    )
    params = init_params(config)
    cfg_full = replace(config, variant="FULL_TA")
    worst = 0.0
    for _ in range(1_000):
        n_long = int(rng.integers(1, l_lt + 1))
        s = _sample(rng, config, n_long=n_long, n_pad=l_lt - n_long)
        worst = max(
            worst, abs(forward(s, params, config) - forward(s, params, cfg_full))
        )
    _check(
        4, "saturated-retrieval-equals-full-attention",
        worst <= 1e-6,
        f"max score gap {worst:.2e} <= 1e-6 over 1000 samples with k = window",
    )


# ---------------------------------------------------------------------------
# 5. scoring through the precomputed fingerprint table changes nothing


def test_precomputed_fingerprint_table_scores_bit_identical():
    spec = SyntheticSpec(
        n_users=150, n_items=300, n_categories=12, events_per_user=80,
        interest_categories_per_user=3, favorites_per_category=2, seed=5,
    )
    events, _ = generate_synthetic(spec)
    log = log_from_events(events)
    sets = build_samples(
        log.events_by_user, 8, 32, 1, build_category_index(log), 5
    )
    config = ModelConfig(
        d=8, l_st=8, l_lt=32, k=6, n_heads=2, m=16, n_rounds=2,
        variant="ETA", mlp_widths=(12,), seed=5, epochs=0,
        n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users,
    )
    params = init_params(config)
    pool = (sets.test + sets.val + sets.train)[:400]
    table = fingerprint_items(
        params, config, item_categories_from_samples(pool, config)
    )
    fresh = evaluate(pool, params, config)
    cached = evaluate(pool, params, config, item_fps=table)
    gap = float(np.abs(fresh.scores - cached.scores).max())
    _check(
        5, "fingerprint-table-scores-bit-identical",
        np.array_equal(fresh.scores, cached.scores) and fresh.auc == cached.auc,
        f"{len(pool)} samples, max score gap {gap:.1e}, "
        f"auc {cached.auc:.4f} == {fresh.auc:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. analytic gradients agree with central finite differences


def test_analytic_gradients_match_central_differences():
    eps = 1e-4
    worst = 0.0
    n_coords = 0
    variants = ("ETA", "FULL_TA", "POOLING", "DIN_SHORT", "DIN_LONG_AVG")
    for case in range(20):
        rng = np.random.default_rng(600 + case)
        config = ModelConfig(
            d=4, l_st=3, l_lt=8, k=4, n_heads=2, m=8, n_rounds=2,
            variant=variants[case % len(variants)], mlp_widths=(6,), seed=case,
            n_items=30, n_categories=5, n_users=6, epochs=0,
            use_time_buckets=(case % 2 == 0),
        )
        params = init_params(config)
        batch = [
            _sample(rng, config, n_long=6, label=1),
            _sample(rng, config, n_long=4, n_pad=2, label=0),
        ]
        # retrieval picks a discrete set; freezing it keeps the loss smooth
        # around the base point so the difference quotient is meaningful
        frozen = None
        if config.variant == "ETA":
            frozen = frozen_selections([long_selection(s, params, config).indices
                                        for s in batch])

        def loss():
            return loss_and_gradients(
                batch, params, config, frozen_selections=frozen
            )[0]

        _, grads = loss_and_gradients(
            batch, params, config, frozen_selections=frozen
        )
        for name, arr in flatten(params, config).items():
            view = arr.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(view.size):
                keep = view[i]
                view[i] = keep + eps
                up = loss()
                view[i] = keep - eps
                dn = loss()
                view[i] = keep
                fd = (up - dn) / (2.0 * eps)
                # the floor holds near-zero derivatives to the same bar
                # in absolute terms instead of amplifying difference noise
                worst = max(worst, abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-6))
                n_coords += 1
    _check(
        6, "gradients-match-finite-differences",
        worst <= 1e-4,
        f"max relative error {worst:.2e} <= 1e-4 over {n_coords} coordinates "
        "in 20 configs, step 1e-4",
    )


# ---------------------------------------------------------------------------
# 7. rank-based AUC equals the all-pairs definition, ties counted half


def test_rank_auc_equals_pairwise_auc():
    rng = np.random.default_rng(700)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(2, 2_001))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():  # both classes required
            labels[int(rng.integers(0, n))] = 1 - labels[0]
        levels = int(rng.choice([4, 16, 1_000_000]))  # few levels: many ties
        scores = rng.integers(0, levels, size=n).astype(np.float64)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum(dtype=np.int64)
        ties = (pos[:, None] == neg[None, :]).sum(dtype=np.int64)
        brute = float((wins + 0.5 * ties) / (pos.size * neg.size))
        if auc(scores, labels) != brute:
            bad += 1
    _check(
        7, "rank-auc-equals-pairwise-auc",
        bad == 0,
        f"{100 - bad}/100 instances exactly equal, n up to 2000, tied scores included",
    )


# ---------------------------------------------------------------------------
# 11. an embedding edit is visible to the very next retrieval


def test_embedding_edit_enters_next_retrieval():
    config = ModelConfig(
        d=8, l_st=3, l_lt=40, k=6, n_heads=2, m=16, n_rounds=2,
        variant="ETA", mlp_widths=(10,), seed=2,
        n_items=400, n_categories=8, n_users=10, epochs=0,
    )
    n_cats = config.n_categories

    def cat_of(item):
        return (item - 1) % n_cats + 1

    target = 25
    edited = target + n_cats  # different item, same category as the target
    pos = 4  # old position: recency alone would never promote it
    long_items = list(range(40, 40 + config.l_lt))  # distinct, disjoint from above
    long_items[pos] = edited
    sample = Sample(
        user_id=1, target_item=target, target_category=cat_of(target),
        context_bucket=3, timestamp=BASE_TS, label=1,
        short_seq=tuple(
            (it, cat_of(it), BASE_TS - j * 60) for j, it in enumerate((7, 9, 11))
        ),
        long_seq=tuple(
            (it, cat_of(it), BASE_TS - (24 + j) * 3600)
            for j, it in enumerate(long_items)
        ),
    )
    params = init_params(config)
    before = long_selection(sample, params, config)
    was_out = pos not in before.indices.tolist()

    # align the edited item's hash input with the target's query vector;
    # positive scaling preserves every projection sign, so its fresh
    # fingerprint collides with the query at distance zero
    query_vec = params.item_emb[target] + params.cat_emb[cat_of(target)]
    params.item_emb[edited] = 2.5 * query_vec - params.cat_emb[cat_of(edited)]

    after = long_selection(sample, params, config)
    now_in = pos in after.indices.tolist()
    dist = int(after.scores[after.indices.tolist().index(pos)]) if now_in else -1
    _check(
        11, "embedding-edit-visible-to-next-retrieval",
        was_out and now_in and dist == 0,
        f"position outside top-k before edit: {was_out}; "
        f"selected right after with distance {dist}",
    )


# ---------------------------------------------------------------------------
# 10. serving latency: hash retrieval beats full attention and scales right


def test_scoring_latency_ratio_and_stage_scaling():
    threads = environment_note()["blas_threads"]
    base = ModelConfig(
        variant="ETA", d=32, l_st=16, l_lt=1024, k=48, n_heads=2,
        m=32, n_rounds=2, seed=5, n_items=5_000, n_categories=100,
        n_users=200, epochs=0,
    )
    full_1k, eta_1k, full_2k, eta_2k = run_comparison(
        base,
        [{"variant": "FULL_TA", "l_lt": 1024}, {"variant": "ETA", "l_lt": 1024},
         {"variant": "FULL_TA", "l_lt": 2048}, {"variant": "ETA", "l_lt": 2048}],
        n_candidates=128, n_requests=1_000, warmup=100,
    )
    # work both variants share (prepare, candidate lookup, finish) is about
    # 40% of a hash request at L=1024, so the bound applies at the longest
    # length swept, where full attention's cost dominates
    ratio = eta_2k.mean_us / full_2k.mean_us
    ratio_1k = eta_1k.mean_us / full_1k.mean_us

    scaling = run_scaling(
        base, [256, 512, 1024, 2048], 128, n_requests=1_000, warmup=100
    )
    retr = [r.retrieval_mean_us for r in scaling]
    steps = [retr[i + 1] / retr[i] for i in range(len(retr) - 1)]
    attn = [r.attention_mean_us for r in scaling]
    spread = abs(attn[-1] - attn[0]) / min(attn[-1], attn[0])

    _check(
        10, "latency-ratio-and-stage-scaling",
        threads == 1
        and ratio <= 0.75
        and all(1.5 <= s <= 2.8 for s in steps)
        and spread < 0.25,
        f"BLAS threads {threads} == 1; "
        f"hash/full mean latency at L=2048 {ratio:.3f} <= 0.75 "
        f"({eta_2k.mean_us:.0f}us vs {full_2k.mean_us:.0f}us), "
        f"at L=1024 {ratio_1k:.3f} "
        f"({eta_1k.mean_us:.0f}us vs {full_1k.mean_us:.0f}us); "
        f"retrieval growth per doubling {[round(s, 2) for s in steps]} in [1.5, 2.8]; "
        f"attention spread across lengths {spread:.3f} < 0.25",
    )


# ---------------------------------------------------------------------------
# 8 & 9. synthetic long-term-interest task: model quality orderings


@pytest.fixture(scope="module")
def interest_experiment():
    """Train the quality-gate grid once: two baselines plus a hash-width sweep.

    Users in the synthetic log revisit a few favorite items from their
    interest categories after a long gap, so only a model that can pull
    the right rows out of the long window can separate clicks from
    impression noise."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        n_users=2_000, n_items=10_000, n_categories=100, events_per_user=400,
        interest_categories_per_user=4, favorites_per_category=1,
        noise_rate=0.2, long_term_gap_days=14, impression_window_days=30,
        seed=11,
    )
    events, _ = generate_synthetic(spec)
    log = log_from_events(events)
    sets = build_samples(
        log.events_by_user, 16, 256, 3, build_category_index(log), 11
    )
    base = ModelConfig(
        d=16, l_st=16, l_lt=256, k=16, n_heads=2, m=32, n_rounds=2,
        variant="ETA", seed=11, learning_rate=5e-3, l2=1e-4,
        batch_size=128, epochs=12,
        n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users,
    )

    train_seconds = {}

    def run(variant, m):
        config = replace(base, variant=variant, m=m)
        start = time.perf_counter()
        result = train(sets.train, sets.val, config)
        train_seconds[f"{variant} m={m}" if variant == "ETA" else variant] = (
            time.perf_counter() - start)
        return evaluate(sets.test, result.params, config).auc

    aucs = {
        "POOLING": run("POOLING", 32),
        "FULL_TA": run("FULL_TA", 32),
        ("ETA", 4): run("ETA", 4),     # m = d/4
        ("ETA", 32): run("ETA", 32),   # m = 2d
        ("ETA", 64): run("ETA", 64),   # m = 4d
    }
    return {"aucs": aucs, "seconds": time.perf_counter() - t0, "train_seconds": train_seconds}


def test_interest_recovery_beats_pooling_and_tracks_full_attention(interest_experiment):
    aucs = interest_experiment["aucs"]
    seconds = interest_experiment["seconds"]
    trained = ", ".join(f"{name} {s:.0f}s" for name, s in interest_experiment["train_seconds"].items())
    eta, pool, full = aucs[("ETA", 32)], aucs["POOLING"], aucs["FULL_TA"]
    _check(
        8, "interest-recovery-auc-ordering",
        pool < eta and eta - pool >= 0.01 and full - eta <= 0.005
        and seconds <= 900.0,
        f"pooling {pool:.4f} < hash-retrieval {eta:.4f} (gap {eta - pool:+.4f} >= 0.01); "
        f"full-attention minus hash {full - eta:+.4f} <= 0.005; "
        f"experiment {seconds:.0f}s <= 900s (training {trained})",
    )


def test_hash_width_auc_flattens_past_twice_embedding_dim(interest_experiment):
    aucs = interest_experiment["aucs"]
    narrow, twice, wide = aucs[("ETA", 4)], aucs[("ETA", 32)], aucs[("ETA", 64)]
    _check(
        9, "hash-width-auc-flattening",
        twice - narrow >= 0.003 and wide - twice <= 0.003,
        f"auc m=4: {narrow:.4f}, m=32: {twice:.4f}, m=64: {wide:.4f}; "
        f"rise to twice-dim {twice - narrow:+.4f} >= 0.003, "
        f"tail beyond {wide - twice:+.4f} <= 0.003",
    )
