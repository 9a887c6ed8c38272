from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashta import retrieval
from hashta.fingerprint import FingerprintTable, fingerprint_batch, new_hash_family
from hashta.retrieval import (
    angular_top_k_batch,
    category_hard_search_batch,
    hamming_top_k_batch,
    recall_at_k,
)
from oracles import cosines_match, top_k_by_angle


def one_query(vec, fam):
    """A one-row query table: the form training's per-sample selection uses."""
    return fingerprint_batch(np.asarray(vec, float)[None, :], fam)


def top_hamming(query, table, mask, k):
    """(positions, distances) of a one-row query, as lists."""
    idx, dist = hamming_top_k_batch(query, table, mask, k)
    return idx[0].tolist(), dist[0].tolist()


def hard_search(target, cats, mask, k):
    """(positions, match flags) for one target category, as lists."""
    idx, match = category_hard_search_batch([target], cats, mask, k)
    return idx[0].tolist(), match[0].tolist()


def brute_hamming_order(query, table, mask):
    """Full sort oracle: (distance asc, position desc), valid only."""
    dists = [
        int(np.bitwise_count(table.words[i] ^ query.words[0]).sum())
        for i in range(len(table))
    ]
    order = sorted(
        (i for i in range(len(table)) if mask[i]),
        key=lambda i: (dists[i], -i),
    )
    return order, dists


def sorted_hamming_rows(queries, keys, mask, k):
    """Exhaustive oracle for a batch: per query, a full lexsort of valid
    positions by (distance, -position); (indices, distances) lists."""
    positions = np.flatnonzero(mask)
    out = []
    for row in range(queries.words.shape[0]):
        dists = np.bitwise_count(keys.words ^ queries.words[row]).sum(axis=1)[positions]
        order = np.lexsort((-positions, dists))[:k]
        out.append((positions[order].tolist(), dists[order].tolist()))
    return out


def table_rows(table, rows):
    """The fingerprints table.words[rows], as a table."""
    return FingerprintTable(table.words[rows], table.rounds, table.bits_per_round)


def per_query_mask(rng, n_queries, length, valid_p):
    """(n_queries, length) mask whose rows are all-masked, sparse or at
    valid_p, so some rows hold fewer valid keys than k."""
    row_p = rng.choice([0.0, 0.3, valid_p], size=(n_queries, 1))
    return rng.random((n_queries, length)) < row_p


def row_blocks(per_query):
    """Row blocks of 256 keys for per-query keys, so rows cross block
    boundaries at test sizes; the real block size for shared keys."""
    return mock.patch.object(retrieval, "_BLOCK_ELEMENTS", 256) if per_query else nullcontext()


def assert_row(idx, scores, want_idx, want_scores, fill):
    """A row equals a shorter selection followed by -1 positions and the
    fill score."""
    tail = idx.shape[0] - len(want_idx)
    assert idx.tolist() == list(want_idx) + [-1] * tail
    assert scores[: len(want_idx)].tolist() == list(want_scores)
    np.testing.assert_array_equal(scores[len(want_idx):], np.full(tail, fill))


def random_instance(seed, length, dim=6, m=16, rounds=2, mask_p=0.9):
    rng = np.random.default_rng(seed)
    fam = new_hash_family(dim, m, rounds, seed=seed % 1000)
    embs = rng.standard_normal((length, dim))
    table = fingerprint_batch(embs, fam)
    query = one_query(rng.standard_normal(dim), fam)
    mask = rng.random(length) < mask_p
    return query, table, mask, embs


# ---------------------------------------------------------------------------
# hamming top-k


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 70))
@settings(max_examples=60, deadline=None)
def test_hamming_top_k_matches_sort_oracle(seed, length, k):
    query, table, mask, _ = random_instance(seed, length)
    idx, dist = top_hamming(query, table, mask, k)
    order, dists = brute_hamming_order(query, table, mask)
    expect = order[: min(k, len(order))]
    assert idx == expect
    assert dist == [dists[i] for i in expect]


def test_tie_break_prefers_recency():
    # duplicate fingerprints at many positions force distance ties
    fam = new_hash_family(4, 8, 1, seed=0)
    v = np.array([1.0, -1.0, 0.5, 2.0])
    embs = np.stack([v, v * 2.0, -v, v * 0.5, -v * 3.0])  # dup signs
    table = fingerprint_batch(embs, fam)
    idx, dist = top_hamming(one_query(v, fam), table, np.ones(5, bool), 3)
    # positions 0, 1, 3 all at distance 0: most recent (largest) first
    assert idx == [3, 1, 0]
    assert dist == [0, 0, 0]


def test_masked_positions_never_selected():
    query, table, mask, _ = random_instance(3, 40, mask_p=0.5)
    idx, _ = top_hamming(query, table, mask, 40)
    assert all(mask[i] for i in idx)
    assert len(idx) == int(mask.sum())


def test_saturated_k_returns_all_valid_ascending_quality():
    query, table, mask, _ = random_instance(5, 12, mask_p=1.0)
    idx, dist = top_hamming(query, table, mask, 100)
    assert sorted(idx) == list(range(12))
    assert all(a <= b for a, b in zip(dist, dist[1:]))


def test_all_masked_gives_empty_result():
    query, table, _, _ = random_instance(8, 10)
    idx, dist = hamming_top_k_batch(query, table, np.zeros(10, bool), 4)
    assert idx.shape == dist.shape == (1, 0)


def test_invalid_args_rejected():
    query, table, mask, _ = random_instance(1, 10)
    with pytest.raises(ValueError):
        hamming_top_k_batch(query, table, mask, 0)
    with pytest.raises(ValueError):
        hamming_top_k_batch(query, table, np.ones(9, bool), 3)
    other = one_query(np.zeros(6), new_hash_family(6, 16, 3, seed=0))
    with pytest.raises(ValueError):
        hamming_top_k_batch(other, table, mask, 3)
    # one key set per query: as many key sets as queries, and a mask per set
    per_query = FingerprintTable(np.stack([table.words] * 2), table.rounds, table.bits_per_round)
    with pytest.raises(ValueError, match="^2 key sets for 1 queries$"):
        hamming_top_k_batch(query, per_query, np.stack([mask] * 2), 3)
    with pytest.raises(ValueError, match="valid_mask shape"):
        hamming_top_k_batch(table_rows(table, slice(0, 2)), per_query, mask, 3)
    with pytest.raises(ValueError, match="^2 key sets for 1 queries$"):
        angular_top_k_batch(np.ones((1, 2)), np.ones((2, 3, 2)), np.ones((2, 3), bool), 1)
    with pytest.raises(ValueError, match="^2 key sets for 1 queries$"):
        category_hard_search_batch([1], np.ones((2, 3)), np.ones((2, 3), bool), 1)


@pytest.mark.parametrize("rounds,m,query_words,key_words", [
    (1, 128, 2, 3),  # unequal widths: a third key word no query word would meet
    (2, 32, 1, 2),  # two rounds of 32 bits in one word each, the old per-round layout
])
def test_word_counts_are_checked_before_any_distance(rounds, m, query_words, key_words):
    query = FingerprintTable(np.zeros((1, query_words), np.uint64), rounds, m)
    keys = FingerprintTable(np.zeros((2, key_words), np.uint64), rounds, m)
    keys.words[1, -1] = np.uint64(2**64 - 1)
    with pytest.raises(ValueError, match="words"):
        hamming_top_k_batch(query, keys, np.ones(2, bool), 1)


# ---------------------------------------------------------------------------
# batch


@given(st.integers(0, 2**32 - 1), st.integers(1, 1100), st.integers(1, 50), st.integers(1, 6),
       st.data())
@settings(max_examples=40, deadline=None)
def test_batch_rows_equal_single_queries(seed, length, k, n_queries, data):
    # a single query is a one-row batch, so rows are checked against the
    # exhaustive sort; a longer then a shorter length after the first
    # call show that no call depends on the lengths an earlier one saw.
    # With one key set per query each row also equals a one-row call on
    # its own keys, and rows short of k valid keys end in -1
    longer = data.draw(st.integers(length + 1, length + 600), label="longer")
    shorter = data.draw(st.integers(1, longer - 1), label="shorter")
    valid_p = data.draw(st.sampled_from([0.85, 1.0]), label="valid_p")
    rng = np.random.default_rng(seed)
    fam = new_hash_family(5, 24, 2, seed=3)
    queries = fingerprint_batch(rng.standard_normal((n_queries, 5)), fam)
    for per_query in (False, True):
        for n in (length, longer, shorter):
            if per_query:
                flat = fingerprint_batch(rng.standard_normal((n_queries * n, 5)), fam)
                keys = FingerprintTable(flat.words.reshape(n_queries, n, -1), fam.rounds,
                                        fam.bits_per_round)
                mask = per_query_mask(rng, n_queries, n, valid_p)
            else:
                keys = fingerprint_batch(rng.standard_normal((n, 5)), fam)
                mask = rng.random(n) < valid_p
            with row_blocks(per_query):
                idx, dists = hamming_top_k_batch(queries, keys, mask, k)
            counts = np.count_nonzero(mask, axis=-1)
            assert idx.shape == dists.shape == (n_queries, min(k, int(counts.max())))
            for row in range(n_queries):
                query = table_rows(queries, slice(row, row + 1))
                row_keys = table_rows(keys, row) if per_query else keys
                row_mask = mask[row] if per_query else mask
                ((want, want_dists),) = sorted_hamming_rows(query, row_keys, row_mask, k)
                assert_row(idx[row], dists[row], want, want_dists, -1)
                if per_query:
                    one_idx, one_dists = hamming_top_k_batch(query, row_keys, row_mask, k)
                    assert one_idx[0].tolist() == want and one_dists[0].tolist() == want_dists


@given(st.integers(0, 2**32 - 1), st.integers(900, 2100),
       st.sampled_from([(24, 2), (40, 2), (96, 1)]), st.data())
@settings(max_examples=25, deadline=None)
def test_batch_rows_equal_single_queries_across_row_blocks(seed, length, family, data):
    # (40, 2) and (96, 1) span two words per fingerprint, so the keys are
    # not densified into one word
    rows_per_block = retrieval._BLOCK_ELEMENTS // length
    n_queries = data.draw(st.integers(rows_per_block + 1, 3 * rows_per_block), label="n_queries")
    valid_p = data.draw(st.sampled_from([0.01, 0.9, 1.0]), label="valid_p")
    k = data.draw(st.sampled_from([1, 16, 48, length]), label="k")
    rng = np.random.default_rng(seed)
    fam = new_hash_family(5, family[0], family[1], seed=7)
    # a small vocabulary of key vectors forces distance ties at every boundary
    vocab = rng.standard_normal((300, 5))
    keys = fingerprint_batch(vocab[rng.integers(0, 300, size=length)], fam)
    queries = fingerprint_batch(vocab[rng.integers(0, 300, size=n_queries)], fam)
    mask = rng.random(length) < valid_p
    idx, dists = hamming_top_k_batch(queries, keys, mask, k)
    assert idx.shape == dists.shape == (n_queries, min(k, int(mask.sum())))
    for row, (want, want_dists) in enumerate(sorted_hamming_rows(queries, keys, mask, k)):
        assert idx[row].tolist() == want
        assert dists[row].tolist() == want_dists


def test_batch_all_masked():
    fam = new_hash_family(4, 16, 1, seed=0)
    keys = fingerprint_batch(np.ones((6, 4)), fam)
    queries = fingerprint_batch(np.ones((3, 4)), fam)
    idx, dists = hamming_top_k_batch(queries, keys, np.zeros(6, bool), 4)
    assert idx.shape == (3, 0) and dists.shape == (3, 0)


# ---------------------------------------------------------------------------
# angular


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 200), st.data())
@settings(max_examples=40, deadline=None)
def test_angular_batch_rows_match_sort_oracle(seed, length, n_queries, data):
    dim = data.draw(st.integers(1, 6), label="dim")
    k = data.draw(st.integers(1, length + 3), label="k")  # k >= valid count too
    valid_p = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="valid_p")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(seed)
    # keys repeat rows of a small vocabulary, so cosines tie exactly, and
    # vocabulary row 0 is a zero-norm key
    vocab = rng.standard_normal((max(2, length // 3), dim))
    vocab[0] = 0.0
    # with one key matrix per query, each row also equals a one-row call on
    # its own keys, and rows short of k valid keys end in -1
    for per_query in (False, True):
        shape = (n_queries, length) if per_query else (length,)
        keys = vocab[rng.integers(0, vocab.shape[0], size=shape)].astype(dtype)
        queries = rng.standard_normal((n_queries, dim)).astype(dtype)
        queries[rng.random(n_queries) < 0.1] = 0.0  # zero-norm queries: pure recency
        if per_query:
            mask = per_query_mask(rng, n_queries, length, valid_p)
        else:
            mask = rng.random(length) < valid_p
        with row_blocks(per_query):
            idx, cos = angular_top_k_batch(queries, keys, mask, k)
        width = min(k, int(np.count_nonzero(mask, axis=-1).max()))
        assert idx.shape == cos.shape == (n_queries, width)
        for row in range(n_queries):
            row_keys, row_mask = (keys[row], mask[row]) if per_query else (keys, mask)
            want, want_cos = top_k_by_angle(queries[row], row_keys, row_mask, k)
            assert idx[row].tolist() == want + [-1] * (width - len(want))
            assert cosines_match(cos[row, : len(want)], want_cos)
            assert np.isnan(cos[row, len(want):]).all()
            if per_query:
                one_idx, one_cos = angular_top_k_batch(queries[row : row + 1], row_keys,
                                                       row_mask, k)
                assert one_idx[0].tolist() == want
                assert one_cos[0].tolist() == cos[row, : len(want)].tolist()


def test_angular_one_row_call_equals_row_of_batch():
    # the serving shape: 128 candidates against a 2048-long history of
    # repeated items, several row blocks per call, float32 inputs
    rng = np.random.default_rng(12)
    catalog = rng.standard_normal((3000, 32)).astype(np.float32)
    keys = catalog[np.minimum(rng.zipf(1.3, size=2048), 3000) - 1]
    queries = catalog[rng.integers(0, 3000, size=128)]
    mask = rng.random(2048) < 0.95
    assert 128 > retrieval._BLOCK_ELEMENTS // int(mask.sum())
    idx, cos = angular_top_k_batch(queries, keys, mask, 48)
    for row in range(128):
        one_idx, one_cos = angular_top_k_batch(queries[row : row + 1], keys, mask, 48)
        assert one_idx[0].tolist() == idx[row].tolist()
        assert one_cos[0].tolist() == cos[row].tolist()
    for row in range(0, 128, 16):
        want, want_cos = top_k_by_angle(queries[row], keys, mask, 48)
        assert idx[row].tolist() == want
        assert cosines_match(cos[row], want_cos)


def test_angular_tie_break_prefers_recency():
    keys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 0.0]])
    idx, cos = angular_top_k_batch(np.array([[1.0, 0.0]]), keys, np.ones(4, bool), 3)
    assert idx[0].tolist() == [3, 2, 0]
    assert cos[0].tolist() == [1.0, 1.0, 1.0]


def test_angular_ignores_key_scale():
    rng = np.random.default_rng(4)
    keys = rng.standard_normal((20, 3))
    scales = rng.uniform(0.1, 10.0, size=20)[:, None]
    q = rng.standard_normal((2, 3))
    mask = np.ones(20, bool)
    a, _ = angular_top_k_batch(q, keys, mask, 7)
    b, _ = angular_top_k_batch(q, keys * scales, mask, 7)
    assert a.tolist() == b.tolist()


def test_angular_zero_norm_key_ranks_last():
    keys = np.array([[0.0, 0.0], [0.2, 0.1], [-1.0, -1.0]])
    idx, cos = angular_top_k_batch(np.array([[1.0, 1.0]]), keys, np.ones(3, bool), 3)
    assert idx[0].tolist()[-1] == 0
    assert cos[0, -1] == -np.inf


def test_angular_zero_norm_query_is_pure_recency():
    keys = np.array([[0.0, 0.0], [0.2, 0.1], [-1.0, -1.0], [3.0, 0.5]])
    mask = np.array([True, True, False, True])
    idx, cos = angular_top_k_batch(np.zeros((1, 2)), keys, mask, 4)
    assert idx[0].tolist() == [3, 1, 0]
    assert cos[0].tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        angular_top_k_batch(np.ones((1, 2)), np.ones((3, 2)), np.ones(3, bool), 0)
    with pytest.raises(ValueError):
        angular_top_k_batch(np.ones((1, 3)), np.ones((3, 2)), np.ones(3, bool), 1)


# ---------------------------------------------------------------------------
# category hard search


def test_hard_search_matches_then_backfills():
    cats = np.array([5, 2, 5, 3, 5, 2])
    idx, match = hard_search(5, cats, np.ones(6, bool), 4)
    # matches by recency: 4, 2, 0; then backfill with most recent other: 5
    assert idx == [4, 2, 0, 5]
    assert match == [True, True, True, False]


def test_hard_search_respects_mask():
    cats = np.array([5, 5, 5, 5])
    mask = np.array([True, False, True, False])
    assert hard_search(5, cats, mask, 4)[0] == [2, 0]


def test_hard_search_no_matches_is_pure_recency():
    cats = np.array([1, 2, 3, 4])
    assert hard_search(9, cats, np.ones(4, bool), 3) == ([3, 2, 1], [False, False, False])


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 50), st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_hard_search_matches_sort_oracle(seed, length, k, n_targets):
    # with one sequence per target, each row also equals a one-row call on
    # its own sequence, and rows short of k valid keys end in -1
    rng = np.random.default_rng(seed)
    for per_query in (False, True):
        shape = (n_targets, length) if per_query else (length,)
        cats = rng.integers(1, 5, size=shape)
        if per_query:
            mask = per_query_mask(rng, n_targets, length, 0.85)
        else:
            mask = rng.random(length) < 0.85
        targets = rng.integers(1, 5, size=n_targets)
        with row_blocks(per_query):
            idx, match = category_hard_search_batch(targets, cats, mask, k)
        width = min(k, int(np.count_nonzero(mask, axis=-1).max()))
        assert idx.shape == match.shape == (n_targets, width)
        for row, target in enumerate(targets.tolist()):
            row_cats, row_mask = (cats[row], mask[row]) if per_query else (cats, mask)
            order = sorted(
                (i for i in range(length) if row_mask[i]),
                key=lambda i: (0 if row_cats[i] == target else 1, -i),
            )[:k]
            matches = [bool(row_cats[i] == target) for i in order]
            assert_row(idx[row], match[row], order, matches, False)
            if per_query:
                assert hard_search(target, row_cats, row_mask, k) == (order, matches)


# ---------------------------------------------------------------------------
# recall


def test_recall_values():
    assert recall_at_k([1, 2, 3], [2, 3, 4]) == pytest.approx(2 / 3)
    assert recall_at_k([1, 2], [1, 2]) == 1.0
    assert recall_at_k([5], [1, 2]) == 0.0
    with pytest.raises(ValueError):
        recall_at_k([1], [])
    with pytest.raises(ValueError):
        recall_at_k([], [1])


def test_hamming_recall_of_angular_improves_with_bits():
    # more hash bits -> hamming ranking tracks the cosine ranking better
    rng = np.random.default_rng(11)
    dim, length, k = 16, 128, 16
    mean_recall = {}
    for m in (8, 256):
        recalls = []
        for trial in range(20):
            embs = rng.standard_normal((length, dim))
            q = rng.standard_normal(dim)
            fam = new_hash_family(dim, m, 2, seed=trial)
            table = fingerprint_batch(embs, fam)
            mask = np.ones(length, bool)
            approx, _ = hamming_top_k_batch(one_query(q, fam), table, mask, k)
            exact, _ = angular_top_k_batch(q[None, :], embs, mask, k)
            recalls.append(recall_at_k(approx[0], exact[0]))
        mean_recall[m] = float(np.mean(recalls))
    assert mean_recall[256] > mean_recall[8] + 0.1
    assert mean_recall[256] > 0.5
