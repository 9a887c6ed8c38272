"""Slow, obviously-correct references the tests check the package against.

None of these is on a serving or training path; each spells out one
definition with plain loops so a fast kernel can be compared to it.
with_specials makes inputs that probe the edges of such definitions.
"""

import math
from dataclasses import fields

import numpy as np

from hashta.data import SECONDS_PER_DAY
from hashta.fingerprint import _check_comparable, fingerprint_batch
from hashta.model import Request
from hashta.retrieval import angular_top_k_batch, category_hard_search_batch, hamming_top_k_batch


def hamming(a, b) -> int:
    """Bit-level Hamming distance of two fingerprints over all rounds."""
    _check_comparable(a, b)
    return int(np.bitwise_count(a.words ^ b.words).sum())


def _cosine32(q, qn: float, row) -> float:
    """Cosine from exactly rounded sums, rounded to float32; -inf for a
    zero key, 0 for a zero query."""
    if qn == 0.0:
        return 0.0
    kn = math.sqrt(math.fsum(x * x for x in row))
    if kn == 0.0:
        return -math.inf
    return float(np.float32(math.fsum(a * b for a, b in zip(q, row)) / (qn * kn))) + 0.0


def top_k_by_angle(query, keys, valid_mask, k: int):
    """Exhaustive angular top-k: (positions, cosines), sorted by cosine
    descending then position descending, padding left out."""
    q = [float(x) for x in query]
    qn = math.sqrt(math.fsum(x * x for x in q))
    cos = [_cosine32(q, qn, [float(x) for x in row]) for row in np.asarray(keys)]
    order = sorted((j for j in range(len(cos)) if valid_mask[j]), key=lambda j: (-cos[j], -j))
    order = order[:k]
    return order, [cos[j] for j in order]


def cosines_match(got, want) -> bool:
    """Cosines agree to one float32 ulp: the oracle's exact sums and a
    float64 GEMM can round to neighbouring float32 values."""
    a = np.asarray(got, dtype=np.float32)
    b = np.asarray(want, dtype=np.float32)
    up = np.nextafter(a, np.float32(np.inf))
    down = np.nextafter(a, np.float32(-np.inf))
    return a.shape == b.shape and bool(np.all((a == b) | (up == b) | (down == b)))


def softmax_oracle(logits, mask=None):
    """Softmax along the last axis; with a mask (broadcast against logits),
    unset entries are -inf and a row with none set is all zeros."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    logits = logits - logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    out = logits / logits.sum(axis=-1, keepdims=True)
    if mask is not None:
        out[np.broadcast_to(~mask.any(axis=-1, keepdims=True), out.shape)] = 0.0
    return out


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0, 745.0, -745.0, 1e-320, -1e-320]


def with_specials(rng, shape, dtype):
    """Random values over several scales, with SPECIAL_VALUES at random spots."""
    x = (rng.standard_normal(shape) * rng.choice([1.0, 30.0, 1e3], size=shape)).astype(dtype)
    flat = x.reshape(-1)
    spots = rng.choice(flat.size, size=min(flat.size, 4 * len(SPECIAL_VALUES)), replace=False)
    flat[spots] = np.resize(np.array(SPECIAL_VALUES, dtype), spots.size)
    return x


def per_sample_selections(samples, params, config, item_fps=None) -> list:
    """(positions best first, scores) for each sample: one shared-key
    selector call per sample, a one-row query against the sample's own
    unpadded window.  ETA's bits hash the item + category sums, or are
    read from item_fps by item id."""
    out = []
    for s in samples:
        rows = np.asarray(s.long_seq, dtype=np.int64).reshape(-1, 3)
        items, cats, mask = rows[:, 0], rows[:, 1], rows[:, 0] != 0
        target = params.item_emb[[s.target_item]] + params.cat_emb[[s.target_category]]
        keys = params.item_emb[items] + params.cat_emb[cats]
        if config.variant == "ETA":
            if item_fps is None:
                queries, key_bits = (fingerprint_batch(x, params.family) for x in (target, keys))
            else:
                queries, key_bits = item_fps.take([s.target_item]), item_fps.take(items)
            idx, score = hamming_top_k_batch(queries, key_bits, mask, config.k)
        elif config.variant == "SIM_HARD":
            idx, score = category_hard_search_batch([s.target_category], cats, mask, config.k)
            score = score.astype(np.float64)
        else:
            idx, score = angular_top_k_batch(target, keys, mask, config.k)
        out.append((idx[0], score[0]))
    return out


def frozen_selections(selections) -> np.ndarray:
    """Per-sample position lists as the (B, k) array loss_and_gradients
    pins, -1 past each sample's selection."""
    width = max((len(s) for s in selections), default=0)
    out = np.full((len(selections), width), -1, dtype=np.int64)
    for row, sel in enumerate(selections):
        out[row, : len(sel)] = sel
    return out


def request_from_sample(sample) -> Request:
    """The request a sample's user state makes, without its target."""
    return Request(
        sample.user_id, sample.context_bucket, sample.timestamp,
        sample.short_seq, sample.long_seq,
    )


def record_value(record) -> tuple:
    """A Sample's or Request's fields as one hashable value, each window as
    a tuple of (item, category, ts) row tuples, so an array window and the
    same rows held as tuples give equal values."""
    def rows(window):
        return tuple(map(tuple, window.tolist() if isinstance(window, np.ndarray) else window))

    return tuple(rows(getattr(record, f.name)) if f.name.endswith("_seq")
                 else getattr(record, f.name) for f in fields(record))


def adam_step_per_tensor(flat: dict, grads: dict, state: dict, lr: float,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam (Kingma & Ba, arXiv 1412.6980) tensor by tensor over named
    weights, as whole-array expressions: state holds the step count "t"
    and per-name moments "m" and "v" in each weight's dtype."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, arr in flat.items():
        gr = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(arr))
        v = state["v"].setdefault(name, np.zeros_like(arr))
        m *= beta1
        m += (1.0 - beta1) * gr
        v *= beta2
        v += (1.0 - beta2) * gr * gr
        arr -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def item_categories_from_samples(samples, config) -> np.ndarray:
    """item -> category array recovered from sample targets and behaviors."""
    cats = np.zeros(config.n_items + 1, dtype=np.int64)
    for s in samples:
        cats[s.target_item] = s.target_category
        for item, cat, _ in s.short_seq:
            if item:
                cats[item] = cat
        for item, cat, _ in s.long_seq:
            if item:
                cats[item] = cat
    return cats


def interest_oracle(events, gap_days: int, top_n: int) -> dict:
    """Frequency count of categories among events older than the gap
    (relative to each user's last event); top_n per user."""
    by_user: dict = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)
    out = {}
    for user, evs in by_user.items():
        evs = sorted(evs, key=lambda e: e.timestamp)
        horizon = evs[-1].timestamp - gap_days * SECONDS_PER_DAY
        counts: dict = {}
        for e in evs[:-1]:
            if e.timestamp < horizon:
                counts[e.category_id] = counts.get(e.category_id, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        out[user] = tuple(sorted(c for c, _ in ranked[:top_n]))
    return out
