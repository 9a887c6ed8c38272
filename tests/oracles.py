"""Slow, obviously-correct references the tests check the package against.

None of these is on a serving or training path; each spells out one
definition with plain loops so a fast kernel can be compared to it.
"""

import math

import numpy as np

from hashta.data import SECONDS_PER_DAY
from hashta.fingerprint import _check_comparable
from hashta.model import Request


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


def request_from_sample(sample) -> Request:
    """The request a sample's user state makes, without its target."""
    return Request(
        sample.user_id, sample.context_bucket, sample.timestamp,
        sample.short_seq, sample.long_seq,
    )


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
