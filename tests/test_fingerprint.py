import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashta.errors import FormatError
from hashta.fingerprint import (
    FingerprintTable,
    fingerprint_batch,
    load_table,
    new_hash_family,
    save_table,
    table_from_bytes,
    table_to_bytes,
    _round_normals,
)
from oracles import hamming


# ---------------------------------------------------------------------------
# independent reference implementations (pure python, no packing)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def py_mix64(x: int) -> int:
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def py_round_normals(seed: int, round_index: int, n: int):
    s0 = py_mix64(seed ^ py_mix64(round_index + 1))
    pairs = (n + 1) // 2
    words = [py_mix64((s0 + (i + 1) * GAMMA) & MASK64) for i in range(2 * pairs)]
    out = []
    for i in range(pairs):
        u1 = ((words[2 * i] >> 11) + 1) * 2.0 ** -53
        u2 = (words[2 * i + 1] >> 11) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        out += [r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)]
    return np.array(out[:n])


def naive_bits(emb, family):
    """Bit matrix (rounds, bits_per_round) via per-column dot products."""
    bits = np.zeros((family.rounds, family.bits_per_round), dtype=np.int64)
    for r in range(family.rounds):
        for j in range(family.bits_per_round):
            bits[r, j] = 1 if float(emb @ family.projections[r][:, j]) >= 0.0 else 0
    return bits


def one_row(vec, family) -> FingerprintTable:
    """The fingerprint of one vector: a one-row table."""
    return fingerprint_batch(np.asarray(vec, dtype=np.float64)[None, :], family)


def bit_of(fp: FingerprintTable, r: int, j: int) -> int:
    i = r * fp.bits_per_round + j
    return int((int(fp.words[0, i // 64]) >> (i % 64)) & 1)


def packed_words(bits) -> list:
    """The words of a (rounds, bits_per_round) bit matrix with bit j of
    round r at position r * bits_per_round + j, zero above."""
    rounds, m = bits.shape
    value = sum(int(b) << (r * m + j) for (r, j), b in np.ndenumerate(bits))
    return [(value >> (64 * w)) & MASK64 for w in range(-(-rounds * m // 64))]


def naive_hamming(a: FingerprintTable, b: FingerprintTable) -> int:
    total = 0
    for r in range(a.rounds):
        for j in range(a.bits_per_round):
            total += bit_of(a, r, j) != bit_of(b, r, j)
    return total


# ---------------------------------------------------------------------------
# generator


def test_round_normals_match_pure_python():
    np.testing.assert_allclose(_round_normals(0, 0, 5), py_round_normals(0, 0, 5), rtol=1e-12)
    np.testing.assert_allclose(_round_normals(12345, 7, 8), py_round_normals(12345, 7, 8), rtol=1e-12)


def test_family_is_deterministic():
    a = new_hash_family(6, 24, 3, seed=42)
    b = new_hash_family(6, 24, 3, seed=42)
    np.testing.assert_array_equal(a.projections, b.projections)


def test_family_varies_with_seed_and_round():
    a = new_hash_family(6, 24, 2, seed=1)
    b = new_hash_family(6, 24, 2, seed=2)
    assert not np.array_equal(a.projections, b.projections)
    assert not np.array_equal(a.projections[0], a.projections[1])


def test_family_normals_look_standard():
    fam = new_hash_family(64, 512, 2, seed=9)
    flat = fam.projections.ravel()
    assert abs(flat.mean()) < 0.02
    assert abs(flat.std() - 1.0) < 0.02


@pytest.mark.parametrize("dim,m,rounds", [(0, 8, 1), (4, 0, 1), (4, 8, 0), (-2, 8, 1)])
def test_family_rejects_bad_shapes(dim, m, rounds):
    with pytest.raises(ValueError):
        new_hash_family(dim, m, rounds, seed=0)


# ---------------------------------------------------------------------------
# hashing


def test_zero_vector_hashes_to_all_ones():
    fam = new_hash_family(2, 8, 2, seed=0)
    fp = one_row(np.zeros(2), fam)
    assert all(bit_of(fp, r, j) == 1 for r in range(2) for j in range(8))


def test_negation_flips_every_bit():
    fam = new_hash_family(5, 33, 2, seed=3)
    v = np.array([0.3, -1.2, 2.0, 0.7, -0.1])
    assert hamming(one_row(v, fam), one_row(-v, fam)) == fam.total_bits


@given(
    st.integers(0, 2**32 - 1),
    st.floats(min_value=0.01, max_value=1000.0),
    st.integers(2, 8),
)
@settings(max_examples=30, deadline=None)
def test_positive_scaling_is_invariant(seed, scale, dim):
    fam = new_hash_family(dim, 17, 2, seed=5)
    v = np.random.default_rng(seed).standard_normal(dim)
    assert hamming(one_row(v, fam), one_row(scale * v, fam)) == 0


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6),
    st.integers(1, 70) | st.integers(71, 140),  # rounds of one, two and three words
    st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
@example(seed=0, dim=3, m=32, rounds=2)  # rounds fill one word exactly
@example(seed=1, dim=4, m=33, rounds=2)  # round 1 straddles a word boundary
@example(seed=2, dim=5, m=70, rounds=2)
def test_packed_bits_match_naive_projection_signs(seed, dim, m, rounds):
    fam = new_hash_family(dim, m, rounds, seed=77)
    u, v = np.random.default_rng(seed).standard_normal((2, dim))
    bits_u, bits_v = naive_bits(u, fam), naive_bits(v, fam)
    fu, fv = one_row(u, fam), one_row(v, fam)
    assert [int(w) for w in fu.words[0]] == packed_words(bits_u)
    assert [int(w) for w in fv.words[0]] == packed_words(bits_v)
    assert hamming(fu, fv) == int(np.count_nonzero(bits_u != bits_v))


def test_padding_bits_are_zero():
    fam = new_hash_family(3, 5, 2, seed=1)
    fp = one_row(np.zeros(3), fam)  # all data bits set, padding must stay clear
    assert fp.words.shape == (1, 1)
    assert int(fp.words[0, 0]) >> 10 == 0


def test_batch_equals_single():
    fam = new_hash_family(7, 19, 2, seed=13)
    embs = np.random.default_rng(4).standard_normal((20, 7))
    table = fingerprint_batch(embs, fam)
    for i in range(20):
        np.testing.assert_array_equal(table.words[i], one_row(embs[i], fam).words[0])


def test_simhash_rejects_wrong_dim():
    fam = new_hash_family(4, 8, 1, seed=0)
    with pytest.raises(ValueError):
        fingerprint_batch(np.zeros(4), fam)  # one vector is a (1, dim) batch
    with pytest.raises(ValueError):
        fingerprint_batch(np.zeros((3, 5)), fam)


# ---------------------------------------------------------------------------
# hamming


def test_hamming_frozen_example():
    fam = new_hash_family(4, 16, 2, seed=11)
    f1 = one_row(np.array([1.0, -2.0, 0.5, 3.0]), fam)
    f2 = one_row(np.array([-1.0, 0.0, 2.0, 1.0]), fam)
    # 0x4920 | 0x202d << 16: round 0's bits, then round 1's from bit 16
    assert [hex(int(w)) for w in f1.words[0]] == ["0x202d4920"]
    assert hamming(f1, f2) == 11


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 70), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_hamming_matches_naive_bit_loop(seed, dim, m, rounds):
    fam = new_hash_family(dim, m, rounds, seed=99)
    rng = np.random.default_rng(seed)
    a = one_row(rng.standard_normal(dim), fam)
    b = one_row(rng.standard_normal(dim), fam)
    assert hamming(a, b) == naive_hamming(a, b)


def test_hamming_identity_and_symmetry():
    fam = new_hash_family(6, 40, 2, seed=8)
    rng = np.random.default_rng(0)
    a = one_row(rng.standard_normal(6), fam)
    b = one_row(rng.standard_normal(6), fam)
    assert hamming(a, a) == 0
    assert hamming(a, b) == hamming(b, a)


def test_hamming_rejects_shape_mismatch():
    f1 = one_row(np.ones(3), new_hash_family(3, 8, 1, seed=0))
    f2 = one_row(np.ones(3), new_hash_family(3, 8, 2, seed=0))
    f3 = one_row(np.ones(3), new_hash_family(3, 9, 1, seed=0))
    with pytest.raises(ValueError):
        hamming(f1, f2)
    with pytest.raises(ValueError):
        hamming(f1, f3)


# ---------------------------------------------------------------------------
# statistical behavior


def test_collision_rate_tracks_angle():
    # small version of the acceptance check: mean |rate - angle/pi| shrinks
    # with more bits and is already tight at 256 bits
    rng = np.random.default_rng(123)
    fam = new_hash_family(16, 128, 2, seed=55)
    u = rng.standard_normal((1000, 16))
    v = rng.standard_normal((1000, 16))
    fu = fingerprint_batch(u, fam)
    fv = fingerprint_batch(v, fam)
    rates = np.bitwise_count(fu.words ^ fv.words).sum(axis=1) / fam.total_bits
    cos = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    assert np.mean(np.abs(rates - angles / np.pi)) < 0.03


def test_deviation_concentrates_with_more_bits():
    # same vector pair, many seeds: the std of the collision-rate estimate
    # must fall as the bit budget grows
    rng = np.random.default_rng(7)
    u = rng.standard_normal(12)
    v = rng.standard_normal(12)
    stds = []
    for m in (32, 128, 512):  # two rounds each: 64 / 256 / 1024 total bits
        rates = []
        for seed in range(150):
            fam = new_hash_family(12, m, 2, seed=seed)
            rates.append(hamming(one_row(u, fam), one_row(v, fam)) / fam.total_bits)
        stds.append(np.std(rates))
    assert stds[0] > stds[1] > stds[2]


def test_table_take_copies_rows_and_checks_ids():
    fam = new_hash_family(4, 70, 2, seed=22)  # 140 bits in three words
    table = fingerprint_batch(np.random.default_rng(23).standard_normal((9, 4)), fam)
    for ids in ([4, 0, 4, 8], np.array([4, 0, 4, 8], np.int32), np.array([4, 0, 4, 8])):
        got = table.take(ids)
        assert (got.rounds, got.bits_per_round) == (2, 70)
        np.testing.assert_array_equal(got.words, table.words[[4, 0, 4, 8]])
    for ids in ([], np.array([], np.int64), np.array([], np.int32)):
        assert table.take(ids).words.shape == (0, table.words.shape[1])
    for ids in ([9], np.array([2, 12], np.int32)):
        with pytest.raises(IndexError):
            table.take(ids)


# ---------------------------------------------------------------------------
# serialization


def test_table_round_trip_bytes_and_file(tmp_path):
    fam = new_hash_family(6, 37, 2, seed=31)
    embs = np.random.default_rng(9).standard_normal((11, 6))
    table = fingerprint_batch(embs, fam)
    back = table_from_bytes(table_to_bytes(table))
    np.testing.assert_array_equal(back.words, table.words)
    assert (back.rounds, back.bits_per_round) == (2, 37)

    path = tmp_path / "t.etaf"
    save_table(path, table)
    loaded = load_table(path)
    np.testing.assert_array_equal(loaded.words, table.words)


def test_table_header_is_stable():
    table = FingerprintTable(np.array([[1, 2]], dtype=np.uint64), 2, 33)
    blob = table_to_bytes(table)
    assert blob[:4] == b"ETAF"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 33
    assert int.from_bytes(blob[16:24], "little") == 1
    assert len(blob) == 24 + 16


@pytest.mark.parametrize(
    "mangle,offset_text",
    [
        (lambda b: b"XXXX" + b[4:], "offset 0"),
        (lambda b: b[:4] + (9).to_bytes(4, "little") + b[8:], "offset 4"),
        (lambda b: b[:8] + (0).to_bytes(4, "little") + b[12:], "offset 8"),
        (lambda b: b[:12] + (0).to_bytes(4, "little") + b[16:], "offset 12"),
        (lambda b: b[:-3], "offset 24"),
        (lambda b: b + b"\x00" * 4, "offset 24"),
        (lambda b: b[:10], "offset 0"),
    ],
)
def test_table_corruption_names_offset(mangle, offset_text):
    fam = new_hash_family(3, 16, 1, seed=2)
    blob = table_to_bytes(fingerprint_batch(np.ones((2, 3)), fam))
    with pytest.raises(FormatError) as err:
        table_from_bytes(mangle(blob))
    assert offset_text in str(err.value)


def test_version_1_table_is_refused():
    # a 2-round, 32-bit table as version 1 wrote it: one word per round
    blob = struct.pack("<4sIIIQ", b"ETAF", 1, 2, 32, 1) + struct.pack("<2Q", 0x4920, 0x202D)
    with pytest.raises(FormatError, match="offset 4.*precompute"):
        table_from_bytes(blob)


def test_serialized_words_are_little_endian():
    table = FingerprintTable(np.array([[0x0102030405060708]], dtype=np.uint64), 1, 64)
    assert table_to_bytes(table)[24:32] == bytes([8, 7, 6, 5, 4, 3, 2, 1])
