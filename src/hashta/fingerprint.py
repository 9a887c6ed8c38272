"""SimHash fingerprints packed into 64-bit words.

A hash family holds ``rounds`` independent projection matrices of shape
(dim, bits_per_round).  A vector is fingerprinted one round at a time:
bit j of round r is 1 when the projection onto column j of H_r is >= 0
and 0 when it is negative (the zero projection counts as 1, so the
all-zero vector hashes to all ones).  The rounds are packed back to back
into one little-endian bit string: bit j of round r is bit
i = r * bits_per_round + j, held in word i // 64 at position i % 64 of
``ceil(rounds * bits_per_round / 64)`` words, and the padding bits above
``rounds * bits_per_round`` are zero.  Hamming distance over all rounds
is then a XOR plus popcount over the shared words, and two fingerprints
are comparable iff they agree on (rounds, bits_per_round).

Projection entries are i.i.d. standard normals drawn from SplitMix64, a
small portable 64-bit generator: the round-r stream is
``mix64(s0 + (i + 1) * GAMMA)`` for i = 0, 1, ... with
``s0 = mix64(seed ^ mix64(r + 1))``, GAMMA = 0x9E3779B97F4A7C15, and
``mix64`` the usual xor-shift-multiply finalizer.  Uniforms are the top
53 bits of each word; normals come from Box-Muller.  No OS randomness is
involved, so a (seed, dim, bits_per_round, rounds) tuple pins the family
bit-for-bit on any platform.  Normals fill each H_r in row-major order.

On-disk table format ("ETAF"): magic ``ETAF``, then little-endian u32
version (currently 2), u32 rounds, u32 bits_per_round, u64 item count,
followed by ``count * ceil(rounds * bits_per_round / 64)`` little-endian
64-bit words, one row per item in item order, in the packing above.
Version 1 held each round in its own words; it is refused, and a table
is rebuilt from its checkpoint by ``hashta precompute``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

ETAF_MAGIC = b"ETAF"
ETAF_VERSION = 2
_HEADER = struct.Struct("<4sIIIQ")

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x):
    """SplitMix64 finalizer, elementwise on uint64 arrays or scalars.

    All arithmetic is mod 2**64 by design, hence the errstate guard."""
    with np.errstate(over="ignore"):
        x = np.uint64(x) if np.isscalar(x) else x.astype(np.uint64)
        x = x ^ (x >> np.uint64(30))
        x = x * _MIX1
        x = x ^ (x >> np.uint64(27))
        x = x * _MIX2
        x = x ^ (x >> np.uint64(31))
    return x


def _splitmix64(seed: np.uint64, n: int) -> np.ndarray:
    # closed form: x_i = mix64(seed + (i+1) * GAMMA)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = seed + idx * _GAMMA
    return _mix64(base)


def _round_normals(seed: int, round_index: int, n: int) -> np.ndarray:
    """n standard normals from the (seed, round_index) SplitMix64 stream."""
    s0 = _mix64(np.uint64(seed) ^ _mix64(np.uint64(round_index + 1)))
    pairs = (n + 1) // 2
    words = _splitmix64(s0, 2 * pairs)
    # top 53 bits -> uniform; +1 keeps u1 strictly positive for the log
    u = (words >> np.uint64(11)).astype(np.float64)
    u1 = (u[0::2] + 1.0) * 2.0 ** -53
    u2 = u[1::2] * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def words_per_fingerprint(bits_per_round: int, rounds: int) -> int:
    return (rounds * bits_per_round + 63) // 64


@dataclass(frozen=True)
class HashFamily:
    """Fixed set of random projections shared by query and key sides."""

    dim: int
    bits_per_round: int
    rounds: int
    seed: int
    projections: np.ndarray  # (rounds, dim, bits_per_round)

    @property
    def total_bits(self) -> int:
        return self.rounds * self.bits_per_round

    @property
    def words(self) -> int:
        return words_per_fingerprint(self.bits_per_round, self.rounds)


def new_hash_family(dim: int, bits_per_round: int, rounds: int, seed: int) -> HashFamily:
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if bits_per_round <= 0:
        raise ValueError(f"bits_per_round must be positive, got {bits_per_round}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    proj = np.empty((rounds, dim, bits_per_round))
    for r in range(rounds):
        proj[r] = _round_normals(seed, r, dim * bits_per_round).reshape(dim, bits_per_round)
    proj.setflags(write=False)
    return HashFamily(dim, bits_per_round, rounds, seed, proj)


@dataclass(frozen=True)
class FingerprintTable:
    """Fingerprints for a list of vectors, one row per vector."""

    words: np.ndarray  # (n, ceil(rounds * bits_per_round / 64)) uint64
    rounds: int
    bits_per_round: int

    def __len__(self) -> int:
        return self.words.shape[0]

    def take(self, ids) -> "FingerprintTable":
        # np.take copies rows faster than fancy indexing (4.4 against
        # 6.2 us for 2048 rows of a 100k-row table, warm)
        return FingerprintTable(np.take(self.words, ids, axis=0), self.rounds, self.bits_per_round)


def fingerprint_batch(embeddings: np.ndarray, family: HashFamily) -> FingerprintTable:
    """Hash each row of (n, dim) embeddings, all rounds back to back in packed words."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[1] != family.dim:
        raise ValueError(
            f"embeddings shape {emb.shape} incompatible with family dim {family.dim}"
        )
    bits = [emb @ family.projections[r] >= 0.0 for r in range(family.rounds)]
    bits.append(np.zeros((emb.shape[0], 64 * family.words - family.total_bits), dtype=bool))
    # byte b of the little-endian words holds bits 8b..8b+7, lowest first;
    # one concatenation, not comparisons written into column slices of one
    # bool array: 18 against 27 ms for the 100k-item table (2-vCPU x86_64 host)
    words = np.packbits(np.concatenate(bits, axis=1), axis=-1, bitorder="little").view("<u8")
    return FingerprintTable(words.astype(np.uint64, copy=False), family.rounds, family.bits_per_round)


def _check_comparable(a, b) -> None:
    if a.rounds != b.rounds or a.bits_per_round != b.bits_per_round:
        raise ValueError(
            f"fingerprint shapes differ: ({a.rounds} rounds, {a.bits_per_round} bits)"
            f" vs ({b.rounds} rounds, {b.bits_per_round} bits)"
        )
    wpf = words_per_fingerprint(a.bits_per_round, a.rounds)
    if a.words.shape[-1] != wpf or b.words.shape[-1] != wpf:
        raise ValueError(
            f"fingerprints hold {a.words.shape[-1]} and {b.words.shape[-1]} words,"
            f" {a.rounds} rounds of {a.bits_per_round} bits pack into {wpf}"
        )


def table_to_bytes(table: FingerprintTable) -> bytes:
    header = _HEADER.pack(
        ETAF_MAGIC, ETAF_VERSION, table.rounds, table.bits_per_round, len(table)
    )
    return header + table.words.astype("<u8").tobytes()


def table_from_bytes(data: bytes) -> FingerprintTable:
    if len(data) < _HEADER.size:
        raise FormatError(
            f"truncated header: {len(data)} bytes, need {_HEADER.size} (offset 0)"
        )
    magic, version, rounds, bits_per_round, count = _HEADER.unpack_from(data, 0)
    if magic != ETAF_MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {ETAF_MAGIC!r}")
    if version != ETAF_VERSION:
        raise FormatError(
            f"unsupported version {version} at offset 4, expected {ETAF_VERSION};"
            " re-run `hashta precompute` to rebuild the table"
        )
    if rounds == 0:
        raise FormatError("rounds is 0 at offset 8")
    if bits_per_round == 0:
        raise FormatError("bits_per_round is 0 at offset 12")
    wpf = words_per_fingerprint(bits_per_round, rounds)
    expected = _HEADER.size + 8 * wpf * count
    if len(data) != expected:
        raise FormatError(
            f"payload at offset {_HEADER.size}: got {len(data) - _HEADER.size} bytes,"
            f" expected {8 * wpf * count} ({count} items x {wpf} words)"
        )
    words = (
        np.frombuffer(data, dtype="<u8", offset=_HEADER.size)
        .astype(np.uint64)
        .reshape(count, wpf)
    )
    return FingerprintTable(words, rounds, bits_per_round)


def save_table(path, table: FingerprintTable) -> None:
    with open(path, "wb") as fh:
        fh.write(table_to_bytes(table))


def load_table(path) -> FingerprintTable:
    with open(path, "rb") as fh:
        return table_from_bytes(fh.read())
