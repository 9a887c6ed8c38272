"""A small CTR model whose long-sequence block is swappable.

Per sample the model embeds the user, a context bucket, the candidate
item (item embedding + category embedding), a short recent window, and a
long window, then feeds the five d-vectors through a leaky-ReLU MLP to a
single sigmoid.  Behavior embeddings are item + category (+ an optional
bucketed-age embedding, bucket = min(9, floor(log2(1 + age_days)))) with
id 0 reserved for padding: row 0 of every table is frozen at zero and
padded positions are masked out of attention and pooling.

The `variant` field picks the long-window representation:

  POOLING       masked mean over both windows (no attention anywhere)
  DIN_SHORT     attention over the short window only, long rep is zero
  DIN_LONG_AVG  attention short, masked mean long
  ETA           attention over the top-k rows by fingerprint Hamming
                distance (hashes recomputed from current embeddings on
                every forward, so training always sees fresh bits)
  FULL_TA       attention over the whole long window
  SIM_HARD      attention over a category-match top-k with recency backfill
  ETA_ANGULAR   attention over the exact top-k by cosine, the quantity the
                hash approximates

The hash family always hashes the item + category embedding, never the
age component, so a per-item fingerprint table precomputed from the same
weights reproduces the online bits exactly.  Retrieval is a fixed gather
as far as gradients are concerned; everything else is differentiated by
hand and the training loop is plain Adam (0.9 / 0.999 / 1e-8) with L2 on
MLP and projection weights only.  All randomness is derived from
config.seed, so runs are reproducible bit for bit.

There is one forward pass, the staged scorer below: prepare a user
state, embed the candidates, then retrieval_stage, attention_stage and
finish_stage.  The state holds its windows in one of two forms.  A
request (prepare_request) holds one window shared by every candidate,
so user-side work is done once per request.  A sample batch
(_sample_state) holds one (0, 0, 0)-padded window per sample, each
sample's target being its one candidate; training, evaluation, forward
(a batch of one) and long_selection run it, and training differentiates
it by hand (_backward_batch).  The stages choose by window form only
where the kernels differ: a shared window's full attention runs over its
distinct history rows (_attend_full_batch), everything else attends
through attention.masked_attention.

Precision: init_params weights are float64, and a sample batch's state
holds float64 vectors, so samples score and train in float64 whatever
the weights' dtype: forward is the float64 reference request scoring is
tested against.
load_checkpoint returns float32 weights, exactly what the file holds, and
request scoring computes in the weights' dtype, so a served checkpoint
runs in float32 from the embedding gathers to the last MLP layer.  The
sigmoid and the probability clip stay float64: in float32, 1 - 1e-15
rounds to 1.0 and a saturated score would leave (0, 1).  Both paths sum
item and category embeddings in the weights' dtype (_item_vectors), and
hashing projects in float64, so table and live bits share their sums.

Parameters live in one 1-d buffer, ModelParams.flat, holding every
trainable tensor back to back in the order _param_shapes gives (item,
category, user, context, optional age table, short-attention wq/wk/wv/wo,
long-attention wq/wk/wv/wo, then MLP weight/bias pairs); the named fields
are views into it.  Gradients and the Adam moments are buffers of the
same layout, so an Adam step is a few whole-buffer passes.

Checkpoint layout ("HTAC"): magic, little-endian u32 version (1), u32
length of a JSON echo of the config, the JSON bytes, then that buffer as
little-endian float32.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
import time
from dataclasses import asdict, dataclass
from itertools import starmap
from typing import Optional

import numpy as np

from .attention import MHTAParams, masked_attention, masked_attention_backward
from .data import Sample, SECONDS_PER_DAY
from .errors import FormatError, NumericError
from .fingerprint import FingerprintTable, HashFamily, fingerprint_batch, new_hash_family
from .retrieval import TopKResult, angular_top_k_batch, category_hard_search_batch, hamming_top_k_batch

VARIANTS = ("POOLING", "DIN_SHORT", "DIN_LONG_AVG", "ETA", "FULL_TA", "SIM_HARD", "ETA_ANGULAR")
SELECTING_VARIANTS = ("ETA", "SIM_HARD", "ETA_ANGULAR")

N_TIME_BUCKETS = 10
LEAKY_SLOPE = 0.01
_PROB_EPS = 1e-15

CHECKPOINT_MAGIC = b"HTAC"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sII")


@dataclass
class ModelConfig:
    d: int = 16
    l_st: int = 16
    l_lt: int = 256
    k: int = 16
    n_heads: int = 2
    m: int = 32  # hash bits per round
    n_rounds: int = 2
    variant: str = "ETA"
    use_time_buckets: bool = False
    mlp_widths: tuple = (64, 32)
    seed: int = 7
    learning_rate: float = 2e-3
    l2: float = 1e-6
    batch_size: int = 256
    epochs: int = 5
    n_items: int = 0
    n_categories: int = 0
    n_users: int = 0
    n_contexts: int = 24

    def __post_init__(self):
        self.mlp_widths = tuple(int(w) for w in self.mlp_widths)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("d", "l_st", "l_lt", "k", "n_heads", "m", "n_rounds", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if any(w < 1 for w in self.mlp_widths):
            raise ValueError(f"mlp widths must be positive, got {self.mlp_widths}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class ModelParams:
    """Every trainable tensor as a named view of one 1-d buffer, `flat`,
    laid out as _param_shapes gives; `family` is the fixed hash family.

    Write a field in place (`params.item_emb[3] += g`, `w[...] = x`) and
    never rebind one: a rebound field no longer aliases `flat`, which
    training, cloning and checkpoints read."""

    flat: np.ndarray
    item_emb: np.ndarray
    cat_emb: np.ndarray
    user_emb: np.ndarray
    ctx_emb: np.ndarray
    time_emb: Optional[np.ndarray]
    short_attn: MHTAParams
    long_attn: MHTAParams
    mlp_w: list
    mlp_b: list
    family: HashFamily


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _attn_alpha(config: ModelConfig) -> float:
    # a Python float, not np.float64: under NumPy 2's promotion rules an
    # np.float64 scalar widens every float32 product it touches
    return 1.0 / math.sqrt(config.d // config.n_heads)


def _hash_family(config: ModelConfig) -> HashFamily:
    return new_hash_family(config.d, config.m, config.n_rounds, config.seed)


def _check_vocab(config: ModelConfig) -> None:
    if config.n_items < 1 or config.n_categories < 1 or config.n_users < 1:
        raise ValueError("config needs positive n_items, n_categories and n_users")
    if (config.n_items + 1) * (config.n_categories + 1) * N_TIME_BUCKETS >= 2**63:
        raise ValueError("n_items x n_categories too large for an int64 behaviour key")


def _param_shapes(config: ModelConfig) -> dict:
    """Shape of every trainable tensor, in buffer (and checkpoint) order."""
    d = config.d
    shapes = {
        "item_emb": (config.n_items + 1, d),
        "cat_emb": (config.n_categories + 1, d),
        "user_emb": (config.n_users + 1, d),
        "ctx_emb": (config.n_contexts + 1, d),
    }
    if config.use_time_buckets:
        shapes["time_emb"] = (N_TIME_BUCKETS, d)
    proj = (config.n_heads, d, d // config.n_heads)
    for block in ("short", "long"):
        shapes.update({f"{block}.wq": proj, f"{block}.wk": proj, f"{block}.wv": proj,
                       f"{block}.wo": (d, d)})
    dims = (5 * d,) + config.mlp_widths + (1,)
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes.update({f"mlp.w{i}": (fan_in, fan_out), f"mlp.b{i}": (fan_out,)})
    return shapes


class _Views(dict):
    """Named views of every tensor in a 1-d buffer laid out as
    _param_shapes(config), in that order; the buffer is `flat`."""

    def __init__(self, flat: np.ndarray, config: ModelConfig):
        super().__init__()
        self.flat = flat
        off = 0
        for name, shape in _param_shapes(config).items():
            size = math.prod(shape)
            self[name] = flat[off : off + size].reshape(shape)
            off += size


def _params_from(flat: np.ndarray, config: ModelConfig, family: HashFamily) -> ModelParams:
    t = _Views(flat, config)
    short_attn, long_attn = (
        MHTAParams(t[f"{k}.wq"], t[f"{k}.wk"], t[f"{k}.wv"], t[f"{k}.wo"], _attn_alpha(config))
        for k in ("short", "long")
    )
    n_layers = len(config.mlp_widths) + 1
    return ModelParams(
        flat, t["item_emb"], t["cat_emb"], t["user_emb"], t["ctx_emb"], t.get("time_emb"),
        short_attn, long_attn,
        [t[f"mlp.w{i}"] for i in range(n_layers)], [t[f"mlp.b{i}"] for i in range(n_layers)],
        family,
    )


_PADDED_TABLES = ("item_emb", "cat_emb", "user_emb", "ctx_emb")


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded float64 weights, the precision training runs at."""
    _check_vocab(config)
    flat = np.zeros(sum(math.prod(shape) for shape in _param_shapes(config).values()))
    views = _Views(flat, config)
    # one generator each for the tables, short attention, long attention
    # and MLP weights, drawn in buffer order; MLP biases start at zero
    rngs = [np.random.default_rng(_derived_seed(config.seed, tag)) for tag in range(4)]
    tags = {"short": 1, "long": 2, "mlp": 3}
    for name, view in views.items():
        if name.startswith("mlp.b"):
            continue
        group = name.split(".")[0]
        bound = 1.0 / np.sqrt(view.shape[0] if group == "mlp" else config.d)
        view[...] = rngs[tags.get(group, 0)].uniform(-bound, bound, view.shape)
    for name in _PADDED_TABLES:
        views[name][0] = 0.0  # padding row stays zero forever
    return _params_from(flat, config, _hash_family(config))


def flatten(params: ModelParams, config: ModelConfig) -> dict:
    """Live views of every trainable tensor, in checkpoint order."""
    return _Views(params.flat, config)


_L2_PREFIXES = ("short.", "long.", "mlp.w")


def clone_params(params: ModelParams, config: ModelConfig) -> ModelParams:
    return _params_from(params.flat.copy(), config, params.family)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; 1 / (1 + e) for z >= 0, e / (1 + e) below
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _leaky(x):
    # equals where(x > 0, x, slope * x) bit for bit while 0 < slope < 1
    return np.maximum(x, LEAKY_SLOPE * x)


def _dleaky(x):
    return np.where(x > 0, 1.0, LEAKY_SLOPE)


def _check_int(name, value) -> int:
    # operator.index takes Python and NumPy integers and refuses floats,
    # which int64 arrays would otherwise truncate
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name}={value} does not fit in int64")
    return value


def _check_id(name, value, hi):
    if not 1 <= _check_int(name, value) <= hi:
        raise ValueError(f"{name}={value} outside [1, {hi}]")


def _check_user_state(record, config: ModelConfig) -> None:
    """Checks the user-side fields a Sample and a Request share."""
    if len(record.short_seq) > config.l_st:
        raise ValueError(f"short_seq length {len(record.short_seq)} exceeds l_st={config.l_st}")
    if len(record.long_seq) > config.l_lt:
        raise ValueError(f"long_seq length {len(record.long_seq)} exceeds l_lt={config.l_lt}")
    _check_id("user_id", record.user_id, config.n_users)
    _check_id("context_bucket", record.context_bucket, config.n_contexts)
    _check_int("timestamp", record.timestamp)


def _rows(seq, width: int, name: str) -> np.ndarray:
    """A window's (item, category, ts) rows or a candidate list's pairs as
    (n, width) int64: an integer array as it is, any other sequence packed
    row by row by struct, which checks each row's width and reads values
    through __index__, so a wrong-width row, a float (which int64 arrays
    would truncate) and a value past int64 are ValueErrors naming the field."""
    if isinstance(seq, np.ndarray) and seq.dtype != object:
        integer = seq.dtype.kind in "iu" and np.can_cast(seq.dtype, np.int64)
        if seq.ndim != 2 or seq.shape[1] != width or not integer:
            raise ValueError(
                f"{name} array must be (n, {width}) integers, got {seq.dtype} {seq.shape}")
        return seq.astype(np.int64, copy=False)
    try:
        packed = b"".join(starmap(struct.Struct(f"{width}q").pack, seq))
    except (struct.error, TypeError):
        raise ValueError(_misread(seq, width, name)) from None
    return np.frombuffer(packed, np.int64).reshape(-1, width)


def _misread(seq, width: int, name: str) -> str:
    """Why _rows could not pack seq."""
    holds = f"{name} {'hold' if name == 'candidates' else 'holds'}"
    for i, row in enumerate(seq):
        if not hasattr(row, "__len__") or len(row) != width:
            return f"{name} row {i} is not {width} values"
        for v in row:
            try:
                operator.index(v)
            except TypeError:
                return f"{holds} a value that is not an integer"
    return f"{holds} a value that does not fit in int64"


def _item_vectors(items, cats, params: ModelParams) -> np.ndarray:
    """Item + category embeddings in the weights' dtype: every behaviour
    row, candidate and target, and what live key bits and tables hash."""
    # np.take gathers rows faster than fancy indexing; summed in place
    out = np.take(params.item_emb, items, axis=0)
    out += np.take(params.cat_emb, cats, axis=0)
    return out


def _time_buckets(ts: np.ndarray, now) -> np.ndarray:
    age_days = np.maximum(0.0, (now - ts) / SECONDS_PER_DAY)
    return np.minimum(np.floor(np.log2(1.0 + age_days)), 9).astype(np.int64)


class _SeqData:
    __slots__ = ("items", "cats", "buckets", "mask", "base", "emb")


def _embed_sequence(seq, now, params: ModelParams, config: ModelConfig, name: str) -> _SeqData:
    return _embed_ids(*_rows(seq, 3, name).T, now, params, config, name)


def _embed_ids(items, cats, ts, now, params: ModelParams, config: ModelConfig,
               name: str) -> _SeqData:
    """Embeddings of window id arrays of any shape (one window, or a padded
    batch of them with now broadcast against ts), in the weights' dtype."""
    if items.size and (items.min() < 0 or items.max() > config.n_items):
        raise ValueError(f"{name} item id outside [0, {config.n_items}]")
    if cats.size and (cats.min() < 0 or cats.max() > config.n_categories):
        raise ValueError(f"{name} category id outside [0, {config.n_categories}]")
    out = _SeqData()
    out.items, out.cats = items, cats
    out.mask = items != 0
    out.base = _item_vectors(items, cats, params)  # the ids are checked above
    if config.use_time_buckets:
        out.buckets = _time_buckets(ts, now)
        out.emb = out.base + params.time_emb[out.buckets]
        out.emb[~out.mask] = 0.0
    else:
        out.buckets = None
        out.emb = out.base
    return out


def _masked_mean(emb: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean of the valid rows, in emb's dtype: (d,) for one window (W, d),
    (B, d) for a padded batch (B, W, d); zero where none is valid."""
    count = np.maximum(mask.sum(axis=-1), 1).astype(emb.dtype)
    return (emb * mask[..., None]).sum(axis=-2) / count[..., None]


# ---------------------------------------------------------------------------
# sample batches: training, evaluation, forward and long_selection


def _padded(samples, name: str) -> np.ndarray:
    """(3, B, W) int64 item, category and ts columns of every sample's
    window `name`, (0, 0, 0)-padded to the longest."""
    rows = [_rows(getattr(s, name), 3, name) for s in samples]
    out = np.zeros((len(rows), max((r.shape[0] for r in rows), default=0), 3), dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : r.shape[0]] = r
    return out.transpose(2, 0, 1)


def _sample_state(samples, params: ModelParams, config: ModelConfig,
                  item_fps: Optional[FingerprintTable] = None):
    """(state, ids, targets) of a checked batch: a RequestState with one
    (0, 0, 0)-padded window per sample, the (B, 5) int64 rows of (user,
    context, target item, target category, timestamp), and the targets'
    embeddings, the candidates the stages score.

    Embedding sums are made in the weights' dtype, as in request scoring,
    so hashing sees the values a fingerprint table is built from; every
    vector the stages compute with is then float64, whatever the weights'
    dtype."""
    for s in samples:
        _check_user_state(s, config)
        _check_id("target_item", s.target_item, config.n_items)
        _check_id("target_category", s.target_category, config.n_categories)
    ids = np.array([(s.user_id, s.context_bucket, s.target_item, s.target_category, s.timestamp)
                    for s in samples], dtype=np.int64).reshape(-1, 5)
    user_ids, ctx_ids, t_items, t_cats, now = ids.T
    state = RequestState()
    state.user_vec = np.take(params.user_emb, user_ids, axis=0).astype(np.float64, copy=False)
    state.ctx_vec = np.take(params.ctx_emb, ctx_ids, axis=0).astype(np.float64, copy=False)
    state.st = _embed_ids(*_padded(samples, "short_seq"), now[:, None], params, config, "short_seq")
    state.lt = _embed_ids(*_padded(samples, "long_seq"), now[:, None], params, config, "long_seq")
    for window in (state.st, state.lt):
        window.emb = window.emb.astype(np.float64, copy=False)
    state.lt_kv = None
    state.item_fps = item_fps
    state.long_fps = _long_key_bits(state.lt, params, config, item_fps)
    target = _item_vectors(t_items, t_cats, params)
    return state, ids, target.astype(np.float64, copy=False)


def _forward_batch(samples, params: ModelParams, config: ModelConfig,
                   item_fps: Optional[FingerprintTable] = None,
                   frozen_selections: Optional[np.ndarray] = None):
    """(state, ids, probabilities) of a batch of samples: each target
    scored against its own window through the request stages, in float64.
    The state keeps what _backward_batch reads."""
    state, ids, target = _sample_state(samples, params, config, item_fps)
    if frozen_selections is None:
        sel = retrieval_stage(state, ids[:, 2], target, ids[:, 3], params, config)
    else:
        sel = np.asarray(frozen_selections, dtype=np.int64)
    long_rep = attention_stage(state, target, sel, params, config)
    return state, ids, finish_stage(state, target, long_rep, params, config)


def _scatter_add(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """out[ids[i]] += rows[i], repeated ids summed in order: np.add.at on
    the flat view, about three times faster than on (n, d) rows."""
    d = out.shape[1]
    np.add.at(out.reshape(-1), (ids[:, None] * d + np.arange(d)).ravel(), rows.ravel())


def _backward_batch(state: RequestState, ids: np.ndarray, params: ModelParams,
                    config: ModelConfig, g_z: np.ndarray) -> _Views:
    """float64 gradients of sum(g_z * logits) of a sample batch's forward
    pass, as views of one buffer laid out as the weights."""
    g = _Views(np.zeros(params.flat.size), config)
    g_pre = g_z[:, None]  # the output layer's pre-activation
    for i in range(len(params.mlp_w) - 1, 0, -1):
        g[f"mlp.w{i}"] += state.acts[i - 1].T @ g_pre
        g[f"mlp.b{i}"] += g_pre.sum(axis=0)
        g_pre = (g_pre @ params.mlp_w[i].T) * _dleaky(state.pres[i - 1])
    g["mlp.w0"] += np.concatenate(state.inputs, axis=1).T @ g_pre
    g["mlp.b0"] += g_pre.sum(axis=0)
    g_user, g_ctx, g_target, g_short, g_long = np.split(g_pre @ params.mlp_w[0].T, 5, axis=1)
    user_ids, ctx_ids, t_items, t_cats = ids[:, :4].T
    _scatter_add(g["user_emb"], user_ids, g_user)
    _scatter_add(g["ctx_emb"], ctx_ids, g_ctx)

    # (window, sample index, position, gradient) of every window row read
    read = []
    for window, cache, attn, block, g_rep, pos in (
        (state.st, state.short_cache, params.short_attn, "short", g_short, None),
        (state.lt, state.long_cache, params.long_attn, "long", g_long, state.long_pos),
    ):
        if block == "long" and config.variant == "DIN_SHORT":
            continue
        valid = window.mask
        if cache is None:  # masked mean
            g_each = g_rep / np.maximum(valid.sum(axis=1), 1)[:, None]
            g_rows = np.broadcast_to(g_each[:, None, :], valid.shape + g_each.shape[1:])
        else:
            weight_grads, g_query, g_rows = masked_attention_backward(cache, attn, g_rep)
            for key, val in weight_grads.items():
                g[f"{block}.{key}"] += val
            g_target += g_query
            if pos is not None:  # attention read the selected rows
                valid = pos >= 0
        which, cols = np.nonzero(valid)
        read.append((window, which, cols if pos is None else pos[which, cols], g_rows[which, cols]))

    def read_ids(column):
        return np.concatenate([getattr(w, column)[which, at] for w, which, at, _ in read])

    read_grads = np.concatenate([g_rows for *_, g_rows in read])
    with_targets = np.concatenate([read_grads, g_target])
    _scatter_add(g["item_emb"], np.concatenate([read_ids("items"), t_items]), with_targets)
    _scatter_add(g["cat_emb"], np.concatenate([read_ids("cats"), t_cats]), with_targets)
    if config.use_time_buckets:  # targets carry no age
        _scatter_add(g["time_emb"], read_ids("buckets"), read_grads)
    return g


def forward(sample: Sample, params: ModelParams, config: ModelConfig,
            item_fps: Optional[FingerprintTable] = None) -> float:
    """Click probability in (0, 1) for one sample: a batch of one."""
    return float(_forward_batch([sample], params, config, item_fps)[2][0])


def long_selection(sample: Sample, params: ModelParams, config: ModelConfig,
                   item_fps: Optional[FingerprintTable] = None) -> TopKResult:
    """The long-window retrieval a forward pass would use right now."""
    if config.variant not in SELECTING_VARIANTS:
        raise ValueError(f"variant {config.variant} has no retrieval stage")
    state, ids, target = _sample_state([sample], params, config, item_fps)
    idx, scores = _retrieve(state, ids[:, 2], target, ids[:, 3], params, config)
    return TopKResult(idx[0], scores[0], int(np.count_nonzero(state.lt.mask)))


def loss_and_gradients(
    batch, params: ModelParams, config: ModelConfig,
    frozen_selections: Optional[np.ndarray] = None,
):
    """Mean logit-space BCE + L2, and its analytic float64 gradients: named
    views, as flatten gives the weights, of one buffer, `grads.flat`.

    frozen_selections optionally pins the retrieval, in the selectors' own
    form: a (B, k) position array aligned with the batch, -1 past a
    sample's selection.  Used to compare against finite differences, where
    the selection must not move under perturbation."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    state, ids, _ = _forward_batch(batch, params, config, frozen_selections=frozen_selections)
    z = state.z
    y = np.array([s.label for s in batch], dtype=np.float64)
    inv = 1.0 / len(batch)
    loss = float((np.logaddexp(0.0, z) - y * z).sum()) * inv
    g = _backward_batch(state, ids, params, config, (_sigmoid(z) - y) * inv)
    for name, arr in flatten(params, config).items():
        if name.startswith(_L2_PREFIXES):
            loss += config.l2 * float((arr * arr).sum())
            g[name] += 2.0 * config.l2 * arr
    for name in _PADDED_TABLES:
        g[name][0] = 0.0  # padding row is frozen
    if not np.isfinite(loss):
        raise NumericError("loss is non-finite")
    return loss, g


class AdamState:
    """Adam's step count and moments for a weight buffer, in its dtype, and
    the temporaries adam_step reuses: the float64 gradient term and the
    update's numerator and denominator."""

    def __init__(self, flat: np.ndarray):
        self.t = 0
        self.m, self.v, self.num, self.den = (np.zeros_like(flat) for _ in range(4))
        self.g_term = np.zeros(flat.shape)


def adam_step(flat: np.ndarray, grads: np.ndarray, state: AdamState, lr: float,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update (Kingma & Ba) of the weight buffer, in place.

    Per element this is m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    w -= lr (m / bc1) / (sqrt(v / bc2) + eps), with the (1 - b) g terms in
    the gradient's float64 and the rest in the weights' dtype."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    m, v, g_term, num, den = state.m, state.v, state.g_term, state.num, state.den
    m *= beta1
    m += np.multiply(grads, 1.0 - beta1, out=g_term)
    v *= beta2
    np.multiply(grads, 1.0 - beta2, out=g_term)
    v += np.multiply(g_term, grads, out=g_term)
    np.sqrt(np.divide(v, bc2, out=den), out=den)
    den += eps
    np.divide(m, bc1, out=num)
    num *= lr
    num /= den
    flat -= num


@dataclass
class TrainResult:
    params: ModelParams  # weights at the best validation AUC
    metrics: list  # one dict per epoch
    best_epoch: int = -1


def train(train_samples, val_samples, config: ModelConfig,
          params: Optional[ModelParams] = None, log=None) -> TrainResult:
    """Single-threaded deterministic training; keeps the best-val-AUC weights."""
    if params is None:
        params = init_params(config)
    if config.epochs == 0:
        return TrainResult(params, [], -1)
    if len(train_samples) == 0:
        raise ValueError("no training samples")
    adam = AdamState(params.flat)
    rng = np.random.default_rng(_derived_seed(config.seed, 4))
    # epoch 0 replaces these when there is validation data (an AUC is in [0, 1])
    best, best_auc, best_epoch = params, -1.0, -1
    metrics = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_samples))
        losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = [train_samples[i] for i in idx]
            try:
                loss, grads = loss_and_gradients(batch, params, config)
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at epoch {epoch} batch {start // config.batch_size}: {exc}"
                ) from exc
            adam_step(params.flat, grads.flat, adam, config.learning_rate)
            losses.append(loss)
        val_auc = float("nan")
        if len(val_samples) > 0:
            val_auc = evaluate(val_samples, params, config).auc
            if val_auc > best_auc:
                best_auc = val_auc
                best = clone_params(params, config)
                best_epoch = epoch
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_auc": val_auc,
            "seconds": time.perf_counter() - t0,
        }
        metrics.append(row)
        if log is not None:
            log(row)
    return TrainResult(best, metrics, best_epoch)


def auc(scores, labels) -> float:
    """Rank-based AUC with tied scores counted half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal 1-d shapes")
    if s.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(s).all():
        raise ValueError("scores contain non-finite values")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes required to compute AUC")
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # average ranks within tie groups (1-based)
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], s.size]
    avg = (starts + ends + 1) / 2.0  # mean of ranks start+1 .. end
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(avg, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class EvalResult:
    auc: float
    scores: np.ndarray
    labels: np.ndarray


def evaluate(samples, params: ModelParams, config: ModelConfig,
             item_fps: Optional[FingerprintTable] = None) -> EvalResult:
    if len(samples) == 0:
        raise ValueError("no samples to evaluate")
    step = config.batch_size
    scores = np.concatenate([_forward_batch(samples[i : i + step], params, config, item_fps)[2]
                             for i in range(0, len(samples), step)])
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return EvalResult(auc(scores, labels), scores, labels)


def _item_categories(item_cats, config: ModelConfig) -> np.ndarray:
    cats = np.asarray(item_cats, dtype=np.int64)
    if cats.shape != (config.n_items + 1,):
        raise ValueError(f"item_cats shape {cats.shape}, expected ({config.n_items + 1},)")
    if cats.min() < 0 or cats.max() > config.n_categories:
        raise ValueError(f"item_cats holds a category id outside [0, {config.n_categories}]")
    return cats


# Items per row block of fingerprint_items: at d=32 and 32 bits per round a
# block's float64 sums and one round's projections are 1 MiB each, about the
# 2 MiB per-core L2 of the x86_64 benchmark host, where one whole-table pass
# streams each (n_items, d) temporary through memory.
_TABLE_BLOCK_ROWS = 1 << 12


def fingerprint_items(params: ModelParams, config: ModelConfig, item_cats: np.ndarray) -> FingerprintTable:
    """Per-item fingerprint table over ids 0..n_items.

    item_cats[i] is the category of item i (0 for the padding row).  Rows
    are hashed in blocks of _TABLE_BLOCK_ROWS items, each block's item +
    category sums made and hashed while they are in cache; every row's
    words equal one fingerprint_batch call over all the sums."""
    cats = _item_categories(item_cats, config)
    family = params.family
    words = np.empty((cats.size, family.words), dtype=np.uint64)
    for start in range(0, cats.size, _TABLE_BLOCK_ROWS):
        rows = np.arange(start, min(start + _TABLE_BLOCK_ROWS, cats.size))
        vecs = _item_vectors(rows, cats[rows], params)
        if start == 0:
            vecs[0] = 0.0
        words[rows] = fingerprint_batch(vecs, family).words
    return FingerprintTable(words, family.rounds, family.bits_per_round)


def verify_item_fingerprints(table: FingerprintTable, params: ModelParams,
                             config: ModelConfig, item_cats: np.ndarray) -> None:
    """Refuse stale tables: header shape plus a bit-exact spot check."""
    if table.rounds != config.n_rounds or table.bits_per_round != config.m:
        raise FormatError(
            f"fingerprint table is {table.rounds} rounds x {table.bits_per_round} bits,"
            f" config wants {config.n_rounds} x {config.m}"
        )
    if len(table) != config.n_items + 1:
        raise FormatError(
            f"fingerprint table has {len(table)} rows, config wants {config.n_items + 1}"
        )
    cats = _item_categories(item_cats, config)
    probe = np.unique(np.linspace(1, config.n_items, num=min(64, config.n_items), dtype=np.int64))
    fresh = fingerprint_batch(_item_vectors(probe, cats[probe], params), params.family)
    if not np.array_equal(fresh.words, table.words[probe]):
        raise FormatError("fingerprint table does not match current weights (stale seed or embeddings)")


# ---------------------------------------------------------------------------
# request scoring (one user state, many candidates)


@dataclass(frozen=True, eq=False)
class Request:
    """One user state to score candidates against.

    Windows take the same forms as a Sample's, and the candidates scored
    against a request likewise: an (n, 2) integer array of (item,
    category) pairs, read as it is, or any other sequence of pairs, read
    row by row and refused alike.  Requests compare and hash by identity."""

    user_id: int
    context_bucket: int
    timestamp: int
    short_seq: np.ndarray  # n <= L_st, oldest first
    long_seq: np.ndarray  # n <= L_lt


class RequestState:
    """A user state in one of two window forms: one window shared by every
    candidate (prepare_request: (W,) ids, (W, d) rows, (d,) user and
    context vectors), or one per target (_sample_state: (B, W), (B, W, d),
    (B, d)).  The stages leave on it what _backward_batch reads: attention
    caches, long_pos (the selected positions attended, in window order),
    the MLP's input blocks, pre-activations and activations, and logits z."""

    __slots__ = ("user_vec", "ctx_vec", "st", "lt", "lt_kv", "long_fps", "item_fps",
                 "long_pos", "long_cache", "short_cache", "inputs", "pres", "acts", "z")


def _long_key_bits(lt: _SeqData, params: ModelParams, config: ModelConfig,
                   item_fps: Optional[FingerprintTable]) -> Optional[FingerprintTable]:
    """ETA's key bits for a long window of either form, None for the other
    variants: the table's rows by item id, or live, each distinct (item,
    category) row hashed once."""
    if config.variant != "ETA":
        return None
    if item_fps is not None:
        return item_fps.take(lt.items)
    width = config.n_categories + 1  # below 2**63 (_check_vocab)
    distinct, inverse = np.unique((lt.items * width + lt.cats).ravel(), return_inverse=True)
    rows = _item_vectors(distinct // width, distinct % width, params)
    fam = params.family
    # np.take, not words[inverse]: 44 against 159 us for 33k (n, 1) rows
    # (m=32, two rounds) on a 2-vCPU x86_64 host
    words = np.take(fingerprint_batch(rows, fam).words, inverse, axis=0)
    return FingerprintTable(words.reshape(lt.items.shape + words.shape[1:]), fam.rounds,
                            fam.bits_per_round)


def prepare_request(request: Request, params: ModelParams, config: ModelConfig,
                    item_fps: Optional[FingerprintTable] = None) -> RequestState:
    """Per-request work shared by all candidates: embeddings, K/V, key bits.

    The long window is projected to K/V only for FULL_TA, once per distinct
    valid (item, category, age bucket), since repeats share one embedding and
    so one logit and one value: lt_kv is (K, count-weighted V, counts),
    (n_heads, U, d_head) twice and (U,), or None for a window with no valid
    position.  The other attending variants fold the projections into the
    weights instead (see attention.masked_attention)."""
    _check_user_state(request, config)
    state = RequestState()
    state.user_vec = params.user_emb[request.user_id]
    state.ctx_vec = params.ctx_emb[request.context_bucket]
    state.st = _embed_sequence(request.short_seq, request.timestamp, params, config, "short_seq")
    state.lt = _embed_sequence(request.long_seq, request.timestamp, params, config, "long_seq")
    state.lt_kv = None
    if config.variant == "FULL_TA" and state.lt.mask.any():
        lt, attn = state.lt, params.long_attn
        valid = np.flatnonzero(lt.mask)
        # below (n_items + 1)(n_categories + 1) N_TIME_BUCKETS < 2**63 (_check_vocab):
        # reaching 2**63 takes tables of over 2**30.8 rows together, d x 7.7 GB in float32
        key = lt.items[valid] * (config.n_categories + 1) + lt.cats[valid]
        if config.use_time_buckets:
            key = key * N_TIME_BUCKETS + lt.buckets[valid]
        order = key.argsort()  # np.unique's return_index sorts stably: 4-5x slower at L=2048
        first = np.flatnonzero(np.concatenate(([True], np.diff(key[order]) != 0)))
        rows = np.take(lt.emb, valid[order[first]], axis=0)  # a group's positions share one row
        counts = np.diff(first, append=key.shape[0]).astype(rows.dtype)
        ks, vs = rows @ attn.wk, rows @ attn.wv
        vs *= counts[:, None]
        state.lt_kv = ks, vs, counts
    state.item_fps = item_fps
    state.long_fps = _long_key_bits(state.lt, params, config, item_fps)
    return state


def candidate_embeddings(candidates, params: ModelParams, config: ModelConfig):
    """(items, categories, base embeddings) of (item, category) pairs."""
    items, cats = _rows(candidates, 2, "candidates").T
    if items.size and (items.min() < 1 or items.max() > config.n_items):
        raise ValueError(f"candidate item id outside [1, {config.n_items}]")
    if items.size and (cats.min() < 1 or cats.max() > config.n_categories):
        raise ValueError(f"candidate category id outside [1, {config.n_categories}]")
    return items, cats, _item_vectors(items, cats, params)


def _retrieve(state: RequestState, cand_items: np.ndarray, cand_emb: np.ndarray,
              cand_cats: np.ndarray, params: ModelParams, config: ModelConfig):
    """(positions, scores) of a selecting variant's long-window top-k,
    each (n_candidates, k_eff), best first and -1 past a row's valid count.

    With a fingerprint table on the state, candidate query bits are read
    from it by item id: the table binds each item to its catalog category,
    so the bits equal hashing the embedding whenever a candidate carries
    that category."""
    lt, variant, k = state.lt, config.variant, config.k
    if variant == "ETA":
        if state.item_fps is not None:
            queries = state.item_fps.take(cand_items)
        else:
            queries = fingerprint_batch(cand_emb, params.family)
        return hamming_top_k_batch(queries, state.long_fps, lt.mask, k)
    if variant == "SIM_HARD":
        idx, match = category_hard_search_batch(cand_cats, lt.cats, lt.mask, k)
        return idx, match.astype(np.float64)
    return angular_top_k_batch(cand_emb, lt.base, lt.mask, k)


def retrieval_stage(state: RequestState, cand_items: np.ndarray, cand_emb: np.ndarray,
                    cand_cats: np.ndarray, params: ModelParams,
                    config: ModelConfig) -> Optional[np.ndarray]:
    """(n_candidates, k_eff) selected positions, best first, or None when
    the variant attends to everything.  A row holds the positions
    long_selection picks for the same target."""
    if config.variant not in SELECTING_VARIANTS:
        return None
    return _retrieve(state, cand_items, cand_emb, cand_cats, params, config)[0]


def _attend_full_batch(kv, cand_q: np.ndarray, attn: MHTAParams):
    """Full attention over the U distinct rows of lt_kv: row u stands
    for c_u positions sharing its logit and value, so sum_p e^l_p v_p /
    sum_p e^l_p = sum_u e^l_u (c_u v_u) / sum_u e^l_u c_u.  Each head's (n, U)
    logits are written into one block, allocated per call and shared by the
    heads, and exponentiated in place; the (n, d_head) weighted sums are
    normalised, not the weights."""
    n, d_h = cand_q.shape[0], attn.d_head
    if kv is None:
        return np.zeros((n, attn.wo.shape[1]), cand_q.dtype)
    ks, vs, counts = kv
    qs = np.matmul(cand_q, attn.alpha * attn.wq)  # (n_heads, n, d_head), alpha folded in
    logits = np.empty((n, counts.shape[0]), ks.dtype)
    heads = np.empty((n, attn.n_heads * d_h), ks.dtype)
    for h in range(attn.n_heads):
        np.matmul(qs[h], ks[h].T, out=logits)
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        np.divide(logits @ vs[h], (logits @ counts)[:, None], out=heads[:, h * d_h : (h + 1) * d_h])
    return heads @ attn.wo


def attention_stage(state: RequestState, cand_emb: np.ndarray, sel: Optional[np.ndarray],
                    params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Long-window representation for every candidate, (n_candidates, d).

    Selected rows are attended in window order, -1 padding first, so a
    selection covering the window attends as full attention does and both
    window forms sum in one order.  A shared window's full attention runs
    over its distinct rows (_attend_full_batch), and its selected rows are
    gathered with np.take; per-target windows attend through
    masked_attention and gather with take_along_axis."""
    n, d = cand_emb.shape
    variant, lt = config.variant, state.lt
    shared = lt.emb.ndim == 2
    state.long_pos = state.long_cache = None
    if variant == "DIN_SHORT":
        return np.zeros((n, d), cand_emb.dtype)
    if variant in ("POOLING", "DIN_LONG_AVG"):
        return np.broadcast_to(_masked_mean(lt.emb, lt.mask), (n, d)).copy()
    if variant == "FULL_TA":
        if shared:
            return _attend_full_batch(state.lt_kv, cand_emb, params.long_attn)
        rep, state.long_cache = masked_attention(cand_emb, lt.emb, lt.mask, params.long_attn)
        return rep
    sel = np.sort(sel, axis=1)
    if shared:
        rows = np.take(lt.emb, sel, axis=0)  # -1 reads the last row, masked out
    else:
        rows = np.take_along_axis(lt.emb, sel[..., None], axis=1)  # -1 reads a masked row
    state.long_pos = sel
    rep, state.long_cache = masked_attention(cand_emb, rows, sel >= 0, params.long_attn)
    return rep


def finish_stage(state: RequestState, cand_emb: np.ndarray, long_rep: np.ndarray,
                 params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Short-window representation, MLP, sigmoid; returns probabilities.

    The first MLP layer is applied block by block, so a shared window's
    user and context rows (and pooled short window) are multiplied once
    per request rather than once per candidate.  A non-finite logit is a
    NumericError naming the first stage that produced a non-finite value."""
    d = cand_emb.shape[1]
    st = state.st
    if config.variant == "POOLING":
        short_rep, state.short_cache = _masked_mean(st.emb, st.mask), None
    else:
        short_rep, state.short_cache = masked_attention(cand_emb, st.emb, st.mask,
                                                        params.short_attn)
    state.inputs = (state.user_vec, state.ctx_vec, cand_emb, short_rep, long_rep)
    w0 = params.mlp_w[0]  # input blocks: user, context, candidate, short, long
    shared = state.user_vec @ w0[:d] + state.ctx_vec @ w0[d : 2 * d] + params.mlp_b[0]
    a = cand_emb @ w0[2 * d : 3 * d] + short_rep @ w0[3 * d : 4 * d] + long_rep @ w0[4 * d :]
    a += shared
    state.pres, state.acts = [], []
    for w, b in zip(params.mlp_w[1:], params.mlp_b[1:]):
        state.pres.append(a)
        a = _leaky(a)
        state.acts.append(a)
        a = a @ w + b
    state.z = a[:, 0]
    if not np.isfinite(state.z).all():
        stages = [("embeddings", (state.user_vec, state.ctx_vec, cand_emb)),
                  ("short_sequence", (st.emb,)), ("long_sequence", (state.lt.emb,)),
                  ("mlp_input", (short_rep, long_rep))]
        for name, arrays in stages + [(f"mlp_hidden_{i}", (h,)) for i, h in enumerate(state.acts)]:
            if not all(np.isfinite(x).all() for x in arrays):
                raise NumericError(f"non-finite value first seen at stage {name!r}")
        raise NumericError("non-finite logit")
    return np.clip(_sigmoid(state.z), _PROB_EPS, 1.0 - _PROB_EPS)


def predict_request(request: Request, candidates, params: ModelParams, config: ModelConfig,
                    item_fps: Optional[FingerprintTable] = None) -> np.ndarray:
    """Scores for all candidates against one user state.

    Computes request-side embeddings, key fingerprints and (for full
    attention) K/V projections once and reuses them across candidates;
    per-candidate scores match forward() on the equivalent sample to
    within 1e-6.  When item_fps is given, both the sequence keys and the
    candidate queries read their bits from the table instead of rehashing
    embeddings; scores are unchanged as long as the table matches the
    current weights and the candidates carry their catalog categories
    (verify_item_fingerprints checks the former)."""
    if len(candidates) == 0:
        return np.empty(0)
    state = prepare_request(request, params, config, item_fps)
    items, cats, cand_emb = candidate_embeddings(candidates, params, config)
    sel = retrieval_stage(state, items, cand_emb, cats, params, config)
    long_rep = attention_stage(state, cand_emb, sel, params, config)
    return finish_stage(state, cand_emb, long_rep, params, config)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    cfg = asdict(config)
    cfg["mlp_widths"] = list(config.mlp_widths)
    blob = json.dumps(cfg).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f4").tobytes())


def _read_exact(fh, buf, off: int):
    """Fill buf from fh, positioned at offset off; a short read is a FormatError."""
    view = memoryview(buf).cast("B")
    got = fh.readinto(view)
    if got != view.nbytes:
        raise FormatError(f"short read at offset {off}: need {view.nbytes} bytes, got {got}")
    return buf


def load_checkpoint(path):
    """Returns (params, config).  Validates header, config echo and shapes.

    Every extent is checked against the file's size before the payload is
    read, in one read, straight into the parameter buffer.  Parameters come
    back as float32, exactly the values the file holds, and request scoring
    then runs at that precision."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _CKPT_HEADER.size:
            raise FormatError(f"truncated header: {size} bytes (offset 0)")
        header = _read_exact(fh, bytearray(_CKPT_HEADER.size), 0)
        magic, version, blob_len = _CKPT_HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r} at offset 0")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at offset 4")
        off = _CKPT_HEADER.size
        if size < off + blob_len:
            raise FormatError(f"truncated config echo at offset {off}")
        blob = _read_exact(fh, bytearray(blob_len), off)
        try:
            cfg_dict = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable config echo at offset {off}: {exc}") from exc
        if not isinstance(cfg_dict, dict):
            raise FormatError(f"config echo at offset {off} is not a JSON object")
        # checkpoints written before the option was removed echo it as false
        if cfg_dict.pop("hash_projected", False) is not False:
            raise FormatError("checkpoint uses hash_projected retrieval, which was removed")
        known = {f.name for f in ModelConfig.__dataclass_fields__.values()}
        unknown = set(cfg_dict) - known
        if unknown:
            raise FormatError(f"unknown config keys in checkpoint: {sorted(unknown)}")
        try:
            config = ModelConfig(**cfg_dict)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"invalid config echo: {exc}") from exc
        off += blob_len
        _check_vocab(config)
        start = off
        for name, shape in _param_shapes(config).items():
            nbytes = 4 * math.prod(shape)
            if size < off + nbytes:
                raise FormatError(
                    f"truncated tensor {name!r} at offset {off}: need {nbytes} bytes,"
                    f" have {size - off}"
                )
            off += nbytes
        if off != size:
            raise FormatError(f"{size - off} trailing bytes at offset {off}")
        flat = _read_exact(fh, np.empty((off - start) // 4, dtype="<f4"), start)
    # an aligned, writable, native float32 array; a copy only on a big-endian host
    flat = flat.astype(np.float32, copy=False)
    return _params_from(flat, config, _hash_family(config)), config
