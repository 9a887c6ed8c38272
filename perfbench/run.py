"""hashta benchmark: train a model with live hashing, then score long histories.

Usage (from the repository root):

    python3 perfbench/run.py --workload eta --seed 1 --seconds 36 --trace 0

Each workload is one model variant taken through the whole system in one
process, with one thread and BLAS pinned to one thread:

1. inputs from ``--seed``: a planted-interest behaviour log written as CSV
   (1000 users x 400 events, 10k items) and an HTAC checkpoint of the
   long-history scoring model (d=32, K=48, 2 x 32 hash bits, 2 heads,
   100k items);
2. set-up, timed: ``load_behavior_log``, ``build_samples``,
   ``init_params``, ``load_checkpoint``, and for ETA ``fingerprint_items``
   plus ``verify_item_fingerprints``;
3. training: ``train`` for a fixed number of epochs on the log's samples
   (fingerprints recomputed from live embeddings on every sample);
4. evaluation: a few ``evaluate`` passes over the validation and test
   splits with the trained weights;
5. serving for ``--seconds`` in slices, with the set-up repeated and
   timed again after each slice but the last: a closed loop with one
   caller that scores one request at a time through ``predict_request``.
   Each request is a distinct user state (no user state repeats) with a
   long history of 1024-2048 behaviours and 128 candidates, drawn from
   Zipf item popularity over the 100k-item catalog;
6. output checks, outside every timed region.

The program sees only the generated inputs and is driven only through
the public functions of ``hashta.model``, ``hashta.data`` and the layers
those call; nothing here imports ``hashta.bench`` or ``scripts/``.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the
same work with in-memory spans (see ``spans.py``) and prints the
per-layer metrics instead.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

import os

# BLAS reads these once, when numpy first loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hashta import data as D  # noqa: E402
from hashta import model as M  # noqa: E402
from hashta.errors import NumericError  # noqa: E402

import spans  # noqa: E402

WORKLOADS = {"eta": "ETA", "full_ta": "FULL_TA"}

END_TO_END_UNITS = {
    "score_p50_us": "us",
    "score_p99_us": "us",
    "requests_per_s": "1/s",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "model.prepare_us": "us",
    "model.retrieve_us": "us",
    "model.attend_us": "us",
    "model.finish_us": "us",
    "model.serve_self_us": "us",
    "model.loss_grad_us": "us",
    "model.train_self_us": "us",
    "model.adam_step_us": "us",
    "model.evaluate_us": "us",
    "model.load_checkpoint_s": "s",
    "fingerprint.serve_hash_rows": "count",
    "fingerprint.take_rows": "count",
    "fingerprint.train_hash_rows": "count",
    "fingerprint.train_hash_us": "us",
    "fingerprint.table_build_s": "s",
    "retrieval.topk_us": "us",
    "retrieval.keys_scanned": "count",
    "retrieval.kept_share": "share",
    "retrieval.composite_bytes": "bytes",
    "retrieval.train_topk_us": "us",
    "attention.keys_attended": "count",
    "attention.fwd_us": "us",
    "attention.bwd_us": "us",
    "data.load_log_s": "s",
    "data.rows_loaded": "count",
    "data.build_samples_s": "s",
    "trace.overhead_us": "us",
    "trace.absent_hooks": "count",
}


@dataclass(frozen=True)
class Shape:
    # planted-interest log and the model trained on it: the acceptance
    # suite's quality-gate shape with half its users, so that a run fits
    # the benchmark's time budget
    log_users: int = 1000
    log_events: int = 400
    log_items: int = 10_000
    log_categories: int = 100
    train_d: int = 16
    train_l_lt: int = 256
    train_k: int = 16
    negatives: int = 3
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.05
    eval_passes: int = 3
    # long-history request stream and the model that scores it
    catalog_items: int = 100_000
    catalog_categories: int = 1_000
    users: int = 10_000
    d: int = 32
    k: int = 48
    l_st: int = 16
    l_lt: int = 2048
    min_long: int = 1024
    candidates: int = 128
    warmup_requests: int = 10
    check_requests: int = 3
    headline_requests: int = 50
    setup_repeats: int = 6


FULL = Shape()
# a few seconds end to end; for checking the benchmark itself
TINY = Shape(
    log_users=80, log_events=60, log_items=400, log_categories=10,
    train_l_lt=48, train_k=8, epochs=1, catalog_items=3_000, catalog_categories=30,
    users=100, l_lt=256, min_long=128, candidates=16, warmup_requests=2,
    eval_passes=2, check_requests=2, headline_requests=10, setup_repeats=2,
)

BASE_TS = 1_700_000_000
ZIPF_EXPONENT = 1.0


def settle_allocator():
    """Free one large block, so glibc raises its mmap threshold now.

    Until a large block is freed, every multi-megabyte temporary of a
    scoring call is a fresh mapping whose pages fault in on first touch:
    about 1000 minor faults per FULL_TA request at L=1024 and 2000 at
    L=2048, which makes it about 1.5x slower.  Set-up frees large blocks
    anyway; doing it first makes serving independent of what set-up
    allocates."""
    block = np.empty(3 << 20)  # 24 MiB, under glibc's 32 MiB cap on the threshold
    del block


def blas_threads() -> int:
    """Threads in this process after a warm GEMM (OpenBLAS starts its pool lazily)."""
    a = np.ones((256, 256))
    for _ in range(3):
        a = a @ a / 256.0
    return len(os.listdir("/proc/self/task"))


class RequestStream:
    """Long-history requests from a seed; no user state repeats.

    Items follow Zipf popularity over the whole catalog, with popularity
    ranks scattered over item ids, and carry the fixed catalog category
    ``item_category_of`` gives them, so a fingerprint table built from
    the catalog matches live hashing."""

    def __init__(self, shape: Shape, seed: int, stream: int):
        self.shape = shape
        layout = np.random.default_rng([seed, 0])
        self.by_rank = layout.permutation(shape.catalog_items) + 1
        weights = 1.0 / np.arange(1, shape.catalog_items + 1) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights) / weights.sum()
        self.rng = np.random.default_rng([seed, stream])

    def _items(self, n: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        return self.by_rank[np.minimum(ranks, self.cdf.shape[0] - 1)]

    def next(self):
        s, rng = self.shape, self.rng
        length = int(rng.integers(s.min_long, s.l_lt + 1))
        items = self._items(length)
        cats = D.item_category_of(items, s.catalog_categories)
        now = BASE_TS + int(rng.integers(0, 30 * D.SECONDS_PER_DAY))
        ts = now - 600 * np.arange(length, 0, -1)
        events = tuple(zip(items.tolist(), cats.tolist(), ts.tolist()))
        request = M.Request(
            int(rng.integers(1, s.users + 1)), int(rng.integers(1, 25)), now,
            events[-s.l_st:], events,
        )
        cand = self._items(s.candidates)
        cand_cats = D.item_category_of(cand, s.catalog_categories)
        return request, list(zip(cand.tolist(), cand_cats.tolist()))


def serve_config(shape: Shape, variant: str, seed: int) -> M.ModelConfig:
    return M.ModelConfig(
        d=shape.d, l_st=shape.l_st, l_lt=shape.l_lt, k=shape.k, n_heads=2, m=32,
        n_rounds=2, variant=variant, seed=seed, epochs=0,
        n_items=shape.catalog_items, n_categories=shape.catalog_categories,
        n_users=shape.users,
    )


def catalog_categories(shape: Shape) -> np.ndarray:
    ids = np.arange(1, shape.catalog_items + 1)
    return np.concatenate([[0], D.item_category_of(ids, shape.catalog_categories)])


def make_inputs(shape: Shape, variant: str, seed: int, workdir: Path):
    spec = D.SyntheticSpec(
        n_users=shape.log_users, n_items=shape.log_items, n_categories=shape.log_categories,
        events_per_user=shape.log_events, interest_categories_per_user=4,
        favorites_per_category=1, noise_rate=0.2, seed=seed,
    )
    events, _ = D.generate_synthetic(spec)
    log_path = workdir / "log.csv"
    D.write_behavior_log(log_path, events)
    config = serve_config(shape, variant, seed)
    ckpt_path = workdir / "serve.ckpt"
    M.save_checkpoint(ckpt_path, M.init_params(config), config)
    return log_path, ckpt_path


@dataclass
class Setup:
    sets: D.SampleSet
    train_config: M.ModelConfig
    train_params: M.ModelParams
    serve_params: M.ModelParams
    serve_config: M.ModelConfig
    table: object
    rows_loaded: int
    seconds: dict


def set_up(shape: Shape, variant: str, seed: int, log_path, ckpt_path, item_cats) -> Setup:
    t0 = time.perf_counter()
    log = D.load_behavior_log(log_path)
    t1 = time.perf_counter()
    sets = D.build_samples(
        log.events_by_user, shape.l_st, shape.train_l_lt, shape.negatives,
        D.build_category_index(log), seed,
    )
    t2 = time.perf_counter()
    train_config = M.ModelConfig(
        d=shape.train_d, l_st=shape.l_st, l_lt=shape.train_l_lt, k=shape.train_k,
        n_heads=2, m=32, n_rounds=2, variant=variant, seed=seed,
        learning_rate=shape.learning_rate, l2=1e-4, batch_size=shape.batch_size,
        epochs=shape.epochs, n_items=log.n_items, n_categories=log.n_categories,
        n_users=log.n_users,
    )
    train_params = M.init_params(train_config)
    t3 = time.perf_counter()
    serve_params, config = M.load_checkpoint(ckpt_path)
    t4 = time.perf_counter()
    table, table_build = None, 0.0
    if config.variant == "ETA":
        table = M.fingerprint_items(serve_params, config, item_cats)
        table_build = time.perf_counter() - t4
        M.verify_item_fingerprints(table, serve_params, config, item_cats)
    t5 = time.perf_counter()
    seconds = {
        "load_log": t1 - t0, "build_samples": t2 - t1, "init_params": t3 - t2,
        "load_checkpoint": t4 - t3, "table_build": table_build, "total": t5 - t0,
    }
    return Setup(sets, train_config, train_params, serve_params, config, table,
                 log.n_rows, seconds)


class Counts:
    """Operations attempted and failed, per phase."""

    def __init__(self):
        self.phases = {}

    def add(self, phase: str, attempted: int, failed: int = 0):
        a, f = self.phases.get(phase, (0, 0))
        self.phases[phase] = (a + attempted, f + failed)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


def report_exception(where: str):
    print(f"FAILED in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def valid_scores(scores, n: int) -> bool:
    scores = np.asarray(scores)
    return (
        scores.shape == (n,) and bool(np.isfinite(scores).all())
        and bool((scores > 0.0).all()) and bool((scores < 1.0).all())
    )


def run_training(setup: Setup, counts: Counts):
    """``train`` on the log's samples; (best params, seconds) or None.

    The seconds are train's own per-epoch timings."""
    config, sets = setup.train_config, setup.sets
    n_batches = config.epochs * math.ceil(len(sets.train) / config.batch_size)
    try:
        result = M.train(sets.train, sets.val, config, params=setup.train_params)
    except NumericError:
        report_exception("train")
        counts.add("train", n_batches, 1)
        return None
    finite = all(math.isfinite(row["train_loss"]) for row in result.metrics)
    counts.add("train", n_batches, 0 if finite else 1)
    return result.params, sum(row["seconds"] for row in result.metrics)


def evaluate_held_out(setup: Setup, params, counts: Counts):
    """One ``evaluate`` pass over the validation and test splits.

    Returns (seconds, test-split AUC) or None."""
    n_val = len(setup.sets.val)
    samples = setup.sets.val + setup.sets.test
    t0 = time.perf_counter()
    try:
        ev = M.evaluate(samples, params, setup.train_config)
        seconds = time.perf_counter() - t0
        test_auc = M.auc(ev.scores[n_val:], ev.labels[n_val:])
    except (NumericError, ValueError):
        report_exception("evaluate")
        counts.add("evaluate", len(samples), len(samples))
        return None
    ok = valid_scores(ev.scores, len(samples)) and math.isfinite(test_auc)
    counts.add("evaluate", len(samples), 0 if ok else len(samples))
    return seconds, test_auc


class Server:
    """Closed loop with one caller over the seeded request stream.

    Latencies are kept in ns.  With hooks, every other request runs with
    the hooks installed, so the traced and plain latencies give the
    tracing overhead on one stream."""

    def __init__(self, setup: Setup, shape: Shape, seed: int, counts: Counts, hooks=None):
        self.params, self.config, self.table = setup.serve_params, setup.serve_config, setup.table
        self.counts, self.hooks = counts, hooks
        self.warm_stream = RequestStream(shape, seed, 2)
        self.warmup_requests = shape.warmup_requests
        self.stream = RequestStream(shape, seed, 1)
        self.plain, self.traced = [], []
        self.slice_ends = []  # len(self.plain) after each call of serve
        self.n = 0

    def warm(self):
        """Untimed requests, so caches hold serving data again before timing."""
        for _ in range(self.warmup_requests):
            request, cands = self.warm_stream.next()
            M.predict_request(request, cands, self.params, self.config, item_fps=self.table)

    def serve(self, seconds: float):
        self.warm()
        hooks = self.hooks
        failed = n = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            request, cands = self.stream.next()
            use_trace = hooks is not None and self.n % 2 == 1
            self.n += 1
            n += 1
            with hooks if use_trace else nullcontext():
                t0 = time.perf_counter_ns()
                try:
                    if use_trace:
                        hooks.tracer.request = self.n
                    scores = M.predict_request(request, cands, self.params, self.config,
                                               item_fps=self.table)
                except Exception:  # keep serving; the request counts as failed
                    report_exception(f"request {self.n}")
                    scores = None
                elapsed = time.perf_counter_ns() - t0
            (self.traced if use_trace else self.plain).append(elapsed)
            if scores is None or not valid_scores(scores, len(cands)):
                failed += 1
        self.counts.add("serve", n, failed)
        self.slice_ends.append(len(self.plain))


def check_outputs(setup: Setup, shape: Shape, seed: int, counts: Counts):
    """On the first requests of the timed stream: the table-backed score
    equals live hashing exactly, and every candidate's score matches the
    per-sample forward pass to within 1e-6."""
    params, config, table = setup.serve_params, setup.serve_config, setup.table
    stream = RequestStream(shape, seed, 1)
    failed = 0
    for i in range(shape.check_requests):
        request, cands = stream.next()
        try:
            live = M.predict_request(request, cands, params, config)
            ok = valid_scores(live, len(cands))
            if table is not None:
                tabled = M.predict_request(request, cands, params, config, item_fps=table)
                ok = ok and np.array_equal(live, tabled)
            reference = np.array([
                M.forward(
                    D.Sample(request.user_id, item, cat, request.context_bucket,
                             request.timestamp, 0, request.short_seq, request.long_seq),
                    params, config,
                )
                for item, cat in cands
            ])
            gap = float(np.abs(reference - live).max())
            ok = ok and gap <= 1e-6
        except Exception:  # a check that raises is a failed check
            report_exception(f"output check {i}")
            ok = False
        if not ok:
            print(f"output check {i} failed", file=sys.stderr)
            failed += 1
    counts.add("check", shape.check_requests, failed)


def headline_ratio(setup: Setup, shape: Shape, seed: int):
    """ETA / FULL_TA median latency on the same requests, rotating the lead."""
    full = replace(setup.serve_config, variant="FULL_TA")
    cells = ((setup.serve_config, setup.table), (full, None))
    times = ([], [])
    stream = RequestStream(shape, seed, 1)
    for i in range(shape.headline_requests):
        request, cands = stream.next()
        for off in range(2):
            j = (i + off) % 2
            config, table = cells[j]
            t0 = time.perf_counter_ns()
            M.predict_request(request, cands, setup.serve_params, config, item_fps=table)
            times[j].append(time.perf_counter_ns() - t0)
    eta, full_ta = statistics.median(times[0]), statistics.median(times[1])
    return eta / full_ta, eta / 1e3, full_ta / 1e3


def end_to_end(setup_times, slices):
    """Gated metrics from the set-up times and the serving slices' latencies.

    ``slices`` holds the plain latencies (ns) of each serving slice.  The
    p99 is the median over slices of each slice's own p99, so a stretch
    of host noise shorter than a slice or two moves one slice's figure,
    not the reported one; each slice has over ten requests above its p99
    at full size."""
    slices = [s for s in slices if s.shape[0]]
    plain = np.concatenate(slices)
    n = plain.shape[0]
    over_p99 = min(s.shape[0] - math.ceil(0.99 * s.shape[0]) for s in slices)
    lat_us = plain / 1e3
    # rate per ~1 s of busy time, so one slow stretch of the host moves
    # the median window, not the whole figure
    windows = np.array_split(plain, max(1, int(plain.sum() / 1e9)))
    rates = [w.shape[0] / (w.sum() / 1e9) for w in windows]
    return {
        "score_p50_us": (float(np.percentile(lat_us, 50)), f"{n} requests"),
        "score_p99_us": (float(np.median([np.percentile(s / 1e3, 99) for s in slices])),
                         f"median of {len(slices)} slices' p99, {n} requests,"
                         f" at least {over_p99} above in each slice"),
        "requests_per_s": (float(np.median(rates)),
                           f"{n} requests, median of {len(windows)} windows of ~1 s busy time"),
        "setup_s": (statistics.median(t["total"] for t in setup_times),
                    f"median of {len(setup_times)} set-ups"),
    }


def per_layer(setup_times, rows_loaded, training, hooks: spans.Hooks, plain, traced):
    summary = hooks.tracer.summary()

    def get(phase, name, key):
        return summary.get((phase, name), {}).get(key, 0)

    def per(value, n):
        return value / n if n else 0.0

    n_req = traced.shape[0]
    n_steps = training["train_samples"] if training else 0
    n_eval = get("train", "model.evaluate", "samples")
    n_forward = n_steps + n_eval
    stages = ("model.prepare_request", "model.candidate_embeddings", "model.retrieval_stage",
              "model.attention_stage", "model.finish_stage")
    hashers = ("fingerprint.fingerprint_batch", "fingerprint.simhash")

    def setup_median(key):
        return statistics.median(t[key] for t in setup_times)

    return {
        "model.prepare_us": per(sum(get("serve", s, "incl_ns") for s in stages[:2]) / 1e3, n_req),
        "model.retrieve_us": per(get("serve", "model.retrieval_stage", "incl_ns") / 1e3, n_req),
        "model.attend_us": per(get("serve", "model.attention_stage", "incl_ns") / 1e3, n_req),
        "model.finish_us": per(get("serve", "model.finish_stage", "incl_ns") / 1e3, n_req),
        "model.serve_self_us": per(sum(get("serve", s, "self_ns") for s in stages) / 1e3, n_req),
        "model.loss_grad_us": per(get("train", "model.loss_and_gradients", "incl_ns") / 1e3,
                                  get("train", "model.loss_and_gradients", "samples")),
        "model.train_self_us": per(get("train", "model.loss_and_gradients", "self_ns") / 1e3,
                                   get("train", "model.loss_and_gradients", "samples")),
        "model.adam_step_us": per(get("train", "model.adam_step", "incl_ns") / 1e3,
                                  get("train", "model.adam_step", "calls")),
        "model.evaluate_us": per(get("train", "model.evaluate", "incl_ns") / 1e3, n_eval),
        "model.load_checkpoint_s": setup_median("load_checkpoint"),
        "fingerprint.serve_hash_rows": per(sum(get("serve", h, "rows") for h in hashers), n_req),
        "fingerprint.take_rows": per(get("serve", "fingerprint.take", "rows"), n_req),
        "fingerprint.train_hash_rows": per(sum(get("train", h, "rows") for h in hashers),
                                           n_forward),
        "fingerprint.train_hash_us": per(sum(get("train", h, "incl_ns") for h in hashers) / 1e3,
                                         n_forward),
        "fingerprint.table_build_s": setup_median("table_build"),
        "retrieval.topk_us": per(
            get("serve", "retrieval.hamming_top_k_batch", "incl_ns") / 1e3, n_req),
        "retrieval.keys_scanned": per(
            get("serve", "retrieval.hamming_top_k_batch", "keys_scanned"), n_req),
        "retrieval.kept_share": per(get("serve", "retrieval.hamming_top_k_batch", "kept"),
                                    get("serve", "retrieval.hamming_top_k_batch", "valid")),
        "retrieval.composite_bytes": per(
            get("serve", "retrieval.hamming_top_k_batch", "composite_bytes"), n_req),
        "retrieval.train_topk_us": per(
            get("train", "retrieval.top_k_by_hamming", "incl_ns") / 1e3, n_forward),
        "attention.keys_attended": per(get("serve", "model.attention_stage", "keys_attended"),
                                       get("serve", "model.attention_stage", "candidates")),
        "attention.fwd_us": per(get("train", "attention.mhta_with_cache", "incl_ns") / 1e3,
                                n_forward),
        "attention.bwd_us": per(get("train", "attention.mhta_backward", "incl_ns") / 1e3,
                                n_steps),
        "data.load_log_s": setup_median("load_log"),
        "data.rows_loaded": rows_loaded,
        "data.build_samples_s": setup_median("build_samples"),
        "trace.overhead_us": (float(np.median(traced)) - float(np.median(plain))) / 1e3
        if n_req and plain.shape[0] else 0.0,
        "trace.absent_hooks": len(hooks.absent),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, shape: Shape) -> dict:
    variant = WORKLOADS[workload]
    counts = Counts()
    threads = blas_threads()
    print(
        f"environment: python {platform.python_version()}, numpy {np.__version__},"
        f" {platform.machine()} {platform.system()}, {os.cpu_count()} cpus,"
        f" OPENBLAS/OMP/MKL_NUM_THREADS=1, threads after warm GEMM: {threads}"
    )
    invalid = [] if threads == 1 else [f"{threads} threads running, BLAS is not pinned to 1"]
    settle_allocator()
    hooks = spans.Hooks(spans.Tracer()) if trace else None
    if hooks is not None:
        for name in hooks.absent:
            print(f"trace: hooked name {name} is absent")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        log_path, ckpt_path = make_inputs(shape, variant, seed, workdir)
        item_cats = catalog_categories(shape)
        setup = set_up(shape, variant, seed, log_path, ckpt_path, item_cats)
        setup_times = [setup.seconds]

        if hooks is not None:
            hooks.tracer.phase = "train"
        evals = []
        with hooks or nullcontext():
            trained = run_training(setup, counts)
            if trained is not None:
                for _ in range(shape.eval_passes):
                    evals.append(evaluate_held_out(setup, trained[0], counts))

        if hooks is not None:
            hooks.tracer.phase = "serve"  # serving installs the hooks per traced request
        server = Server(setup, shape, seed, counts, hooks)
        # Serving comes in slices with one more (discarded) set-up after
        # each but the last, so that serving and set-up figures both
        # sample the host over most of the run, not over one stretch.
        for i in range(shape.setup_repeats):
            if trained is not None:
                server.serve(seconds / shape.setup_repeats)
            if i + 1 < shape.setup_repeats:
                setup_times.append(
                    set_up(shape, variant, seed, log_path, ckpt_path, item_cats).seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = np.array(server.plain, dtype=np.float64)
    slices = np.split(plain, server.slice_ends[:-1])
    traced = np.array(server.traced, dtype=np.float64)
    training = None
    if trained is not None and evals and None not in evals:
        training = {
            "train_s": trained[1],
            "train_samples": setup.train_config.epochs * len(setup.sets.train),
            "eval_s": statistics.median(e[0] for e in evals),
            "eval_samples": len(setup.sets.val) + len(setup.sets.test),
            "test_samples": len(setup.sets.test),
            "eval_passes": len(evals),
            "test_auc": evals[-1][1],
        }
    check_outputs(setup, shape, seed, counts)

    for name, (attempted, failed) in counts.phases.items():
        print(f"phase {name}: {attempted} operations attempted, {failed} failed")
    if training is None:
        invalid.append("training failed")
    if plain.shape[0] == 0:
        invalid.append("no request was scored")

    metrics, units, notes = {}, END_TO_END_UNITS, {}
    if not invalid:
        if trace:
            units = PER_LAYER_UNITS
            metrics = per_layer(setup_times, setup.rows_loaded, training, hooks,
                                plain, traced)
        else:
            for name, (value, note) in end_to_end(setup_times, slices).items():
                metrics[name], notes[name] = value, note
            # Not gated.  Training and evaluation are per-sample Python loops,
            # whose speed swings more with the host between runs than any
            # allowed bound; and after a few epochs, whether ETA has learned
            # the planted interests yet depends on the seed.
            print(
                f"training (informational, not gated):"
                f" train_samples_per_s {training['train_samples'] / training['train_s']:.1f} 1/s"
                f" ({training['train_samples']} sample-steps);"
                f" eval_samples_per_s {training['eval_samples'] / training['eval_s']:.1f} 1/s"
                f" ({training['eval_samples']} samples, median of {training['eval_passes']}"
                f" passes); test_auc {training['test_auc']:.4f}"
                f" ({training['test_samples']} test samples)"
            )
            if variant == "ETA":
                ratio, eta_us, full_us = headline_ratio(setup, shape, seed)
                print(
                    f"headline (informational, not gated): ETA / FULL_TA median latency"
                    f" {ratio:.3f} ({eta_us:.0f} us vs {full_us:.0f} us) on the first"
                    f" {shape.headline_requests} requests of this stream, rotating lead"
                )
        bad = [n for n, v in metrics.items() if not math.isfinite(v)]
        if bad:
            invalid.append(f"non-finite metrics {bad}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<28} {value:14.4f} {units[name]}{note}")
    for reason in invalid:
        print(f"INVALID: {reason}")
    return {
        "correct": not invalid and counts.failed == 0,
        "attempted": max(1, counts.attempted),
        "failed": counts.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = (ROOT / "src" / "hashta").resolve()
    if Path(M.__file__).resolve().parent != src:
        print(f"hashta imported from {M.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 TINY if args.tiny else FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
