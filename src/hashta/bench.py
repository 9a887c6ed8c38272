"""Latency and ablation harness.

Measurements use the monotonic clock (perf_counter_ns) and score
simulated request streams (random full-length histories, fixed candidate
count).  Every grid runs warm-up requests before any timed ones.  Reports
go to CSV (one row per grid cell) and JSON (same records plus an
environment note); latencies are microseconds.

Every timed loop runs inside ``timed_section``, which fixes the two
process conditions found to move comparisons:

* Threads.  Comparisons are meant single-threaded, so variants compete
  for one core.  BLAS reads its thread count once, when numpy loads it,
  so the reliable pin is ``OPENBLAS_NUM_THREADS=1`` (and the OMP and MKL
  equivalents) in the environment before numpy is imported; the test
  suite's ``conftest.py`` sets them.  ``timed_section`` also clamps the
  pools through threadpoolctl when it is installed.  Nothing is
  assumed: ``environment_note`` counts the threads actually running
  after a warm GEMM (``blas_threads``) and reports ``single_threaded``
  from that count.
* The allocator.  Until a large block has been freed, glibc maps every
  temporary above 128 KiB afresh, and the page faults make full
  attention about 2.5 ms per request slower at L=1024; a test that ran
  earlier in the same process can have raised the threshold already.
  ``timed_section`` frees one 24 MiB block first, so every loop is timed
  with the threshold raised, whatever ran before.

All timing goes through one loop, ``_time_cells``.  Every timed step
scores one request per cell, and the cell that goes first rotates, which
spreads slow host drift (thermal state, cache pressure from the
measurement itself) evenly over all cells.

* ``run_comparison`` and ``run_scaling`` feed ratio checks with tight
  windows, so all their cells share one loop.  ``run_scaling``
  additionally times the retrieval and attention stages by repeating
  each stage call ``STAGE_INNER`` times inside one clock window on the
  request just scored; single calls would charge sub-millisecond stages
  for refilling caches the bookkeeping between calls evicted, which
  flattens the very trend being measured.
* ``run_ablation`` trains each cell first, so it times its cells one at
  a time through the same loop; its downstream checks are strict
  orderings with wide gaps, so cell-to-cell drift does not matter.

Report labels follow the technique/retrieval/L/K notation, e.g. a
hash-retrieved attention model over 1024 behaviors keeping 48 of them is
``TA/HASH/1024/48`` and the unrestricted model is ``TA/-/1024/-``.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from functools import partial
from typing import Optional

import numpy as np

from . import model as M
from .data import item_category_of

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # optional extra: pip install hashta[threads]
    threadpool_limits = None


@contextmanager
def timed_section():
    """The conditions every timed loop runs under: a settled allocator and
    BLAS clamped to one thread where threadpoolctl is available."""
    # freeing one large block raises glibc's mmap threshold now, so later
    # large temporaries reuse heap pages instead of faulting in fresh
    # mappings; 24 MiB is under glibc's 32 MiB cap on the threshold
    block = np.empty(3 << 20)
    del block
    with threadpool_limits(limits=1) if threadpool_limits is not None else nullcontext():
        yield


def blas_threads() -> Optional[int]:
    """Threads in this process after a warm GEMM, or None where the
    platform does not list them.  OpenBLAS starts its pool lazily, so the
    GEMM comes first; with BLAS pinned the count is 1."""
    a = np.ones((256, 256))
    for _ in range(3):
        a = a @ a / 256.0
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def environment_note() -> dict:
    threads = blas_threads()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "blas_threads": threads,
        "single_threaded": threads == 1,
    }


def variant_label(variant: str, l_lt: int, k: int) -> str:
    if variant == "ETA":
        return f"TA/HASH/{l_lt}/{k}"
    if variant == "ETA_ANGULAR":
        return f"TA/ANG/{l_lt}/{k}"
    if variant == "SIM_HARD":
        return f"TA/CAT/{l_lt}/{k}"
    if variant == "FULL_TA":
        return f"TA/-/{l_lt}/-"
    if variant == "DIN_SHORT":
        return "TA/-/0/-"
    return f"AVG/-/{l_lt}/-"  # POOLING, DIN_LONG_AVG


@dataclass
class BenchRecord:
    label: str
    variant: str
    l_lt: int
    k: int
    n_candidates: int
    d: int
    m: int
    n_rounds: int
    auc: float
    n_requests: int
    warmup: int
    mean_us: float
    p50_us: float
    p95_us: float
    retrieval_mean_us: float
    attention_mean_us: float
    stage_inner: int = 0  # stage calls per clock window; 0 = stages not timed
    error: Optional[str] = None


CSV_FIELDS = list(BenchRecord.__dataclass_fields__)


def _latency_stats(totals: np.ndarray) -> dict:
    """Mean, median and 95th percentile of per-request microseconds."""
    return {
        "mean_us": float(totals.mean()),
        "p50_us": float(np.percentile(totals, 50)),
        "p95_us": float(np.percentile(totals, 95)),
    }


def _record(config: M.ModelConfig, n_candidates: int, n_requests: int, warmup: int,
            auc: float = float("nan"), **measured) -> BenchRecord:
    """One report row for a config; latency fields not measured are NaN."""
    fields = dict.fromkeys(
        ("mean_us", "p50_us", "p95_us", "retrieval_mean_us", "attention_mean_us"), float("nan")
    )
    fields.update(measured)
    return BenchRecord(
        label=variant_label(config.variant, config.l_lt, config.k),
        variant=config.variant, l_lt=config.l_lt, k=config.k,
        n_candidates=n_candidates, d=config.d, m=config.m, n_rounds=config.n_rounds,
        auc=auc, n_requests=n_requests, warmup=warmup, **fields,
    )


def simulated_requests(config: M.ModelConfig, n: int, seed: int, n_candidates: int):
    """Random full-length request pool plus candidate lists; windows are
    read-only (n, 3) int64 arrays."""
    rng = np.random.default_rng(seed)
    now = 1_700_000_000
    requests = []
    candidate_lists = []
    for _ in range(n):
        def seq(length):
            items = rng.integers(1, config.n_items + 1, size=length)
            rows = np.stack((items, item_category_of(items, config.n_categories),
                             now - 3600 * np.arange(length, 0, -1)), axis=1)
            rows.flags.writeable = False
            return rows
        requests.append(
            M.Request(
                int(rng.integers(1, config.n_users + 1)),
                int(rng.integers(1, config.n_contexts + 1)),
                now, seq(config.l_st), seq(config.l_lt),
            )
        )
        items = rng.integers(1, config.n_items + 1, size=n_candidates)
        candidate_lists.append(
            [(int(it), item_category_of(int(it), config.n_categories)) for it in items]
        )
    return requests, candidate_lists


def serving_fingerprints(params, config: M.ModelConfig):
    """Per-item fingerprint table for hash retrieval, or None if unused.

    Simulated candidates and histories draw from the full catalog with the
    canonical item-to-category layout, so the table covers every id the
    scorer will see."""
    if config.variant != "ETA":
        return None
    ids = np.arange(1, config.n_items + 1)
    cats = np.concatenate([[0], item_category_of(ids, config.n_categories)])
    return M.fingerprint_items(params, config, cats)


def run_cell(config: M.ModelConfig, samples, n_candidates: int, n_requests: int,
             warmup: int, log=None) -> BenchRecord:
    """Train (epochs per config; 0 means score a fresh init), measure AUC on
    the test split when data is given, then time the scoring path."""
    auc_value = float("nan")
    if samples is not None and len(samples.train) and config.epochs > 0:
        result = M.train(samples.train, samples.val, config, log=log)
        params = result.params
    else:
        params = M.init_params(config)
    if samples is not None and len(samples.test):
        auc_value = M.evaluate(samples.test, params, config).auc
    job = _timing_job(params, config, n_candidates, n_requests)
    (stats,) = _time_cells([job], n_requests, warmup)
    return _record(config, n_candidates, n_requests, warmup, auc=auc_value, **stats)


def run_ablation(base: M.ModelConfig, cells, samples, n_candidates: int,
                 n_requests: int, warmup: int, log=None):
    """One record per cell; a failing cell is recorded and the sweep goes on.
    log, if given, takes each epoch's row and cell=, the cell's label plus
    m= on ETA cells, as format_record names them."""
    records = []
    for cell in cells:
        config = replace(base, **cell)
        name = variant_label(config.variant, config.l_lt, config.k)
        if config.variant == "ETA":
            name += f" m={config.m}"
        try:
            records.append(run_cell(config, samples, n_candidates, n_requests, warmup,
                                    log=log and partial(log, cell=name)))
        except Exception as exc:  # keep the sweep alive, report the cell
            records.append(_record(config, n_candidates, n_requests, warmup,
                                   error=f"{type(exc).__name__}: {exc}"))
    return records


POOL_SIZE = 64  # simulated requests per timing cell, cycled over the steps
STAGE_INNER = 4  # stage calls per clock window in run_scaling


def _timing_job(params, config: M.ModelConfig, n_candidates: int, n_requests: int):
    """One timing cell: (params, config, requests, candidate_lists, item_fps)."""
    requests, cand_lists = simulated_requests(
        config, min(POOL_SIZE, n_requests), config.seed, n_candidates
    )
    return params, config, requests, cand_lists, serving_fingerprints(params, config)


def _time_cells(jobs, n_requests: int, warmup: int, stage_inner: int = 0):
    """Latency stats per job, in microseconds, from one interleaved loop.

    Every timed step scores one request per job with a rotating lead, so
    slow host drift lands evenly on each cell.  With stage_inner > 0 the
    retrieval and attention stages are then re-run stage_inner times each
    on the request just scored, each batch inside one clock window."""
    n_jobs = len(jobs)
    totals = np.empty((n_jobs, n_requests))
    retrievals = np.empty((n_jobs, n_requests))
    attentions = np.empty((n_jobs, n_requests))
    with timed_section():
        for i in range(warmup):
            for params, config, requests, cand_lists, item_fps in jobs:
                M.predict_request(requests[i % len(requests)],
                                  cand_lists[i % len(cand_lists)],
                                  params, config, item_fps=item_fps)
        for i in range(n_requests):
            for off in range(n_jobs):
                j = (i + off) % n_jobs
                params, config, requests, cand_lists, item_fps = jobs[j]
                req = requests[i % len(requests)]
                cands = cand_lists[i % len(cand_lists)]
                t0 = time.perf_counter_ns()
                M.predict_request(req, cands, params, config, item_fps=item_fps)
                totals[j, i] = (time.perf_counter_ns() - t0) / 1e3
                if not stage_inner:
                    continue
                state = M.prepare_request(req, params, config, item_fps)
                items, cats, cand_emb = M.candidate_embeddings(cands, params, config)
                t0 = time.perf_counter_ns()
                for _ in range(stage_inner):
                    sel = M.retrieval_stage(state, items, cand_emb, cats, params, config)
                retrievals[j, i] = (time.perf_counter_ns() - t0) / 1e3 / stage_inner
                t0 = time.perf_counter_ns()
                for _ in range(stage_inner):
                    M.attention_stage(state, cand_emb, sel, params, config)
                attentions[j, i] = (time.perf_counter_ns() - t0) / 1e3 / stage_inner
    stats = [_latency_stats(t) for t in totals]
    if stage_inner:
        for s, r, a in zip(stats, retrievals, attentions):
            s.update(retrieval_mean_us=float(r.mean()), attention_mean_us=float(a.mean()),
                     stage_inner=stage_inner)
    return stats


def run_comparison(base: M.ModelConfig, cells, n_candidates: int,
                   n_requests: int, warmup: int):
    """Latency head-to-head across config tweaks, untrained weights.

    All cells share one interleaved loop, so mean ratios between them are
    trustworthy; AUC and stage fields are NaN."""
    configs = [replace(base, **cell) for cell in cells]
    jobs = [_timing_job(M.init_params(c), c, n_candidates, n_requests) for c in configs]
    stats = _time_cells(jobs, n_requests, warmup)
    return [_record(c, n_candidates, n_requests, warmup, **s) for c, s in zip(configs, stats)]


def run_scaling(base: M.ModelConfig, lengths, n_candidates,
                n_requests: int, warmup: int):
    """Stage-timed sweep over (long length, candidate count) cells.

    Untrained weights; all cells share one interleaved loop.  Totals come
    from single predict_request calls; the retrieval and attention stages
    are then re-run STAGE_INNER times on the same prepared request inside
    one clock window, amortizing the cache refills that the per-request
    bookkeeping would otherwise charge to sub-millisecond stages."""
    if isinstance(n_candidates, int):
        n_candidates = [n_candidates]
    grid = [(replace(base, l_lt=l_lt), nc) for l_lt in lengths for nc in n_candidates]
    jobs = [_timing_job(M.init_params(c), c, nc, n_requests) for c, nc in grid]
    stats = _time_cells(jobs, n_requests, warmup, STAGE_INNER)
    return [_record(c, nc, n_requests, warmup, **s) for (c, nc), s in zip(grid, stats)]


def format_record(rec: BenchRecord) -> str:
    """One aligned report line; stage columns appear when measured.  The
    hash width (ETA only) and candidate count tell swept rows apart."""
    width = f"m={rec.m}" if rec.variant == "ETA" else ""
    head = f"{rec.label:<20} {width:<5} candidates={rec.n_candidates:<4}"
    if rec.error:
        return f"{head} ERROR {rec.error}"
    extra = ""
    if np.isfinite(rec.retrieval_mean_us):
        extra = (
            f" retrieve={rec.retrieval_mean_us:9.1f}us"
            f" attend={rec.attention_mean_us:9.1f}us"
        )
    return (
        f"{head} auc={rec.auc:.5f} mean={rec.mean_us:9.1f}us"
        f" p50={rec.p50_us:9.1f}us p95={rec.p95_us:9.1f}us{extra}"
    )


def write_report_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))


def write_report_json(path, records, summary=None) -> None:
    payload = {"environment": environment_note(), "records": [asdict(r) for r in records]}
    if summary is not None:
        payload["summary"] = summary
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
