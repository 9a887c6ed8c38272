import csv
import json
import math

import numpy as np

from hashta.bench import (
    STAGE_INNER,
    BenchRecord,
    environment_note,
    format_record,
    run_ablation,
    run_cell,
    run_comparison,
    run_scaling,
    simulated_requests,
    variant_label,
    write_report_csv,
    write_report_json,
)
from hashta.data import (
    SyntheticSpec, build_category_index, build_samples, generate_synthetic, item_category_of,
    log_from_events,
)
import hashta.model as M
from hashta.model import ModelConfig
from oracles import record_value


def bench_config(**kw):
    base = dict(
        d=4, l_st=3, l_lt=8, k=4, n_heads=2, m=8, n_rounds=2, variant="ETA",
        mlp_widths=(6,), seed=2, n_items=40, n_categories=5, n_users=10,
        epochs=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_variant_labels():
    assert variant_label("ETA", 1024, 48) == "TA/HASH/1024/48"
    assert variant_label("ETA_ANGULAR", 256, 16) == "TA/ANG/256/16"
    assert variant_label("SIM_HARD", 256, 16) == "TA/CAT/256/16"
    assert variant_label("FULL_TA", 1024, 48) == "TA/-/1024/-"
    assert variant_label("DIN_SHORT", 1024, 48) == "TA/-/0/-"
    assert variant_label("POOLING", 512, 4) == "AVG/-/512/-"
    assert variant_label("DIN_LONG_AVG", 512, 4) == "AVG/-/512/-"


def test_simulated_requests_shapes_and_determinism():
    config = bench_config()
    reqs, cands = simulated_requests(config, 5, seed=1, n_candidates=7)
    assert len(reqs) == 5 and len(cands) == 5
    for req, cl in zip(reqs, cands):
        assert len(req.short_seq) == 3 and len(req.long_seq) == 8
        assert len(cl) == 7
        assert all(1 <= item <= 40 and 1 <= cat <= 5 for item, cat in cl)
        assert all(item != 0 for item, _, _ in req.long_seq)  # always full length
    again, _ = simulated_requests(config, 5, seed=1, n_candidates=7)
    assert list(map(record_value, again)) == list(map(record_value, reqs))


def test_simulated_requests_draw_the_tuple_form_values():
    # the rows the pool held as tuples of Python ints, from the same draws in the same order
    config = bench_config(n_items=1000, n_categories=7, l_st=5, l_lt=64)
    reqs, cands = simulated_requests(config, 6, seed=4, n_candidates=9)
    rng = np.random.default_rng(4)
    now = 1_700_000_000

    def seq(length):
        items = rng.integers(1, config.n_items + 1, size=length)
        return [[int(it), item_category_of(int(it), 7), now - 3600 * (length - j)]
                for j, it in enumerate(items)]

    for req, cl in zip(reqs, cands):
        want = (int(rng.integers(1, config.n_users + 1)), int(rng.integers(1, config.n_contexts + 1)),
                now, seq(config.l_st), seq(config.l_lt))
        assert (req.user_id, req.context_bucket, req.timestamp, req.short_seq.tolist(),
                req.long_seq.tolist()) == want
        for window in (req.short_seq, req.long_seq):
            assert window.dtype == np.int64 and not window.flags.writeable
        items = rng.integers(1, config.n_items + 1, size=9)
        assert cl == [(int(it), item_category_of(int(it), 7)) for it in items]


def tiny_samples(l_lt=8):
    spec = SyntheticSpec(
        n_users=20, n_items=40, n_categories=5, events_per_user=20,
        interest_categories_per_user=2, favorites_per_category=2, seed=3,
    )
    events, _ = generate_synthetic(spec)
    log = log_from_events(events)
    return log, build_samples(log.events_by_user, 3, l_lt, 1, build_category_index(log), 0)


def test_run_cell_with_and_without_data():
    config = bench_config()
    bare = run_cell(config, None, n_candidates=4, n_requests=6, warmup=1)
    assert math.isnan(bare.auc)
    assert bare.label == "TA/HASH/8/4"
    assert bare.error is None and bare.mean_us > 0

    log, samples = tiny_samples()
    config = bench_config(
        n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users
    )
    scored = run_cell(config, samples, n_candidates=4, n_requests=6, warmup=1)
    assert 0.0 <= scored.auc <= 1.0


def test_run_ablation_keeps_going_after_a_failing_cell():
    log, samples = tiny_samples(l_lt=8)
    base = bench_config(
        n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users
    )
    # l_lt=4 cell fails: the prepared samples carry longer windows than it allows
    cells = [
        {"variant": "POOLING", "l_lt": 8, "m": 8},
        {"variant": "FULL_TA", "l_lt": 4, "m": 8},
        {"variant": "ETA", "l_lt": 8, "m": 8},
    ]
    records = run_ablation(base, cells, samples, 4, 5, 1)
    assert len(records) == 3
    assert records[0].error is None
    assert records[1].error is not None and "exceeds" in records[1].error
    assert records[2].error is None
    assert math.isnan(records[1].mean_us)


def test_run_scaling_reports_stage_times():
    base = bench_config()
    records = run_scaling(base, [4, 8], n_candidates=3, n_requests=5, warmup=1)
    assert [r.l_lt for r in records] == [4, 8]
    for r in records:
        assert r.retrieval_mean_us > 0 and r.attention_mean_us > 0
        assert r.mean_us >= r.retrieval_mean_us
        assert r.variant == "ETA"
        assert r.stage_inner > 0  # the report must say how stages were timed


def test_run_scaling_grids_over_candidate_counts():
    base = bench_config()
    records = run_scaling(base, [4, 8], n_candidates=[2, 3], n_requests=4, warmup=1)
    assert [(r.l_lt, r.n_candidates) for r in records] == [
        (4, 2), (4, 3), (8, 2), (8, 3)
    ]


def test_run_comparison_reports_interleaved_totals():
    base = bench_config()
    records = run_comparison(
        base, [{"variant": "FULL_TA"}, {"variant": "ETA"}],
        n_candidates=3, n_requests=6, warmup=2,
    )
    assert [r.variant for r in records] == ["FULL_TA", "ETA"]
    for r in records:
        assert math.isnan(r.auc)  # latency-only head-to-head
        assert r.mean_us > 0 and r.p50_us <= r.p95_us
        assert math.isnan(r.retrieval_mean_us) and r.stage_inner == 0


def record_scoring_calls(monkeypatch):
    """Patch the scorer and its stages to log (call, l_lt) in call order;
    stage calls made inside predict_request are not logged."""
    calls = []
    depth = [0]

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            config = args[-1] if name != "predict" else args[3]
            if depth[0] == 0:
                calls.append((name, config.l_lt))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(M, "predict_request", recording("predict", M.predict_request))
    monkeypatch.setattr(M, "retrieval_stage", recording("retrieve", M.retrieval_stage))
    monkeypatch.setattr(M, "attention_stage", recording("attend", M.attention_stage))
    return calls


def test_cells_share_one_loop_with_a_rotating_lead(monkeypatch):
    calls = record_scoring_calls(monkeypatch)
    lengths = [4, 6, 8]
    run_comparison(bench_config(), [{"l_lt": n} for n in lengths],
                   n_candidates=3, n_requests=5, warmup=2)
    warm = [("predict", n) for _ in range(2) for n in lengths]
    timed = [("predict", lengths[(i + off) % 3]) for i in range(5) for off in range(3)]
    assert calls == warm + timed


def test_run_scaling_repeats_each_stage_after_every_scored_request(monkeypatch):
    calls = record_scoring_calls(monkeypatch)
    lengths = [4, 8]
    run_scaling(bench_config(), lengths, n_candidates=3, n_requests=3, warmup=1)
    warm = [("predict", n) for n in lengths]
    timed = []
    for i in range(3):
        for off in range(2):
            n = lengths[(i + off) % 2]
            timed += [("predict", n)] + [("retrieve", n)] * STAGE_INNER + [("attend", n)] * STAGE_INNER
    assert calls == warm + timed


def test_reports_round_trip(tmp_path):
    rec = BenchRecord(
        label="TA/HASH/8/4", variant="ETA", l_lt=8, k=4, n_candidates=4, d=4,
        m=8, n_rounds=2, auc=0.5, n_requests=5, warmup=1,
        mean_us=10.0, p50_us=9.0, p95_us=12.0,
        retrieval_mean_us=float("nan"), attention_mean_us=float("nan"),
    )
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv(csv_path, [rec])
    write_report_json(json_path, [rec])
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 1
    assert rows[0]["label"] == "TA/HASH/8/4"
    assert float(rows[0]["mean_us"]) == 10.0
    payload = json.loads(json_path.read_text())
    assert payload["records"][0]["variant"] == "ETA"
    env = payload["environment"]
    assert {"platform", "python", "numpy", "single_threaded"} <= set(env)


def test_format_record_tells_swept_rows_apart():
    recs = [
        BenchRecord(
            label=variant_label(variant, 8, 4), variant=variant, l_lt=8, k=4,
            n_candidates=nc, d=4, m=m, n_rounds=2, auc=0.5, n_requests=5, warmup=1,
            mean_us=10.0, p50_us=9.0, p95_us=12.0,
            retrieval_mean_us=float("nan"), attention_mean_us=float("nan"),
        )
        for variant, m, nc in [("ETA", 4, 16), ("ETA", 64, 16), ("ETA", 4, 128),
                               ("FULL_TA", 4, 16), ("FULL_TA", 4, 128)]
    ]
    lines = [format_record(r) for r in recs]
    assert len(set(lines)) == len(lines)
    assert [" m=4 " in line for line in lines] == [True, False, True, False, False]
    assert all(f"candidates={r.n_candidates} " in line for r, line in zip(recs, lines))
    recs[0].error = "ValueError: boom"
    assert format_record(recs[0]).split() == ["TA/HASH/8/4", "m=4", "candidates=16", "ERROR",
                                              "ValueError:", "boom"]


def test_environment_note_contents():
    env = environment_note()
    assert env["numpy"] == np.__version__
    assert isinstance(env["single_threaded"], bool)
    threads = env["blas_threads"]
    assert threads in (None, 1)  # conftest.py pins BLAS for the suite
    assert env["single_threaded"] == (threads == 1)
