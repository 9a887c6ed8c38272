"""The benchmark's own output checks, at tiny sizes, on every workload.

The benchmark serves weights loaded from a checkpoint, so these runs score
through the float32 path and check it against per-sample ``forward`` (to
1e-6) and table-backed retrieval against live hashing (bit for bit).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hashta import data as D
from hashta import model as M

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_output_checks_pass(workload):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "5", "--seconds", "1", "--tiny",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True, out.stdout + out.stderr
    assert result["failed"] == 0, out.stdout + out.stderr


def import_spans():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return spans


def test_serving_hooks_resolve_and_only_retired_training_names_are_absent():
    # the traced run wraps names hashta.model looks up at call time; a
    # serving stage or training step that stopped resolving would silently
    # read 0 per layer (model.adam_step_us, model.loss_grad_us, ...)
    spans = import_spans()
    hooks = spans.Hooks(spans.Tracer())
    retired = {f"hashta.model.{name}" for name in
               ("mhta_with_cache", "mhta_backward", "top_k_by_hamming", "simhash")}
    assert set(hooks.absent) == retired
    required = ("prepare_request", "candidate_embeddings", "retrieval_stage", "attention_stage",
                "finish_stage", "fingerprint_batch", "hamming_top_k_batch",
                "loss_and_gradients", "adam_step", "evaluate")
    hooked = {attr for _, attr, _, _ in spans._HOOKS}
    assert set(required) <= hooked


def test_traced_eta_request_counts_its_hamming_top_k():
    # the benchmark's retrieval.* metrics are counts its hook reads from
    # hamming_top_k_batch's arguments; a call the hook cannot read is
    # timed as "uncounted", and those metrics would silently read 0
    spans = import_spans()
    config = M.ModelConfig(d=4, l_st=2, l_lt=6, k=3, n_heads=2, m=8, n_rounds=2, variant="ETA",
                           mlp_widths=(4,), n_items=10, n_categories=3, n_users=2, epochs=0)
    params = M.init_params(config)
    window = np.array([[item, 1 + item % 3, 1000 + item] for item in range(1, 7)])
    window[2] = 0  # one padding row
    request = M.Request(1, 1, 2000, window[-2:], window)
    tracer = spans.Tracer()
    tracer.phase = "serve"
    with spans.Hooks(tracer):
        M.predict_request(request, [(1, 2), (4, 2)], params, config)
    counts = tracer.summary()[("serve", "retrieval.hamming_top_k_batch")]
    assert counts["calls"] == 1
    assert "uncounted" not in counts
    assert (counts["keys_scanned"], counts["kept"], counts["valid"]) == (2 * 6, 2 * 3, 2 * 5)


@pytest.mark.parametrize("variant", ["ETA", "FULL_TA"])
def test_traced_attention_stage_is_counted_in_serving_and_training(variant):
    # attention.keys_attended is read from attention_stage's arguments (the
    # selection, or the state's long-window mask); training runs the same
    # stage over per-target windows and opens train-phase spans of it
    spans = import_spans()
    config = M.ModelConfig(d=4, l_st=2, l_lt=6, k=3, n_heads=2, m=8, n_rounds=2, variant=variant,
                           mlp_widths=(4,), n_items=10, n_categories=3, n_users=2, epochs=0)
    params = M.init_params(config)
    window = np.array([[item, 1 + item % 3, 1000 + item] for item in range(1, 7)])
    window[2] = 0  # one padding row
    request = M.Request(1, 1, 2000, window[-2:], window)
    sample = D.Sample(1, 4, 2, 1, 2000, 1, window[-2:], window)
    tracer = spans.Tracer()
    with spans.Hooks(tracer):
        tracer.phase = "serve"
        M.predict_request(request, [(1, 2), (4, 2)], params, config)
        tracer.phase = "train"
        M.loss_and_gradients([sample, sample], params, config)
    summary = tracer.summary()
    serve = summary[("serve", "model.attention_stage")]
    assert "uncounted" not in serve
    per_candidate = {"ETA": 3, "FULL_TA": 5}[variant]  # k, or the window's valid rows
    assert (serve["calls"], serve["candidates"], serve["keys_attended"]) == (1, 2, 2 * per_candidate)
    train = summary[("train", "model.attention_stage")]
    assert "uncounted" not in train
    assert (train["calls"], train["candidates"]) == (1, 2)
