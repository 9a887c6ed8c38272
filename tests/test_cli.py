import csv
import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from hashta.cli import _model_config, _negatives, _read_config, _synthetic_spec, build_parser, main
from hashta.data import SyntheticSpec, load_behavior_log
from hashta.fingerprint import load_table
from hashta.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]

CONFIG_TEXT = """
[model]
d = 4
l_st = 3
l_lt = 8
k = 4
n_heads = 2
m = 8
n_rounds = 2
variant = ETA
mlp_widths = 8
epochs = 2
learning_rate = 0.01
batch_size = 16
seed = 5

[data]
negatives_per_positive = 1

[synthetic]
n_users = 40
n_items = 60
n_categories = 6
events_per_user = 30
interest_categories_per_user = 2
favorites_per_category = 2
noise_rate = 0.2
long_term_gap_days = 14
impression_window_days = 30
seed = 1

[bench]
requests = 4
warmup = 1
candidates = 4
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synthetic log + trained checkpoint shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "hashta.ini"
    config.write_text(CONFIG_TEXT)
    log = root / "log.csv"
    ckpt = root / "model.htac"
    assert main(["gen-data", "--config", str(config), "--out", str(log)]) == 0
    assert main([
        "train", "--config", str(config), "--data", str(log), "--out", str(ckpt),
    ]) == 0
    return {"root": root, "config": config, "log": log, "ckpt": ckpt}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gen_data_outputs(workdir, capsys):
    log = workdir["log"]
    assert log.exists()
    assert (workdir["root"] / "log.csv.interests.json").exists()
    lines = log.read_text().splitlines()
    assert len(lines) == 40 * 30
    assert all(len(line.split(",")) == 5 for line in lines[:20])
    # regeneration with the same config is byte-identical
    again = workdir["root"] / "again.csv"
    main(["gen-data", "--config", str(workdir["config"]), "--out", str(again)])
    capsys.readouterr()
    assert again.read_bytes() == log.read_bytes()


def test_train_artifacts(workdir):
    root, ckpt = workdir["root"], workdir["ckpt"]
    assert ckpt.exists()
    assert (root / "model.htac.ids.json").exists()
    rows = list(csv.DictReader(open(root / "model.htac.metrics.csv")))
    assert len(rows) == 2
    assert {"epoch", "train_loss", "val_auc", "seconds"} <= set(rows[0])
    ids = json.loads((root / "model.htac.ids.json").read_text())
    assert set(ids) == {"users", "items", "categories", "item_category"}


def test_eval_matches_train_and_writes_report(workdir, capsys):
    out = workdir["root"] / "eval.json"
    code, payload = run_json(capsys, [
        "eval", "--config", str(workdir["config"]),
        "--checkpoint", str(workdir["ckpt"]), "--data", str(workdir["log"]),
        "--out", str(out),
    ])
    assert code == 0
    assert payload["variant"] == "ETA"
    assert payload["label"].startswith("TA/HASH/8/")
    assert 0.0 <= payload["test_auc"] <= 1.0
    assert json.loads(out.read_text())["test_auc"] == payload["test_auc"]
    assert payload["log"] == {"n_rows": 40 * 30, "n_malformed": 0, "n_recategorized": 0}


def test_precompute_then_eval_is_identical(workdir, capsys):
    table_path = workdir["root"] / "items.etaf"
    code = main([
        "precompute", "--checkpoint", str(workdir["ckpt"]),
        "--data", str(workdir["log"]), "--out", str(table_path),
    ])
    capsys.readouterr()
    assert code == 0
    table = load_table(table_path)
    assert table.bits_per_round == 8 and table.rounds == 2

    base_args = [
        "eval", "--config", str(workdir["config"]),
        "--checkpoint", str(workdir["ckpt"]), "--data", str(workdir["log"]),
    ]
    _, plain = run_json(capsys, base_args)
    _, with_table = run_json(capsys, base_args + ["--fingerprints", str(table_path)])
    assert with_table["test_auc"] == plain["test_auc"]


def test_retrieve_prints_selection(workdir, capsys):
    code, payload = run_json(capsys, [
        "retrieve", "--config", str(workdir["config"]),
        "--checkpoint", str(workdir["ckpt"]), "--data", str(workdir["log"]),
        "--sample", "0", "--k", "2",
    ])
    assert code == 0
    assert payload["k"] == 2
    assert len(payload["positions"]) <= 2
    assert len(payload["items"]) == len(payload["positions"])
    assert all(0 <= p < payload["long_length"] for p in payload["positions"])
    assert payload["n_valid"] <= payload["long_length"]


def test_retrieve_reports_the_picked_rows_of_the_log(workdir, capsys):
    code, payload = run_json(capsys, [
        "retrieve", "--config", str(workdir["config"]),
        "--checkpoint", str(workdir["ckpt"]), "--data", str(workdir["log"]),
        "--sample", "1", "--k", "3",
    ])
    assert code == 0
    assert all(type(v) is int for v in payload["items"] + payload["categories"])
    # the sample's long window: the last l_lt events before the user's last one
    events = load_behavior_log(workdir["log"]).events_by_user[payload["user_id"]]
    window = [e for e in events[:-1] if e.timestamp < events[-1].timestamp][-8:]
    assert payload["long_length"] == len(window)
    assert payload["items"] == [window[p].item_id for p in payload["positions"]]
    assert payload["categories"] == [window[p].category_id for p in payload["positions"]]
    assert len(payload["positions"]) == 3


def test_retrieve_rejects_bad_sample_index(workdir, capsys):
    code = main([
        "retrieve", "--config", str(workdir["config"]),
        "--checkpoint", str(workdir["ckpt"]), "--data", str(workdir["log"]),
        "--sample", "99999",
    ])
    assert code == 1
    assert "outside" in capsys.readouterr().err


def test_flag_overrides_config(workdir, capsys):
    ckpt = workdir["root"] / "override.htac"
    code, payload = run_json(capsys, [
        "train", "--config", str(workdir["config"]), "--data", str(workdir["log"]),
        "--out", str(ckpt), "--variant", "POOLING", "--epochs", "1",
    ])
    assert code == 0
    assert payload["variant"] == "POOLING"
    assert payload["label"].startswith("AVG/-/")
    rows = list(csv.DictReader(open(str(ckpt) + ".metrics.csv")))
    assert len(rows) == 1  # --epochs beat the config file's 2


def test_eval_rejects_mismatched_data(workdir, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("1,1,1,pv,100\n1,2,1,pv,200\n")
    code = main([
        "eval", "--checkpoint", str(workdir["ckpt"]), "--data", str(other),
    ])
    assert code == 1
    assert "vocabulary" in capsys.readouterr().err


def test_fingerprints_refused_on_recategorized_rows(workdir, tmp_path, capsys):
    # move the last row of a repeated item to another known category: the
    # vocabulary still matches the checkpoint, and one row is re-categorised
    lines = workdir["log"].read_text().splitlines()
    rows = [line.split(",") for line in lines]
    counts = Counter(row[1] for row in rows)
    last = max(n for n, row in enumerate(rows) if counts[row[1]] > 1)
    rows[last][2] = next(row[2] for row in rows if row[2] != rows[last][2])
    log = tmp_path / "recategorized.csv"
    log.write_text("\n".join(",".join(row) for row in rows) + "\n")
    table = tmp_path / "items.etaf"
    assert main([
        "precompute", "--checkpoint", str(workdir["ckpt"]),
        "--data", str(workdir["log"]), "--out", str(table),
    ]) == 0
    capsys.readouterr()
    common = ["--config", str(workdir["config"]), "--checkpoint", str(workdir["ckpt"]),
              "--data", str(log)]
    for command in ("eval", "retrieve"):
        assert main([command, *common, "--fingerprints", str(table)]) == 1
        err = capsys.readouterr().err
        assert "1 rows of the log list an item under a category other than its first-seen" in err
        assert "table scoring would not match live hashing" in err
    # precompute refuses the log too, rather than write a table eval and retrieve refuse
    refused = tmp_path / "refused.etaf"
    assert main(["precompute", "--checkpoint", str(workdir["ckpt"]), "--data", str(log),
                 "--out", str(refused)]) == 1
    assert "table scoring would not match live hashing" in capsys.readouterr().err
    assert not refused.exists()
    code, payload = run_json(capsys, ["eval", *common])
    assert code == 0
    assert payload["log"]["n_recategorized"] == 1


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nwat = 1\n")
    code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 0  # gen-data does not read [model]
    code = main([
        "train", "--config", str(bad), "--data", str(tmp_path / "x.csv"),
        "--out", str(tmp_path / "m.htac"),
    ])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_removed_hash_projected_key_is_an_unknown_config_key(workdir, tmp_path, capsys):
    old = tmp_path / "old.ini"
    old.write_text(CONFIG_TEXT.replace("variant = ETA\n", "variant = ETA\nhash_projected = false\n"))
    code = main([
        "train", "--config", str(old), "--data", str(workdir["log"]),
        "--out", str(tmp_path / "m.htac"),
    ])
    assert code == 1
    assert "unknown config key [model] hash_projected" in capsys.readouterr().err


def test_missing_file_fails_cleanly(capsys):
    code = main(["eval", "--checkpoint", "/no/such/file", "--data", "/none.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "precompute", "retrieve"])
def test_checkpoint_commands_reject_seed(command, capsys):
    # their seed comes from the checkpoint, so a --seed flag would be ignored
    with pytest.raises(SystemExit) as exc:
        main([command, "--checkpoint", "m.htac", "--data", "log.csv", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_bench_ablation_tiny(workdir, capsys, monkeypatch):
    monkeypatch.setattr("hashta.bench.blas_threads", lambda: 1)
    out = workdir["root"] / "abl"
    code = main([
        "bench-ablation", "--config", str(workdir["config"]),
        "--variant", "POOLING,ETA", "--long-len", "8", "--epochs", "0",
        "--out", str(out),
    ])
    err = capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(open(str(out) + ".csv")))
    assert [r["variant"] for r in rows] == ["POOLING", "ETA"]
    assert all(r["error"] == "" for r in rows)
    payload = json.loads((workdir["root"] / "abl.json").read_text())
    assert len(payload["records"]) == 2
    assert "AVG/-/8/-" in err.out
    assert "blas_threads" not in err.err


def test_bench_ablation_sweeps_widths_on_eta_only(workdir, capsys, monkeypatch):
    monkeypatch.setattr("hashta.bench.blas_threads", lambda: 1)
    out = workdir["root"] / "widths"
    code = main([
        "bench-ablation", "--config", str(workdir["config"]),
        "--variant", "POOLING,ETA", "--bits", "4,8", "--epochs", "1",
        "--out", str(out),
    ])
    printed = capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(open(str(out) + ".csv")))
    assert [(r["variant"], r["m"]) for r in rows] == [("POOLING", "8"), ("ETA", "4"), ("ETA", "8")]
    assert all(r["error"] == "" for r in rows)
    # every cell trains one epoch and reports it as train does
    epochs = re.findall(r"^epoch 0: loss=.*$", printed.err, re.MULTILINE)
    assert len(epochs) == 3
    # each names its cell as the report lines do
    assert [line.split(") ", 1)[1] for line in epochs] == [
        "AVG/-/8/-", "TA/HASH/8/4 m=4", "TA/HASH/8/4 m=8"]
    lines = printed.out.splitlines()
    assert len(lines) == 3 and len(set(lines)) == 3
    assert [" m=4 " in lines[1], " m=8 " in lines[2], " m=" in lines[0]] == [True, True, False]
    assert all("candidates=4 " in line for line in lines)


def test_bench_scaling_tiny(workdir, capsys, monkeypatch):
    monkeypatch.setattr("hashta.bench.blas_threads", lambda: 2)
    out = workdir["root"] / "scal"
    code = main([
        "bench-scaling", "--config", str(workdir["config"]),
        "--long-len", "4,8", "--out", str(out),
    ])
    printed = capsys.readouterr()
    assert code == 0
    assert "warning: blas_threads is 2" in printed.err
    rows = list(csv.DictReader(open(str(out) + ".csv")))
    swept = [r for r in rows if r["stage_inner"] != "0"]
    compared = [r for r in rows if r["stage_inner"] == "0"]
    assert [(r["variant"], int(r["l_lt"])) for r in swept] == [("ETA", 4), ("ETA", 8)]
    assert all(float(r["retrieval_mean_us"]) > 0 for r in swept)
    assert [(r["variant"], int(r["l_lt"])) for r in compared] == [
        ("FULL_TA", 4), ("ETA", 4), ("FULL_TA", 8), ("ETA", 8)
    ]
    assert all(float(r["mean_us"]) > 0 for r in compared)
    summary = json.loads((workdir["root"] / "scal.json").read_text())["summary"]
    assert list(summary) == ["4"]  # the config's candidate count
    got = summary["4"]
    mean = {(r["variant"], r["l_lt"]): float(r["mean_us"]) for r in compared}
    assert got["hash_full_ratio"] == pytest.approx(
        {n: mean[("ETA", n)] / mean[("FULL_TA", n)] for n in ("4", "8")}
    )
    retr = [float(r["retrieval_mean_us"]) for r in swept]
    attn = [float(r["attention_mean_us"]) for r in swept]
    assert got["retrieval_growth"] == pytest.approx([retr[1] / retr[0]])
    assert got["attention_spread"] == pytest.approx(abs(attn[1] - attn[0]) / min(attn))
    assert "candidates=4: hash/full mean latency L=4 " in printed.out


BAD_COUNTS = [("requests", "0"), ("warmup", "-1"), ("candidates", "0")]


@pytest.mark.parametrize("command", ["bench-ablation", "bench-scaling"])
@pytest.mark.parametrize("key,value", BAD_COUNTS)
@pytest.mark.parametrize("where", ["flag", "config"])
def test_bench_refuses_counts_that_cannot_be_timed(
        command, key, value, where, workdir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("hashta.bench.blas_threads", lambda: 1)
    monkeypatch.setattr("hashta.bench.run_ablation", pytest.fail)
    monkeypatch.setattr("hashta.bench.run_scaling", pytest.fail)
    config = tmp_path / "bad.ini"
    argv = [command, "--config", str(config), "--out", str(tmp_path / "report")]
    if where == "flag":
        config.write_text(CONFIG_TEXT)
        argv += [f"--{key}", value]
    else:
        config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", CONFIG_TEXT, flags=re.M))
    assert main(argv) == 1
    printed = capsys.readouterr()
    floor = 0 if key == "warmup" else 1
    assert printed.err.splitlines() == [f"error: {key} must be at least {floor}, got {value}"]
    assert printed.out == ""
    assert not (tmp_path / "report.csv").exists()


def _readme_commands():
    """Every `hashta ...` line of README's sh blocks, continuation lines
    joined and leading VAR=value assignments and comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*=.*", words[0]):
                words.pop(0)
            if words and words[0] == "hashta":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README command does not parse: hashta {shlex.join(words)}")
    documented = {words[0] for words in commands}
    assert documented == {"gen-data", "train", "precompute", "eval", "retrieve",
                          "bench-ablation", "bench-scaling"}
    configs = {words[2] for words in commands if words[1:2] == ["--config"]}
    assert configs == {"configs/example.ini", "configs/ablation.ini", "configs/scaling.ini"}
    assert all((ROOT / path).exists() for path in configs)


def test_ablation_ini_matches_the_quality_gates_fixture():
    # the literal settings of the interest_experiment fixture in test_acceptance.py
    spec = SyntheticSpec(
        n_users=2_000, n_items=10_000, n_categories=100, events_per_user=400,
        interest_categories_per_user=4, favorites_per_category=1,
        noise_rate=0.2, long_term_gap_days=14, impression_window_days=30,
        seed=11,
    )
    base = ModelConfig(
        d=16, l_st=16, l_lt=256, k=16, n_heads=2, m=32, n_rounds=2,
        variant="ETA", seed=11, learning_rate=5e-3, l2=1e-4,
        batch_size=128, epochs=12,
    )  # the fixture's vocabulary sizes come from the log, as bench-ablation's do
    path = ROOT / "configs" / "ablation.ini"
    args = build_parser().parse_args(["bench-ablation", "--config", str(path)])
    cp = _read_config(path)
    assert asdict(_synthetic_spec(cp, args.seed)) == asdict(spec)
    assert asdict(_model_config(cp, args)) == asdict(base)
    assert _negatives(cp, args) == 3


def test_scaling_ini_matches_the_latency_gate():
    # gate 10's literal config in test_acceptance.py
    gate = ModelConfig(
        variant="ETA", d=32, l_st=16, l_lt=1024, k=48, n_heads=2,
        m=32, n_rounds=2, seed=5, n_items=5_000, n_categories=100,
        n_users=200, epochs=0,
    )
    path = ROOT / "configs" / "scaling.ini"
    args = build_parser().parse_args(["bench-scaling", "--config", str(path)])
    cp = _read_config(path)
    spec = _synthetic_spec(cp, args.seed)
    got = _model_config(cp, args)
    vocab = {"n_items": spec.n_items, "n_categories": spec.n_categories, "n_users": spec.n_users}
    assert asdict(got) | vocab == asdict(gate)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hashta", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "bench-scaling" in proc.stdout
