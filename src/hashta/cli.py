"""Command line entry points.

Subcommands: gen-data, train, eval, precompute, retrieve, bench-ablation,
bench-scaling.  Settings come from an INI-style config file (sections
[model], [data], [synthetic], [bench]; ``key = value`` lines, keys mirror
the dataclass fields) and individual flags override file values.  Errors
print a diagnostic to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import bench as B
from . import data as D
from . import model as M
from .errors import FormatError, NumericError
from .fingerprint import load_table, save_table


def _int_list(text: str):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc


def _read_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    return cp


_MODEL_KEYS = {
    "d": int, "l_st": int, "l_lt": int, "k": int, "n_heads": int, "m": int,
    "n_rounds": int, "variant": str, "use_time_buckets": bool,
    "mlp_widths": "int_list", "seed": int, "learning_rate": float, "l2": float,
    "batch_size": int, "epochs": int,
}

_SYNTH_KEYS = {
    "n_users": int, "n_items": int, "n_categories": int, "events_per_user": int,
    "interest_categories_per_user": int, "favorites_per_category": int,
    "noise_rate": float, "long_term_gap_days": int, "impression_window_days": int,
    "seed": int,
}


def _section_kwargs(cp, section, spec):
    out = {}
    if not cp.has_section(section):
        return out
    for key in cp[section]:
        if key not in spec:
            raise ValueError(f"unknown config key [{section}] {key}")
        conv = spec[key]
        if conv is bool:
            out[key] = cp.getboolean(section, key)
        elif conv == "int_list":
            out[key] = tuple(_int_list(cp.get(section, key)))
        else:
            out[key] = conv(cp.get(section, key))
    return out


def _model_config(cp, args) -> M.ModelConfig:
    kwargs = _section_kwargs(cp, "model", _MODEL_KEYS)
    for flag, field in (
        ("seed", "seed"), ("variant", "variant"), ("k", "k"),
        ("long_len", "l_lt"), ("bits", "m"), ("rounds", "n_rounds"),
        ("epochs", "epochs"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[field] = value
    return M.ModelConfig(**kwargs)


def _synthetic_spec(cp, seed_override=None) -> D.SyntheticSpec:
    kwargs = _section_kwargs(cp, "synthetic", _SYNTH_KEYS)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return D.SyntheticSpec(**kwargs)


def _negatives(cp, args) -> int:
    if getattr(args, "negatives", None) is not None:
        return args.negatives
    if cp.has_option("data", "negatives_per_positive"):
        return cp.getint("data", "negatives_per_positive")
    return 1


_BENCH_FLOORS = {"candidates": 1, "requests": 1, "warmup": 0}


def _bench_setting(cp, args, key, default):
    """A [bench] count, the flag first; a count below its floor cannot be timed."""
    value = getattr(args, key, None)
    if value is None:
        value = cp.getint("bench", key) if cp.has_option("bench", key) else default
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ValueError(f"{key} needs at least one value")
    if min(values) < _BENCH_FLOORS[key]:
        raise ValueError(f"{key} must be at least {_BENCH_FLOORS[key]}, got {min(values)}")
    return value


def _load_dataset(path, config: M.ModelConfig, negatives: int):
    log = D.load_behavior_log(path)
    if log.n_users == 0:
        raise ValueError(f"no usable events in {path}")
    config = replace(
        config, n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users
    )
    samples = D.build_samples(
        log.events_by_user, config.l_st, config.l_lt, negatives,
        D.build_category_index(log), config.seed,
    )
    return log, config, samples


def _log_stats(log: D.BehaviorLog) -> dict:
    return {
        "n_rows": log.n_rows, "n_malformed": log.n_malformed,
        "n_recategorized": log.n_recategorized,
    }


def _check_vocab(config: M.ModelConfig, log: D.BehaviorLog):
    if (config.n_items, config.n_categories, config.n_users) != (
        log.n_items, log.n_categories, log.n_users
    ):
        raise ValueError(
            f"data vocabulary ({log.n_items} items, {log.n_categories} categories,"
            f" {log.n_users} users) does not match checkpoint config"
            f" ({config.n_items}, {config.n_categories}, {config.n_users})"
        )


def _load_for_scoring(args, cp):
    """(params, config, log, samples, item_fps) for scoring a checkpoint on
    a log: the vocabularies must match, samples are built at the
    checkpoint's seed, and a --fingerprints table is verified against the
    weights and the log's item categories."""
    params, config = M.load_checkpoint(args.checkpoint)
    log = D.load_behavior_log(args.data)
    _check_vocab(config, log)
    samples = D.build_samples(
        log.events_by_user, config.l_st, config.l_lt, _negatives(cp, args),
        D.build_category_index(log), config.seed,
    )
    item_fps = None
    if args.fingerprints:
        item_fps = load_table(args.fingerprints)
        M.verify_item_fingerprints(item_fps, params, config, log.item_categories())
    return params, config, log, samples, item_fps


def _emit(payload: dict, out_path=None):
    text = json.dumps(payload, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_gen_data(args) -> int:
    cp = _read_config(args.config)
    spec = _synthetic_spec(cp, args.seed)
    events, interests = D.generate_synthetic(spec)
    D.write_behavior_log(args.out, events)
    with open(args.out + ".interests.json", "w", encoding="utf-8") as fh:
        json.dump({str(u): list(cs) for u, cs in interests.items()}, fh)
    print(
        json.dumps(
            {
                "out": args.out,
                "events": len(events),
                "users": spec.n_users,
                "items": spec.n_items,
                "categories": spec.n_categories,
            }
        )
    )
    return 0


def _print_epoch(row, cell: str = "") -> None:
    print(
        f"epoch {row['epoch']}: loss={row['train_loss']:.5f}"
        f" val_auc={row['val_auc']:.5f} ({row['seconds']:.1f}s)" + (f" {cell}" if cell else ""),
        file=sys.stderr,
    )


def cmd_train(args) -> int:
    cp = _read_config(args.config)
    config = _model_config(cp, args)
    log, config, samples = _load_dataset(args.data, config, _negatives(cp, args))
    if not samples.train:
        raise ValueError("no training samples after the chronological split")
    if not samples.val:
        print("warning: empty validation split, keeping final weights", file=sys.stderr)
    result = M.train(samples.train, samples.val, config, log=_print_epoch)
    M.save_checkpoint(args.out, result.params, config)
    D.save_id_maps(args.out + ".ids.json", log)
    with open(args.out + ".metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_auc", "seconds"])
        writer.writeheader()
        writer.writerows(result.metrics)
    test_auc = float("nan")
    if samples.test:
        test_auc = M.evaluate(samples.test, result.params, config).auc
    _emit(
        {
            "checkpoint": args.out,
            "variant": config.variant,
            "label": B.variant_label(config.variant, config.l_lt, config.k),
            "best_epoch": result.best_epoch,
            "val_auc": max((m["val_auc"] for m in result.metrics), default=float("nan")),
            "test_auc": test_auc,
            "train_samples": len(samples.train),
            "val_samples": len(samples.val),
            "test_samples": len(samples.test),
            "sample_stats": samples.stats,
            "log": _log_stats(log),
        }
    )
    return 0


def cmd_eval(args) -> int:
    params, config, log, samples, item_fps = _load_for_scoring(args, _read_config(args.config))
    if not samples.test:
        raise ValueError("empty test split")
    result = M.evaluate(samples.test, params, config, item_fps)
    _emit(
        {
            "checkpoint": args.checkpoint,
            "variant": config.variant,
            "label": B.variant_label(config.variant, config.l_lt, config.k),
            "test_auc": result.auc,
            "test_samples": int(result.labels.shape[0]),
            "fingerprints": args.fingerprints,
            "log": _log_stats(log),
        },
        args.out,
    )
    return 0


def cmd_precompute(args) -> int:
    params, config = M.load_checkpoint(args.checkpoint)
    log = D.load_behavior_log(args.data)
    _check_vocab(config, log)
    table = M.fingerprint_items(params, config, log.item_categories())
    save_table(args.out, table)
    print(
        json.dumps(
            {
                "out": args.out,
                "items": len(table),
                "rounds": table.rounds,
                "bits_per_round": table.bits_per_round,
                "log": _log_stats(log),
            }
        )
    )
    return 0


def cmd_retrieve(args) -> int:
    params, config, log, samples, item_fps = _load_for_scoring(args, _read_config(args.config))
    if args.k is not None:
        config = replace(config, k=args.k)
    pool = samples.test or samples.val or samples.train
    if not 0 <= args.sample < len(pool):
        raise ValueError(f"--sample {args.sample} outside [0, {len(pool)})")
    sample = pool[args.sample]
    top = M.long_selection(sample, params, config, item_fps)
    picked = sample.long_seq[top.indices]
    _emit(
        {
            "variant": config.variant,
            "k": config.k,
            "user_id": sample.user_id,
            "target_item": sample.target_item,
            "target_category": sample.target_category,
            "label": sample.label,
            "long_length": len(sample.long_seq),
            "n_valid": top.n_valid,
            "positions": top.indices.tolist(),
            "scores": np.asarray(top.scores).tolist(),
            "items": picked[:, 0].tolist(),
            "categories": picked[:, 1].tolist(),
            "log": _log_stats(log),
        }
    )
    return 0


def _print_records(records) -> None:
    for rec in records:
        print(B.format_record(rec))


def _warn_unpinned_blas() -> None:
    threads = B.blas_threads()
    if threads != 1:
        print(f"warning: blas_threads is {threads}, not 1, so timings are not single-threaded;"
              " set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1",
              file=sys.stderr)


def cmd_bench_ablation(args) -> int:
    cp = _read_config(args.config)
    base = _model_config(cp, args)
    n_candidates = _bench_setting(cp, args, "candidates", 128)
    n_requests = _bench_setting(cp, args, "requests", 1000)
    warmup = _bench_setting(cp, args, "warmup", 100)
    _warn_unpinned_blas()
    variants = [v.strip().upper() for v in args.variants.split(",") if v.strip()]
    lengths = args.long_lens or [base.l_lt]
    bits = args.bits_list or [base.m]
    if args.data:
        log = D.load_behavior_log(args.data)
    else:
        events, _ = D.generate_synthetic(_synthetic_spec(cp, args.seed))
        log = D.log_from_events(events)
    base = replace(
        base, n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users
    )
    records = []
    for l_lt in lengths:
        samples = D.build_samples(
            log.events_by_user, base.l_st, l_lt, _negatives(cp, args),
            D.build_category_index(log), base.seed,
        )
        # only ETA hashes, so only ETA is swept over widths
        cells = [
            {"variant": v, "l_lt": l_lt, "m": m}
            for v in variants
            for m in (bits if v == "ETA" else [base.m])
        ]
        records += B.run_ablation(base, cells, samples, n_candidates, n_requests, warmup,
                                  log=_print_epoch)
    B.write_report_csv(args.out + ".csv", records)
    B.write_report_json(args.out + ".json", records)
    _print_records(records)
    print(f"wrote {args.out}.csv and {args.out}.json", file=sys.stderr)
    return 0


def _latency_summary(comparison, scaling) -> dict:
    """Gate 10's numbers for one candidate count: the hash/full mean-latency
    ratio per length, the retrieval growth per length step and the
    first-vs-last attention spread."""
    full = {r.l_lt: r.mean_us for r in comparison if r.variant == "FULL_TA"}
    retr = [r.retrieval_mean_us for r in scaling]
    attn = [r.attention_mean_us for r in scaling]
    return {
        "hash_full_ratio": {
            str(r.l_lt): r.mean_us / full[r.l_lt] for r in comparison if r.variant == "ETA"
        },
        "retrieval_growth": [b / a for a, b in zip(retr, retr[1:])],
        "attention_spread": abs(attn[-1] - attn[0]) / min(attn[-1], attn[0]),
    }


def cmd_bench_scaling(args) -> int:
    cp = _read_config(args.config)
    base = _model_config(cp, args)
    spec = _synthetic_spec(cp, args.seed)
    base = replace(
        base,
        n_items=spec.n_items, n_categories=spec.n_categories, n_users=spec.n_users,
        variant="ETA",
    )
    n_candidates = _bench_setting(cp, args, "candidates", 128)
    n_requests = _bench_setting(cp, args, "requests", 300)
    warmup = _bench_setting(cp, args, "warmup", 50)
    _warn_unpinned_blas()
    candidates = n_candidates if isinstance(n_candidates, list) else [n_candidates]
    lengths = args.long_lens or [256, 512, 1024, 2048]
    sweep = B.run_scaling(base, lengths, candidates, n_requests, warmup)
    cells = [{"variant": v, "l_lt": l_lt} for l_lt in lengths for v in ("FULL_TA", "ETA")]
    records, summary = list(sweep), {}
    for nc in candidates:
        comparison = B.run_comparison(base, cells, nc, n_requests, warmup)
        records += comparison
        summary[str(nc)] = _latency_summary(
            comparison, [r for r in sweep if r.n_candidates == nc]
        )
    B.write_report_csv(args.out + ".csv", records)
    B.write_report_json(args.out + ".json", records, summary=summary)
    _print_records(records)
    for nc, s in summary.items():
        ratios = ", ".join(f"L={l_lt} {r:.3f}" for l_lt, r in s["hash_full_ratio"].items())
        print(
            f"candidates={nc}: hash/full mean latency {ratios};"
            f" retrieval growth per length step {[round(g, 3) for g in s['retrieval_growth']]};"
            f" attention spread first-vs-last {s['attention_spread']:.3f}"
        )
    print(f"wrote {args.out}.csv and {args.out}.json", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hashta",
        description="Hash-based target attention over long behavior sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, data=False):
        p.add_argument("--config", help="INI config file ([model]/[data]/[synthetic]/[bench])")
        if checkpoint:  # the checkpoint's config carries the seed
            p.add_argument("--checkpoint", required=True, help="model checkpoint path")
        else:
            p.add_argument("--seed", type=int, help="override the configured seed")
        if data:
            p.add_argument("--data", required=True, help="behavior log CSV")

    def model_flags(p):
        p.add_argument("--variant", choices=M.VARIANTS, help="long-window variant")
        p.add_argument("--k", type=int, help="retrieval size")
        p.add_argument("--long-len", dest="long_len", type=int, help="long window length")
        p.add_argument("--bits", type=int, help="hash bits per round")
        p.add_argument("--rounds", type=int, help="hash rounds")
        p.add_argument("--epochs", type=int, help="training epochs")

    p = sub.add_parser("gen-data", help="write a synthetic behavior log")
    common(p)
    p.add_argument("--out", default="synthetic.csv", help="output log path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p, data=True)
    model_flags(p)
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.add_argument("--negatives", type=int, help="negatives per positive")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="AUC of a checkpoint on the test split")
    common(p, checkpoint=True, data=True)
    p.add_argument("--fingerprints", help="precomputed ETAF fingerprint table")
    p.add_argument("--negatives", type=int, help="negatives per positive")
    p.add_argument("--out", help="also write the JSON summary here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("precompute", help="write the per-item fingerprint table")
    common(p, checkpoint=True, data=True)
    p.add_argument("--out", default="items.etaf", help="fingerprint table path")
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("retrieve", help="print the top-k retrieval for one sample")
    common(p, checkpoint=True, data=True)
    p.add_argument("--fingerprints", help="precomputed ETAF fingerprint table")
    p.add_argument("--negatives", type=int, help="negatives per positive")
    p.add_argument("--sample", type=int, default=0, help="sample index (test split)")
    p.add_argument("--k", type=int, help="override retrieval size")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("bench-ablation", help="AUC + latency over a variant grid")
    common(p)
    p.add_argument("--data", help="behavior log CSV (default: synthesize from config)")
    p.add_argument("--variant", dest="variants", default="ETA,FULL_TA",
                   help="comma-separated variants")
    p.add_argument("--long-len", dest="long_lens", type=_int_list,
                   help="comma-separated long window lengths")
    p.add_argument("--bits", dest="bits_list", type=_int_list,
                   help="comma-separated hash widths")
    p.add_argument("--k", type=int, help="retrieval size")
    p.add_argument("--rounds", type=int, help="hash rounds")
    p.add_argument("--epochs", type=int, help="training epochs per cell")
    p.add_argument("--negatives", type=int, help="negatives per positive")
    p.add_argument("--candidates", type=int, help="candidates per request")
    p.add_argument("--requests", type=int, help="timed requests per cell")
    p.add_argument("--warmup", type=int, help="warm-up requests per cell")
    p.add_argument("--out", default="bench_ablation", help="report path prefix")
    p.set_defaults(func=cmd_bench_ablation)

    p = sub.add_parser("bench-scaling", help="stage latency across long-window lengths")
    common(p)
    p.add_argument("--long-len", dest="long_lens", type=_int_list,
                   help="comma-separated long window lengths")
    p.add_argument("--k", type=int, help="retrieval size")
    p.add_argument("--bits", type=int, help="hash bits per round")
    p.add_argument("--rounds", type=int, help="hash rounds")
    p.add_argument("--candidates", type=_int_list,
                   help="comma-separated candidate counts per request")
    p.add_argument("--requests", type=int, help="timed requests per length")
    p.add_argument("--warmup", type=int, help="warm-up requests per length")
    p.add_argument("--out", default="bench_scaling", help="report path prefix")
    p.set_defaults(func=cmd_bench_scaling)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FormatError, NumericError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
