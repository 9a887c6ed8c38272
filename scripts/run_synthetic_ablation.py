#!/usr/bin/env python3
"""Train the synthetic long-term-interest grid and report AUC plus latency.

Generates a seeded behavior log in which every user returns to a few
favorite items from their interest categories after a multi-week gap, so
clicks are only separable from impression noise by pulling the right rows
out of the long window.  Trains average pooling, unrestricted target
attention, and hash-retrieved target attention at several hash widths,
then times the scoring path of each.  Writes the usual CSV/JSON reports.

Takes roughly five minutes at the defaults on one desktop core.
"""

import os

# BLAS reads these once, when numpy first loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

from hashta.bench import format_record, run_ablation, write_report_csv, write_report_json  # noqa: E402
from hashta.data import (  # noqa: E402
    SyntheticSpec,
    build_category_index,
    build_samples,
    generate_synthetic,
    log_from_events,
)
from hashta.model import ModelConfig  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--bits", type=int, nargs="*", default=[4, 16, 32, 64],
                    help="hash widths for the sweep (embedding dim is 16)")
    ap.add_argument("--negatives", type=int, default=3,
                    help="sampled negatives per positive")
    ap.add_argument("--candidates", type=int, default=128)
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--warmup", type=int, default=100)
    ap.add_argument("--out", default="reports/synthetic_ablation",
                    help="report path prefix (.csv/.json appended)")
    args = ap.parse_args(argv)

    spec = SyntheticSpec(
        n_users=2_000, n_items=10_000, n_categories=100, events_per_user=400,
        interest_categories_per_user=4, favorites_per_category=1,
        noise_rate=0.2, long_term_gap_days=14, impression_window_days=30,
        seed=args.seed,
    )
    print("generating the synthetic behavior log ...", flush=True)
    events, _ = generate_synthetic(spec)
    log = log_from_events(events)
    base = ModelConfig(
        d=16, l_st=16, l_lt=256, k=16, n_heads=2, m=32, n_rounds=2,
        variant="ETA", seed=args.seed, learning_rate=5e-3, l2=1e-4,
        batch_size=128, epochs=args.epochs,
        n_items=log.n_items, n_categories=log.n_categories, n_users=log.n_users,
    )
    samples = build_samples(
        log.events_by_user, base.l_st, base.l_lt, args.negatives,
        build_category_index(log), args.seed,
    )
    print(
        f"{len(samples.train)} train / {len(samples.val)} val / "
        f"{len(samples.test)} test samples",
        flush=True,
    )

    cells = [{"variant": "POOLING"}, {"variant": "FULL_TA"}]
    cells += [{"variant": "ETA", "m": m} for m in args.bits]

    def progress(row):
        print(
            f"  epoch {row['epoch']}: loss={row['train_loss']:.5f}"
            f" val_auc={row['val_auc']:.5f} ({row['seconds']:.1f}s)",
            flush=True,
        )

    records = run_ablation(
        base, cells, samples, args.candidates, args.requests, args.warmup,
        log=progress,
    )

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(args.out + ".csv", records)
    write_report_json(args.out + ".json", records)
    print()
    for rec in records:
        print(format_record(rec))
    print(f"wrote {args.out}.csv and {args.out}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
