#!/usr/bin/env python3
"""Measure per-stage scoring latency across long-window lengths.

Times the Hamming-retrieval stage, the restricted-attention stage, and the
whole scoring call for hash-retrieved target attention at several window
lengths (and optionally several candidate counts), using the interleaved
rotating-lead protocol from hashta.bench so cells stay comparable.  Prints
the growth ratio of the retrieval stage between consecutive lengths — the
stage should grow roughly linearly in the window — and the spread of the
attention stage, which should stay flat for a fixed retrieval size.
"""

import os

# BLAS reads these once, when numpy first loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

from hashta.bench import format_record, run_scaling, write_report_csv, write_report_json  # noqa: E402
from hashta.model import ModelConfig  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lengths", type=int, nargs="*", default=[256, 512, 1024, 2048])
    ap.add_argument("--candidates", type=int, nargs="*", default=[128])
    ap.add_argument("--d", type=int, default=32, help="embedding dim")
    ap.add_argument("--k", type=int, default=48, help="retrieval size")
    ap.add_argument("--bits", type=int, default=32, help="hash bits per round")
    ap.add_argument("--rounds", type=int, default=2, help="hash rounds")
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--warmup", type=int, default=100)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out", default="reports/scaling",
                    help="report path prefix (.csv/.json appended)")
    args = ap.parse_args(argv)

    base = ModelConfig(
        variant="ETA", d=args.d, l_st=16, l_lt=args.lengths[0], k=args.k,
        n_heads=2, m=args.bits, n_rounds=args.rounds, seed=args.seed,
        n_items=5_000, n_categories=100, n_users=200, epochs=0,
    )
    records = run_scaling(
        base, args.lengths, args.candidates, args.requests, args.warmup
    )

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(args.out + ".csv", records)
    write_report_json(args.out + ".json", records)
    for rec in records:
        print(format_record(rec))
    for nc in args.candidates:
        sub = [r for r in records if r.n_candidates == nc]
        if len(sub) < 2:
            continue
        retr = [r.retrieval_mean_us for r in sub]
        attn = [r.attention_mean_us for r in sub]
        steps = [round(b / a, 3) for a, b in zip(retr, retr[1:])]
        spread = abs(attn[-1] - attn[0]) / min(attn[-1], attn[0])
        print(
            f"candidates={nc}: retrieval growth per length step {steps}, "
            f"attention spread first-vs-last {spread:.3f}"
        )
    print(f"wrote {args.out}.csv and {args.out}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
