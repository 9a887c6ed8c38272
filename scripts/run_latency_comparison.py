#!/usr/bin/env python3
"""Head-to-head scoring latency: hash-retrieved vs unrestricted attention.

Scores the same simulated request stream through both models inside one
interleaved loop (alternating which goes first, see hashta.bench), so the
reported ratio is insensitive to slow host drift.  Weights are untrained;
latency does not depend on their values.
"""

import os

# BLAS reads these once, when numpy first loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

from hashta.bench import format_record, run_comparison  # noqa: E402
from hashta.model import ModelConfig  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--long-len", type=int, default=1024)
    ap.add_argument("--k", type=int, default=48, help="retrieval size")
    ap.add_argument("--d", type=int, default=32, help="embedding dim")
    ap.add_argument("--bits", type=int, default=32, help="hash bits per round")
    ap.add_argument("--rounds", type=int, default=2, help="hash rounds")
    ap.add_argument("--candidates", type=int, default=128)
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--warmup", type=int, default=100)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)

    base = ModelConfig(
        variant="ETA", d=args.d, l_st=16, l_lt=args.long_len, k=args.k,
        n_heads=2, m=args.bits, n_rounds=args.rounds, seed=args.seed,
        n_items=5_000, n_categories=100, n_users=200, epochs=0,
    )
    full, eta = run_comparison(
        base, [{"variant": "FULL_TA"}, {"variant": "ETA"}],
        args.candidates, args.requests, args.warmup,
    )
    print(format_record(full))
    print(format_record(eta))
    print(f"mean latency ratio (hash / full): {eta.mean_us / full.mean_us:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
