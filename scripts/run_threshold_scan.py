#!/usr/bin/env python3
"""Sweep a Monte Carlo success rate across an (n, p) grid.

Example:
    python3 scripts/run_threshold_scan.py \
        --mode avoider-success-rate --ell 4 \
        --n 50 100 200 --p "0.3*n^-5/4" "0.7*n^-5/4" \
        --trials 50 --seed 7 --out scan.csv
"""

import argparse
import sys
from pathlib import Path

from rainbowlab.emergence import SCAN_MODES, ScanConfig, scan_rows_to_csv, threshold_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=SCAN_MODES, required=True)
    parser.add_argument("--ell", type=int, required=True)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--p", nargs="+", required=True,
                        help='probabilities or "c*n^-a/b" expressions')
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the CSV (with timings zeroed) here")
    args = parser.parse_args()

    config = ScanConfig(
        ell=args.ell,
        n_values=tuple(args.n),
        p_specs=tuple(args.p),
        trials=args.trials,
        mode=args.mode,
        seed=args.seed,
    )
    rows = threshold_scan(config)
    sys.stdout.write(scan_rows_to_csv(rows, deterministic=False))
    if args.out:
        Path(args.out).write_text(scan_rows_to_csv(rows, deterministic=True))
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
