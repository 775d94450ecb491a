#!/usr/bin/env python3
"""Generate a random corpus of K4-tiled graphs and tabulate how the
deficiency value relates to the certificate kind the colourer produces.
The table counts every graph of the corpus; a graph that repeats an
earlier one is coloured only once.

Example:
    python3 scripts/analyze_tiled_corpus.py --size 2000 --seed 11
"""

import argparse
import sys
from collections import Counter

from rainbowlab.tiled_k8 import PHI_CEILING, colour_tiled, corpus_graph, phi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.size < 1:
        parser.error(f"--size must be at least 1, got {args.size}")

    table: Counter = Counter()
    attempts = 0
    cells = {}  # graph -> its (phi, certificate kind): a repeated graph is coloured once
    for index in range(args.size):
        g, draws = corpus_graph(args.seed, index)
        attempts += draws
        if g not in cells:
            cells[g] = (phi(g), colour_tiled(g)[1].kind)
        table[cells[g]] += 1

    kinds = ("no-rainbow", "triangle", "matching")
    print(f"{'phi':>4} " + "".join(f"{k:>12}" for k in kinds) + f"{'total':>8}")
    for f in range(PHI_CEILING + 1):
        row = [table.get((f, k), 0) for k in kinds]
        print(f"{f:>4} " + "".join(f"{c:>12}" for c in row) + f"{sum(row):>8}")
    totals = [sum(table.get((f, k), 0) for f in range(PHI_CEILING + 1)) for k in kinds]
    print(f"{'all':>4} " + "".join(f"{c:>12}" for c in totals) + f"{sum(totals):>8}")
    print(f"\n{attempts} draws for {args.size} graphs "
          f"({attempts / args.size:.2f} per kept graph)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
