#!/usr/bin/env python3
"""Print the order of phi across truncations, with cohomology bookkeeping.

Example:
    python3 scripts/order_table.py --n-max 7 --N-max 4
"""

import argparse

from qkring.cohomology import consistency_report
from qkring.truncation import corollary2_table, pow2_str


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--N-max", type=int, default=3)
    args = parser.parse_args()

    cells = corollary2_table(args.n_max, args.N_max)
    print("order(phi) in R(Q_{4k}) / phi^(N+2) R(Q_{4k}),  expected 2^(n+2N)\n")
    print("n\\N " + "".join(f"{N:>8}" for N in range(args.N_max + 1)))
    for n in range(3, args.n_max + 1):
        row = [c for c in cells if c.n == n]
        print(f"{n:<4}" + "".join(f"{pow2_str(c.order):>8}" for c in row))
    mismatches = [c for c in cells if not c.match]
    print(f"\n{len(cells)} cells, {len(mismatches)} mismatches")

    print("\ntorsion of the quotient vs cohomology products (informational):")
    for n in range(3, args.n_max + 1):
        for N in range(min(args.N_max, 2) + 1):
            r = consistency_report(n, N)
            print(f"  n={n} N={N}: torsion {r.torsion}, "
                  f"product through degree {4 * N + 2}: {r.predicted}, "
                  f"one level up: {r.predicted_next}"
                  f"{'  <- matches next level' if r.torsion_matches_next else ''}")


if __name__ == "__main__":
    main()
