#!/usr/bin/env python3
"""Print the invariant table of every bundle manifold up to a weight bound.

Usage: python scripts/bundle_table.py [MAX_GENUS]

One TSV row per (d, k, g, e): both degeneracy routes, nullity, and the
pairing rank, so a glance shows the closed forms tracking the exact
linear algebra across the whole grid.
"""

import sys

from geographer.bundle_manifold import construct
from geographer.verify import bundle_grid


def main() -> int:
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print("d\tk\tg\te\tb1\trank_Q\tdegeneracy\tnullity\tkappa")
    for spec in bundle_grid(bound):
        cert = construct(spec)
        rank_q = cert.b1 - cert.degeneracy  # the degeneracy is the rank defect of Q
        print(
            f"{spec.d}\t{spec.k}\t{spec.g}\t{spec.e}\t{cert.b1}"
            f"\t{rank_q}\t{cert.degeneracy}\t{cert.nullity}\t{cert.kappa}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
