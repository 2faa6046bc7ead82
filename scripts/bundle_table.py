#!/usr/bin/env python3
"""Print the invariant table of every bundle manifold up to a weight bound.

Usage: python scripts/bundle_table.py [MAX_GENUS]

One TSV row per (d, k, g, e): both degeneracy routes, nullity, and the
pairing rank, so a glance shows the closed forms tracking the exact
linear algebra across the whole grid.
"""

import sys

from geographer.bundle_manifold import BundleManifoldSpec, audit_bundle, construct
from geographer.circle_bundle import valid_tags


def main() -> int:
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print("d\tk\tg\te\tb1\trank_Q\tdegeneracy\tnullity\tkappa")
    for g in range(1, bound + 1):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                for tag in valid_tags(d, k):
                    spec = BundleManifoldSpec(d, k, g, tag)
                    cert = construct(spec)
                    print(
                        f"{d}\t{k}\t{g}\t{tag}\t{cert.b1}\t{audit_bundle(spec).pairing_rank}"
                        f"\t{cert.degeneracy}\t{cert.nullity}\t{cert.kappa}"
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
