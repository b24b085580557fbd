"""Check that mod-n and exact flow-continuity agree on cubic sources.

When every vertex of the source has degree smaller than n, being
flow-continuous mod n is the same as being flow-continuous over the
integers.  This checks all 46656 maps from K4 to itself, through one
gcd histogram, for n from 4 to 8 and reports the agreement, plus a
contrast case where the degree condition fails and the two notions
split.
"""

import time

from flowcont import constant_map, digon, ff_gcd, k4, subcubic_equivalence_check

start = time.monotonic()
report = subcubic_equivalence_check(k4(), k4(), range(4, 9))
elapsed = time.monotonic() - start
print(f"K4 -> K4, all {report.maps_checked} maps, moduli {report.moduli}")
print(f"  violations: {report.violation_count}  ({elapsed:.2f} s)")
print()

f = constant_map(digon(4), digon(4), 0)
print("contrast on a 4-edge digon, where vertex degree is 4, not below it:")
print(f"  the all-to-one map has gcd {ff_gcd(f)}: flow-continuous mod 4,")
print("  yet not exact, so the degree hypothesis is doing real work.")
