"""Explore the set of moduli for which maps are flow-continuous.

For one fixed map this set is exactly the divisors of one number (the
discrepancy gcd).  Over all maps between a pair of graphs it is a union
of such divisor sets, still closed under taking divisors.  Both are
printed as membership tables.
"""

from flowcont import FFSet, constant_map, digon, ff_gcd, ff_set_of_graphs, loop


def table(ff_set, limit=12):
    cells = ["x" if ff_set.contains(n) else "." for n in range(1, limit + 1)]
    return " ".join(cells)


print("moduli 1..12:", " ".join(f"{n:d}" for n in range(1, 13)))
print()

f = constant_map(digon(6), loop(), 0)
gcd = ff_gcd(f)
print(f"constant map, 6-edge digon onto a loop (gcd {gcd}):")
print("  ", table(FFSet.from_gcds([gcd])))
print()

print("all 7^9 = 40353607 maps, 9-edge digon -> 7-edge digon:")
s = ff_set_of_graphs(digon(9), digon(7), budget=10**8)
print("  ", table(s))
print(f"  members {s.members()}, maximal {sorted(s.maximal_elements)}")
print()
print("9 works (send all nine edges to one target edge), and so does 2")
print("(split 9 = 7 + 2), but nothing else beyond their divisors.")
