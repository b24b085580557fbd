"""Show that only the exponent of the group matters.

Decides the same maps over Z6 and over Z2 x Z3, then counts
flow-continuous maps for several equal-exponent group pairs.  The counts
coincide every time, which is the point.
"""

from flowcont import (
    constant_map,
    count_ff_maps,
    digon,
    exponent,
    is_ff_group,
    parse_group,
)

# all six edges onto one target edge: discrepancy gcd 6, so the
# decision should track whether the exponent divides 6
f = constant_map(digon(6), digon(6), 0)
for text in ("Z6", "Z2xZ3", "Z4", "Z2xZ2", "Z"):
    m = parse_group(text)
    e = exponent(m)
    label = "infinite" if e == 0 else e  # exponent 0: a free factor, like Z
    print(f"{text:7s} exponent {label!s:9s} decision {is_ff_group(f, m)}")
print()

pairs = [("Z6", "Z2xZ3"), ("Z4", "Z2xZ4"), ("Z2", "Z2xZ2")]
g, h = digon(6), digon(2)
print(f"counting flow-continuous maps {g.num_edges}-edge digon -> {h.num_edges}-edge digon")
for left, right in pairs:
    a = count_ff_maps(g, h, parse_group(left))
    b = count_ff_maps(g, h, parse_group(right))
    marker = "==" if a == b else "!= (BUG)"
    print(f"  {left:4s} gives {a:3d} {marker} {b:3d} from {right}")
print()
print("Same exponent, same answer: the group beyond its exponent is invisible.")
