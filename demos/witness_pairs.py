"""Build a graph pair whose flow-continuity set is chosen in advance.

Asks for the set {n : n divides 2 or 3} and constructs two unions of
digons realizing exactly that set, then cross-checks the construction
and produces an explicit mod-2 map between the actual graphs.
"""

from flowcont import (
    build_witness,
    digon_union_witness,
    ff_gcd,
    verify_witness,
)

g, h, plan = build_witness({2, 3})
print("requested maximal elements:", plan.targets)
print(f"plan: prime {plan.prime}, companion {plan.companion}")
print(f"  source digon sizes {plan.source_digons}")
print(f"  target digon sizes {plan.target_digons}")
print(f"  graphs: {g.vertex_count} vertices / {g.num_edges} edges  ->  "
      f"{h.vertex_count} vertices / {h.num_edges} edges")

report = verify_witness(plan)
print(f"verification: {'pass' if report.passed else 'FAIL'}")
print(f"  computed set {report.computed}, wanted {report.expected}")
print()

f = digon_union_witness(g, h, 2)
print(f"explicit mod-2 witness map: gcd {ff_gcd(f)}")
print("  assignment:", f.assignment)
print()
print("Why it works: 13 = 11 + 2 and 17 = 15 + 2 (mod-2 leftovers), while")
print("no sum of {10, 11, 14, 15} hits 13 or 17 exactly, so nothing outside")
print("the divisors of 2 and 3 survives.")
