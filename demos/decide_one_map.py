"""Walk through deciding flow-continuity for two concrete maps.

Runs the two classic small cases: the edge bijection from a triple edge
onto a directed triangle, and the proper-coloring map from K4 onto a
triple edge.  Prints the discrepancy matrix behind each decision.
"""

from flowcont import (
    EdgeMap,
    dicycle,
    digon,
    discrepancy,
    ff_gcd,
    index_bijection,
    is_ff_n,
    is_ff_z,
    k4,
    oracle_refutation,
    parse_group,
)


def show(f, title):
    print(f"== {title} ==")
    d = discrepancy(f)
    for row in d.tolist():
        print("  ", " ".join(f"{x:3d}" for x in row))
    g = ff_gcd(f)
    print(f"gcd of all entries: {g}")
    for n in (2, 3, 6):
        verdict, certificate = is_ff_n(f, n)
        note = ""
        if certificate is not None:
            note = (f"  (vertex {certificate.vertex}, circuit {certificate.circuit}"
                    f" sums to {certificate.value})")
        print(f"  mod {n}: {'yes' if verdict else 'no'}{note}")
    print(f"  exact (integers): {'yes' if is_ff_z(f) else 'no'}")
    print()


bijection = index_bijection(digon(3), dicycle(3))
show(bijection, "triple edge onto directed triangle, edge i -> edge i")

coloring = EdgeMap(k4(), digon(3), (0, 1, 2, 2, 1, 0))
show(coloring, "K4 onto triple edge via a proper 3-coloring")

print("The coloring map fails mod 3; the definitional oracle agrees and")
print("exhibits a flow on the target that pulls back badly:")
refuting = oracle_refutation(coloring, parse_group("Z3"))
print(f"  refuting flow on target edges: {refuting}")
