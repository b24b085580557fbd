"""Flows and tensions over a finitely generated abelian group.

A group vector assigns one group element to every edge.  Flows satisfy
Kirchhoff's law at each vertex; tensions have zero signed sum around every
circuit.  Over any coefficient group the fundamental circuit vectors of a
digraph generate the full flow space (the incidence matrix is totally
unimodular); ``filter_flows`` exists purely to validate that fact against
the definition, so the two must never be merged.

Exhaustive enumerations are guarded by a vector budget (default 10**7).
"""

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .algebra import Group, GroupElement
from .graphs import MultiDigraph, SignedEdgeVector, spanning_structure

GroupVector = tuple[GroupElement, ...]

DEFAULT_FLOW_BUDGET = 10**7
# frontier entries for the map-space pass, flow checks for the map-count oracle
DEFAULT_MAP_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""

    def __init__(self, needed: int, budget: int, what: str = "vectors"):
        super().__init__(f"enumeration needs {needed} {what}, budget is {budget}")
        self.needed = needed
        self.budget = budget


def group_vector(m: Group, entries: Sequence) -> GroupVector:
    """Coerce a sequence of ints/coordinate tuples into a canonical vector."""
    return tuple(m.element(entry) for entry in entries)


def star_tension(g: MultiDigraph, v: int) -> SignedEdgeVector:
    """+1 on edges leaving v, -1 on edges entering v, 0 on loops at v.

    These vectors generate the whole tension space: any potential
    assignment pi induces the tension sum_v pi(v) * star_tension(v).
    """
    if not (0 <= v < g.vertex_count):
        raise ValueError(f"vertex {v} out of range")
    coefficients = [0] * g.num_edges
    for i, (tail, head) in enumerate(g.edges):
        if tail == v:
            coefficients[i] += 1
        if head == v:
            coefficients[i] -= 1
    return tuple(coefficients)


def incidence_matrix(g: MultiDigraph) -> np.ndarray:
    """Vertex-by-edge signed incidence matrix; row v is star_tension(g, v)."""
    mat = np.zeros((g.vertex_count, g.num_edges), dtype=np.int64)
    for i, (tail, head) in enumerate(g.edges):
        mat[tail, i] += 1
        mat[head, i] -= 1
    return mat


def circuit_matrix(g: MultiDigraph) -> np.ndarray:
    """Edge-by-circuit matrix of fundamental circuit coefficients (int8: -1, 0, 1)."""
    circuits = spanning_structure(g).circuits
    mat = np.zeros((g.num_edges, len(circuits)), dtype=np.int8)
    for j, steps in enumerate(circuits):
        for edge, sign in steps:
            mat[edge, j] = sign
    return mat


def _check_dimension(g: MultiDigraph, vector: Sequence) -> None:
    if len(vector) != g.num_edges:
        raise ValueError(f"vector has {len(vector)} entries, graph has {g.num_edges} edges")


def is_flow(g: MultiDigraph, phi: Sequence, m: Group) -> bool:
    """Kirchhoff's law at every vertex: out-sum equals in-sum in m.

    A loop contributes to both sides and therefore cancels.
    """
    _check_dimension(g, phi)
    vec = group_vector(m, phi)
    sums = [m.zero()] * g.vertex_count
    for value, (tail, head) in zip(vec, g.edges):
        sums[tail] = m.add(sums[tail], value)
        sums[head] = m.add(sums[head], m.neg(value))
    return all(m.is_zero(s) for s in sums)


def is_tension(g: MultiDigraph, tau: Sequence, m: Group) -> bool:
    """Zero signed sum around every fundamental circuit.

    Sufficient for all circuits: every circuit vector is an integer
    combination of the fundamental ones.
    """
    _check_dimension(g, tau)
    vec = group_vector(m, tau)
    for steps in spanning_structure(g).circuits:
        total = m.zero()
        for edge, sign in steps:
            total = m.add(total, m.scale(sign, vec[edge]))
        if not m.is_zero(total):
            return False
    return True


def _require_finite(m: Group) -> int:
    if not m.is_finite:
        raise ValueError("flow enumeration needs a finite group")
    order = m.order()
    assert order is not None
    return order


def enumerate_flows(
    g: MultiDigraph, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> Iterator[GroupVector]:
    """All m-flows on g, as coefficient combinations of fundamental circuits.

    Exactly |m| ** cyclomatic_number distinct vectors, in lexicographic
    order of the coefficient tuples (cyclic factors ordered as given).
    """
    order = _require_finite(m)
    circuits = spanning_structure(g).circuits
    needed = order ** len(circuits)
    if needed > budget:
        raise BudgetExceededError(needed, budget)

    num_edges = g.num_edges
    elements = list(m.elements())
    for coefficients in itertools.product(elements, repeat=len(circuits)):
        flow = [m.zero()] * num_edges
        for coefficient, steps in zip(coefficients, circuits):
            for i, sign in steps:
                flow[i] = m.add(flow[i], m.scale(sign, coefficient))
        yield tuple(flow)


def filter_flows(
    g: MultiDigraph, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> Iterator[GroupVector]:
    """Definitional oracle: test every one of |m| ** |E| vectors.

    Same set as enumerate_flows; kept separate so the circuit generator can
    be validated against the raw Kirchhoff condition.
    """
    order = _require_finite(m)
    needed = order**g.num_edges
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    for candidate in itertools.product(m.elements(), repeat=g.num_edges):
        if is_flow(g, candidate, m):
            yield candidate


def count_nowhere_zero_flows(
    g: MultiDigraph, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> int:
    """Number of flows with no edge carrying the zero element."""
    count = 0
    for flow in enumerate_flows(g, m, budget):
        if all(any(c != 0 for c in value) for value in flow):
            count += 1
    return count
