"""Flows over a finitely generated abelian group.

A group vector assigns one group element to every edge.  Flows satisfy
Kirchhoff's law at each vertex.  Over any coefficient group the
fundamental circuit vectors of a digraph generate the full flow space
(the incidence matrix is totally unimodular); ``filter_flows`` exists
purely to validate that fact against the definition, so the two must
never be merged.

Enumerations run on integer arrays.  A batch decodes at most BATCH
consecutive indices of a mixed radix (the group orders, once per circuit
or edge) into a (vectors, edges, factors) array of residues, int64 where
every sum formed from it provably fits and Python ints (dtype=object)
otherwise, so results are exact at any group order.  An enumeration
keeps one batch in memory whatever its budget, and builds tuples only
for the vectors it hands out.  Exhaustive enumerations are guarded by a
vector budget (default 10**7).
"""

import math
from typing import Iterator, Sequence

import numpy as np

from .algebra import Group, GroupElement
from .graphs import MultiDigraph, spanning_structure

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


def incidence_matrix(g: MultiDigraph) -> np.ndarray:
    """Vertex-by-edge signed incidence matrix: row v is the star at v, +1 on
    edges leaving v, -1 on edges entering it and 0 on loops."""
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


def is_flow(g: MultiDigraph, phi: Sequence, m: Group) -> bool:
    """Kirchhoff's law at every vertex: out-sum equals in-sum in m.

    A loop contributes to both sides and therefore cancels.  Coordinates
    are added as plain ints and each vertex sum is reduced once.
    """
    if len(phi) != g.num_edges:
        raise ValueError(f"vector has {len(phi)} entries, graph has {g.num_edges} edges")
    sums = [[0] * m.num_factors for _ in range(g.vertex_count)]
    for value, (tail, head) in zip(phi, g.edges):
        coords = (value,) if isinstance(value, int) else value
        if len(coords) != m.num_factors:
            raise ValueError(f"element needs {m.num_factors} coordinates, got {len(coords)}")
        for k, x in enumerate(coords):
            sums[tail][k] += x
            sums[head][k] -= x
    return all(m.is_zero(m.element(s)) for s in sums)


def _require_finite(m: Group) -> None:
    if not m.is_finite:
        raise ValueError("flow enumeration needs a finite group")


BATCH = 1024  # vectors per batch


def _dtype(bound: int):
    """int64 when no value reaches bound in size, else Python ints."""
    return np.int64 if bound < 2**63 else object


def _grid_batches(radices: list[int], budget: int) -> Iterator[np.ndarray]:
    """Every digit string under the radices, lexicographic, as (rows,
    digits) arrays of at most BATCH rows; the budget caps the strings.
    A batch decodes consecutive indices with // and % per digit, since
    object arrays, which hold indices past int64, have no divmod."""
    needed = math.prod(radices)
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    dtype = _dtype(needed)
    for start in range(0, needed, BATCH):
        index = np.array(range(start, min(start + BATCH, needed)), dtype=dtype)
        digits = np.empty((len(index), len(radices)), dtype=dtype)
        for k in reversed(range(len(radices))):
            digits[:, k] = index % radices[k]
            index //= radices[k]
        yield digits


def _flow_batches(g: MultiDigraph, m: Group, budget: int) -> Iterator[np.ndarray]:
    """The m-flows of g in enumerate_flows order, as (rows, edges,
    factors) residue arrays of at most BATCH rows."""
    _require_finite(m)
    basis = circuit_matrix(g)
    # an entry sums one coefficient per circuit
    dtype = _dtype(max(1, basis.shape[1]) * max(m.orders, default=1))
    basis = basis.astype(dtype)
    moduli = np.array(m.orders, dtype=dtype)
    for digits in _grid_batches(list(m.orders) * basis.shape[1], budget):
        coefficients = digits.astype(dtype).reshape(len(digits), basis.shape[1], m.num_factors)
        # (edges, circuits) @ (rows, circuits, factors) -> (rows, edges, factors)
        yield (basis @ coefficients) % moduli


def _kirchhoff_fails(incidence: np.ndarray, vectors: np.ndarray, m: Group) -> np.ndarray:
    """Per vector of a (rows, edges, factors) batch of m's residues:
    whether Kirchhoff's law fails at some vertex of the graph whose
    incidence_matrix is given, which adds each edge's value at its tail
    and subtracts it at its head."""
    dtype = _dtype(max(1, incidence.shape[1]) * max(m.orders, default=1))
    sums = incidence.astype(dtype) @ vectors.astype(dtype, copy=False)
    return (sums % np.array(m.orders, dtype=dtype) != 0).any(axis=(1, 2))


def _vectors(batch: np.ndarray) -> Iterator[GroupVector]:
    """The rows of a batch as group vectors of plain ints."""
    return (tuple(map(tuple, row)) for row in batch.tolist())


def enumerate_flows(
    g: MultiDigraph, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> Iterator[GroupVector]:
    """All m-flows on g, as coefficient combinations of fundamental circuits.

    Exactly |m| ** cyclomatic_number distinct vectors, in lexicographic
    order of the coefficient tuples (cyclic factors ordered as given).
    """
    for batch in _flow_batches(g, m, budget):
        yield from _vectors(batch)


def filter_flows(
    g: MultiDigraph, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> Iterator[GroupVector]:
    """Definitional oracle: test every one of |m| ** |E| vectors.

    Same set as enumerate_flows; kept separate so the circuit generator can
    be validated against the raw Kirchhoff condition.
    """
    _require_finite(m)
    incidence = incidence_matrix(g)
    for digits in _grid_batches(list(m.orders) * g.num_edges, budget):
        batch = digits.reshape(len(digits), g.num_edges, m.num_factors)
        yield from _vectors(batch[~_kirchhoff_fails(incidence, batch, m)])


def count_nowhere_zero_flows(
    g: MultiDigraph, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> int:
    """Number of flows with no edge carrying the zero element."""
    return sum(
        int((batch != 0).any(axis=2).all(axis=1).sum()) for batch in _flow_batches(g, m, budget)
    )
