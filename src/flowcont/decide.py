"""Decide flow-continuity of an edge map, exactly.

An edge map f sends each edge of a source digraph G to an edge of a target
digraph H.  It is n-flow-continuous (FF_n) when every Z_n-flow on H pulls
back along f to a Z_n-flow on G, and FF_Z when that holds over the
integers.  The whole family of these questions collapses to one integer:
the gcd g of the discrepancy matrix D.  f is FF_n iff n divides g, and FF_Z
iff g = 0, so modulus 0 stands for Z; over a group M, f is flow-continuous
iff exponent(M) divides g.

Why this works: pulling back phi and applying Kirchhoff at a source vertex
v evaluates the pushforward of the star tension at v against phi, and the
flows on H are exactly the coefficient combinations of its fundamental
circuits.  So FF holds iff every (star tension, circuit) pairing vanishes
modulo n.  D = S P C (source incidence, pushforward of f, target circuits)
is never multiplied out: row i of P C is row f(i) of C, so D is a gather
of C's rows added at each source edge's tail and subtracted at its head,
O(E_G * cyc_H) in all.  The brute-force oracle below re-checks the
definition with no shortcuts and must never be folded into the gcd route.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Group, exponent
from .flows import (
    DEFAULT_FLOW_BUDGET,
    DEFAULT_MAP_BUDGET,
    BudgetExceededError,
    GroupVector,
    _flow_batches,
    _kirchhoff_fails,
    _vectors,
    circuit_matrix,
    incidence_matrix,
)
from .graphs import MultiDigraph


@dataclass(frozen=True)
class EdgeMap:
    """A total map from source edge indices to target edge indices."""

    source: MultiDigraph
    target: MultiDigraph
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.num_edges:
            raise ValueError(
                f"assignment covers {len(self.assignment)} edges, "
                f"source has {self.source.num_edges}"
            )
        for i, j in enumerate(self.assignment):
            if not (0 <= j < self.target.num_edges):
                raise ValueError(f"edge {i} maps to {j}, out of target range")

    def __call__(self, i: int) -> int:
        return self.assignment[i]


def index_bijection(source: MultiDigraph, target: MultiDigraph) -> EdgeMap:
    """The map sending edge i to edge i; needs equal edge counts."""
    if source.num_edges != target.num_edges:
        raise ValueError(
            f"no index bijection: {source.num_edges} vs {target.num_edges} edges"
        )
    return EdgeMap(source, target, tuple(range(source.num_edges)))


def constant_map(source: MultiDigraph, target: MultiDigraph, j: int) -> EdgeMap:
    """The map sending every source edge to target edge j."""
    return EdgeMap(source, target, (j,) * source.num_edges)


def parse_edge_map(text: str, source: MultiDigraph, target: MultiDigraph) -> EdgeMap:
    """Read a map from text: one target index per source edge, in order.

    '#' starts a comment; blank lines are skipped.  Conventionally one
    index per line, but any whitespace separation is accepted.
    """
    tokens: list[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            try:
                tokens.append(int(token))
            except ValueError:
                raise ValueError(f"line {line_number}: bad edge index {token!r}") from None
    if len(tokens) != source.num_edges:
        raise ValueError(
            f"map lists {len(tokens)} edges, source has {source.num_edges}"
        )
    return EdgeMap(source, target, tuple(tokens))


def format_edge_map(f: EdgeMap) -> str:
    """Serialize in the format parse_edge_map reads."""
    return "".join(f"{j}\n" for j in f.assignment)


@dataclass(frozen=True)
class FailureCertificate:
    """One matrix entry refuting flow-continuity.

    modulus is the n that fails to divide value; modulus 0 stands for the
    integers, in which case value is simply nonzero.
    """

    vertex: int
    circuit: int
    value: int
    modulus: int


def discrepancy(f: EdgeMap) -> np.ndarray:
    """The discrepancy matrix D = S P C of f, built without multiplying out.

    Row v, column C holds the signed sum over fundamental circuit C of H
    of the algebraic image of the star tension at source vertex v; all of
    flow-continuity is encoded in the divisibility of these int64 entries.
    Source edge i adds row f(i) of C at its tail and subtracts it at its
    head, O(E_G * cyc_H) in all.  Circuit rows hold -1, 0 and 1 and a
    loop cancels itself, so |D[v,c]| <= deg(v), exact in int64.
    """
    # flat indices take numpy's fast ufunc.at path; chunks bound the memory
    circ = circuit_matrix(f.target)
    width = circ.shape[1]
    assignment = np.asarray(f.assignment, dtype=np.intp)
    starts = np.asarray(f.source.edges, dtype=np.intp).reshape(-1, 2) * width
    columns = np.arange(width, dtype=np.intp)
    d = np.zeros(f.source.vertex_count * width, dtype=np.int64)
    step = max(1, 2**18 // max(1, width))
    for lo in range(0, len(assignment), step):
        # int64 values keep np.add.at off its slow casting path
        rows = circ[assignment[lo : lo + step]].ravel().astype(np.int64)
        np.add.at(d, (starts[lo : lo + step, :1] + columns).ravel(), rows)
        np.subtract.at(d, (starts[lo : lo + step, 1:] + columns).ravel(), rows)
    return d.reshape(f.source.vertex_count, width)


def ff_gcd(f: EdgeMap) -> int:
    """The single nonnegative integer g with: f is FF_n iff n | g.

    g = 0 (the gcd of an empty or all-zero matrix) means f is FF_Z and
    hence flow-continuous over every group.
    """
    return int(np.gcd.reduce(discrepancy(f), axis=None))


def gcd_and_certificate(f: EdgeMap, n: int) -> tuple[int, FailureCertificate | None]:
    """ff_gcd(f), and the first entry not divisible by n (n = 0: nonzero).

    Both come from one evaluation of the discrepancy matrix.
    """
    if n < 0:
        raise ValueError(f"modulus must be nonnegative, got {n}")
    d = discrepancy(f)
    g = int(np.gcd.reduce(d, axis=None))
    if math.gcd(n, g) == n:
        return g, None
    # an n past every |entry| fails where 0 does, and never meets int64;
    # row-major, so certificates are deterministic
    reduced = 0 if n > int(np.abs(d).max()) else n
    v, c = divmod(int(np.flatnonzero(d % reduced if reduced else d)[0]), d.shape[1])
    return g, FailureCertificate(vertex=v, circuit=c, value=int(d[v, c]), modulus=n)


def is_ff_n(f: EdgeMap, n: int) -> tuple[bool, FailureCertificate | None]:
    """Is f n-flow-continuous?  On failure, also return a witness entry.

    n = 0 is accepted as shorthand for the integers.
    """
    certificate = gcd_and_certificate(f, n)[1]
    return certificate is None, certificate


def is_ff_z(f: EdgeMap) -> bool:
    """Is f flow-continuous over the integers (hence over every group)?"""
    return ff_gcd(f) == 0


def is_ff_group(f: EdgeMap, m: Group) -> bool:
    """Is f flow-continuous over m?  Only the exponent of m matters.

    A finite group with exponent e behaves exactly like Z_e, and any group
    with a free part, whose exponent is 0, behaves like Z.
    """
    return is_ff_n(f, exponent(m))[0]


def refuting_flows(f: EdgeMap, m: Group, budget: int = DEFAULT_FLOW_BUDGET):
    """Flows on the target whose pullback breaks Kirchhoff on the source.

    Empty iff f is flow-continuous over m.  Enumeration order follows
    enumerate_flows, so the first refutation is deterministic.  Each batch
    of flows is pulled back whole and tested at every source vertex.
    """
    assignment = np.array(f.assignment, dtype=np.intp)
    incidence = incidence_matrix(f.source)
    for batch in _flow_batches(f.target, m, budget):
        yield from _vectors(batch[_kirchhoff_fails(incidence, batch[:, assignment], m)])


def oracle_refutation(
    f: EdgeMap, m: Group, budget: int = DEFAULT_FLOW_BUDGET
) -> GroupVector | None:
    """First refuting flow, or None if every flow pulls back to a flow."""
    return next(refuting_flows(f, m, budget), None)


def oracle_is_ff_group(f: EdgeMap, m: Group, budget: int = DEFAULT_FLOW_BUDGET) -> bool:
    """Definitional check of flow-continuity by exhausting all flows on m.

    Independent of the discrepancy machinery; used to validate it.
    """
    return oracle_refutation(f, m, budget) is None


def oracle_count_ff_maps(
    g: MultiDigraph, h: MultiDigraph, m: Group, budget: int = DEFAULT_MAP_BUDGET
) -> int:
    """Number of edge maps G -> H flow-continuous over m, by definition.

    Checks every flow on H against every map; the budget caps those flow
    checks.  Holds H's flows, at most the budget of them, for the whole
    scan.  Exists to validate count_ff_maps, not to be fast.
    """
    flows = list(_flow_batches(h, m, budget))
    checks = h.num_edges**g.num_edges * sum(map(len, flows))
    if checks > budget:
        raise BudgetExceededError(checks, budget, what="flow checks")
    incidence = incidence_matrix(g)
    count = 0
    for assignment in itertools.product(range(h.num_edges), repeat=g.num_edges):
        pulled = np.array(assignment, dtype=np.intp)
        if not any(_kirchhoff_fails(incidence, batch[:, pulled], m).any() for batch in flows):
            count += 1
    return count
