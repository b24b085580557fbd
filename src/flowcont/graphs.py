"""Finite multidigraphs with loops and parallel edges.

Conventions used throughout the package:

- A graph is a vertex count plus an ordered tuple of ``(tail, head)`` pairs.
  Edges are identified by their 0-based position in that tuple.  Parallel
  edges, loops (``tail == head``) and isolated vertices are all allowed.
- A fundamental circuit is a tuple of ``(edge, sign)`` steps, sign +1 or -1
  by traversal direction.
- The text format is a ``"V E"`` header line followed by ``E`` lines
  ``"tail head"``, whitespace separated and 0-indexed.  Anything following
  a ``'#'`` on a line is a comment; blank lines are skipped.

All values are immutable after construction and safe to share between
threads.
"""

from dataclasses import dataclass
from typing import Iterable


class GraphFormatError(ValueError):
    """Malformed graph/map text or inconsistent vertex/edge indices."""


@dataclass(frozen=True)
class MultiDigraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))
        if self.vertex_count < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        for i, (tail, head) in enumerate(self.edges):
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise GraphFormatError(
                    f"edge {i} = ({tail}, {head}) has a vertex index outside 0..{self.vertex_count - 1}"
                )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Number of edge ends at v; a loop counts twice."""
        return sum((tail == v) + (head == v) for tail, head in self.edges)

    def max_degree(self) -> int:
        ends = [0] * self.vertex_count
        for tail, head in self.edges:
            ends[tail] += 1
            ends[head] += 1
        return max(ends, default=0)


@dataclass(frozen=True)
class SpanningStructure:
    """Deterministic spanning forest plus one circuit per non-forest edge.

    ``circuits[j]`` lists the ``(edge, sign)`` steps of circuit j: its
    non-forest edge at +1, then the edges of the forest path from that
    edge's head back to its tail, each at +1/-1 according to traversal
    direction.  A loop is its own circuit of length 1.  Circuits are
    listed by increasing non-forest edge index, so the number of circuits
    is the cyclomatic number ``|E| - |V| + components``.
    """

    forest_edges: frozenset[int]
    circuits: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def cyclomatic_number(self) -> int:
        return len(self.circuits)


def parse_digraph(text: str) -> MultiDigraph:
    """Parse the "V E" text format; see the module docstring."""
    rows: list[list[str]] = []
    for line in text.splitlines():
        data = line.split("#", 1)[0].strip()
        if data:
            rows.append(data.split())
    if not rows:
        raise GraphFormatError("empty graph text")
    header = rows[0]
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'V E', got {' '.join(header)!r}")
    try:
        vertex_count, edge_count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-numeric header: {' '.join(header)!r}") from exc
    body = rows[1:]
    if len(body) != edge_count:
        raise GraphFormatError(f"expected {edge_count} edge lines, found {len(body)}")
    edges = []
    for row in body:
        if len(row) != 2:
            raise GraphFormatError(f"edge line must be 'tail head', got {' '.join(row)!r}")
        try:
            edges.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise GraphFormatError(f"non-numeric edge line: {' '.join(row)!r}") from exc
    return MultiDigraph(vertex_count, tuple(edges))


def format_digraph(g: MultiDigraph) -> str:
    lines = [f"{g.vertex_count} {g.num_edges}"]
    lines.extend(f"{tail} {head}" for tail, head in g.edges)
    return "\n".join(lines) + "\n"


def digon(k: int) -> MultiDigraph:
    """Two vertices joined by k parallel edges 0 -> 1."""
    if k < 1:
        raise GraphFormatError(f"digon needs k >= 1, got {k}")
    return MultiDigraph(2, ((0, 1),) * k)


def dicycle(k: int) -> MultiDigraph:
    """Directed k-cycle 0 -> 1 -> ... -> 0; dicycle(1) is a loop."""
    if k < 1:
        raise GraphFormatError(f"dicycle needs k >= 1, got {k}")
    return MultiDigraph(k, tuple((i, (i + 1) % k) for i in range(k)))


def loop() -> MultiDigraph:
    """Single vertex with one loop."""
    return MultiDigraph(1, ((0, 0),))


def k4() -> MultiDigraph:
    """Complete graph on 4 vertices, each edge oriented low -> high.

    Edge order: (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
    """
    return MultiDigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def petersen() -> MultiDigraph:
    """Petersen graph, one fixed orientation.

    Vertices 0-4 are the outer cycle, 5-9 the inner pentagram.  Edge order:
    outer i -> i+1 (mod 5), spokes i -> i+5, inner 5+i -> 5+(i+2 mod 5).
    """
    outer = tuple((i, (i + 1) % 5) for i in range(5))
    spokes = tuple((i, i + 5) for i in range(5))
    inner = tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    return MultiDigraph(10, outer + spokes + inner)


_PARAMETRIC = {"digon": digon, "dicycle": dicycle}
_FIXED = {"loop": loop, "k4": k4, "petersen": petersen}

BUILTIN_NAMES = tuple(sorted(_PARAMETRIC) + sorted(_FIXED))


def builtin(name: str, k: int | None = None) -> MultiDigraph:
    """Builtin graph families: digon(k), dicycle(k), loop, k4, petersen."""
    if name in _PARAMETRIC:
        if k is None:
            raise GraphFormatError(f"builtin {name!r} needs a parameter k")
        return _PARAMETRIC[name](k)
    if name in _FIXED:
        if k is not None:
            raise GraphFormatError(f"builtin {name!r} takes no parameter")
        return _FIXED[name]()
    raise GraphFormatError(f"unknown builtin graph {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def disjoint_union(parts: Iterable[MultiDigraph]) -> MultiDigraph:
    """Disjoint union with vertex/edge indices shifted part by part."""
    vertex_count = 0
    edges: list[tuple[int, int]] = []
    for part in parts:
        edges.extend((tail + vertex_count, head + vertex_count) for tail, head in part.edges)
        vertex_count += part.vertex_count
    return MultiDigraph(vertex_count, tuple(edges))


def spanning_structure(g: MultiDigraph) -> SpanningStructure:
    """Spanning forest by lowest-index-first growth, plus fundamental circuits.

    One pass roots each tree of the forest, recording every vertex's
    parent, the edge up to it and its depth; a circuit then walks from its
    edge's head and tail up to their common ancestor.  Deterministic: equal
    graphs always produce identical structures.
    """
    root = list(range(g.vertex_count))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest: list[int] = []
    non_forest: list[int] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for i, (tail, head) in enumerate(g.edges):
        a, b = find(tail), find(head)
        if a == b:
            non_forest.append(i)
        else:
            root[a] = b
            forest.append(i)
            adj[tail].append((head, i))
            adj[head].append((tail, i))

    # iterative, so deep trees cannot overflow the stack; a root is its own parent
    parent, parent_edge, depth = ([-1] * g.vertex_count for _ in range(3))
    for r in range(g.vertex_count):
        if parent[r] < 0:
            parent[r], depth[r] = r, 0
            stack = [r]
            while stack:
                v = stack.pop()
                for w, edge in adj[v]:
                    if parent[w] < 0:
                        parent[w], parent_edge[w], depth[w] = v, edge, depth[v] + 1
                        stack.append(w)

    circuits = []
    for i in non_forest:
        steps, (w, u) = [(i, 1)], g.edges[i]
        while u != w:  # up from the head u, down to the tail w
            if depth[u] >= depth[w]:
                e, u = parent_edge[u], parent[u]
                steps.append((e, 1 if g.edges[e][1] == u else -1))
            else:
                e, w = parent_edge[w], parent[w]
                steps.append((e, 1 if g.edges[e][0] == w else -1))
        circuits.append(tuple(steps))
    return SpanningStructure(frozenset(forest), tuple(circuits))

