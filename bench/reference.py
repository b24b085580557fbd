"""Reference routes that check the benchmark's answers.

Nothing here imports flowcont.  Every answer the benchmark times is
compared with a route written separately from the one timed:

- one map: each target fundamental circuit is pulled back along the map
  and its Kirchhoff sums are added up by hand at every source vertex;
- all maps: a frontier dynamic programme over the source edges keeps the
  open vertices' rows, folds each closed row into a running gcd and
  merges equal states (the library scans the map space directly or
  merges whole blocks instead);
- digon unions: integer-cone membership with Python-int bitsets.

Graphs are ``(vertex_count, edges)`` pairs with ``edges`` a tuple of
``(tail, head)`` pairs, the same data a ``MultiDigraph`` holds.
"""

import math
from collections import defaultdict


def fundamental_circuits(vertex_count, edges):
    """Circuits of the forest grown in edge order, as {edge: sign} dicts.

    The forest takes each edge that joins two components, in index order,
    and the circuits are listed by increasing non-forest edge, so this is
    the basis the library documents for ``spanning_structure``.  The
    circuit of non-forest edge i runs tail -> head along i and back to the
    tail through the forest; a forest edge used against its direction
    gets -1.
    """
    parent = list(range(vertex_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest, non_forest = [], []
    for i, (tail, head) in enumerate(edges):
        a, b = find(tail), find(head)
        if a == b:
            non_forest.append(i)
        else:
            parent[a] = b
            forest.append(i)

    adjacent = [[] for _ in range(vertex_count)]
    for i in forest:
        tail, head = edges[i]
        adjacent[tail].append((head, i))
        adjacent[head].append((tail, i))
    up = [None] * vertex_count  # (parent vertex, forest edge) in a rooted forest
    depth = [0] * vertex_count
    seen = [False] * vertex_count
    for root in range(vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y, i in adjacent[x]:
                if not seen[y]:
                    seen[y] = True
                    up[y] = (x, i)
                    depth[y] = depth[x] + 1
                    stack.append(y)

    circuits = []
    for i in non_forest:
        tail, head = edges[i]
        coefficients = {i: 1}
        a, b = head, tail
        descent = []
        while a != b:
            if depth[a] >= depth[b]:
                above, e = up[a]
                coefficients[e] = 1 if edges[e][0] == a else -1
                a = above
            else:
                above, e = up[b]
                descent.append((above, e))
                b = above
        for above, e in descent:
            coefficients[e] = 1 if edges[e][0] == above else -1
        circuits.append(coefficients)
    return circuits


def discrepancy_summary(source_edges, target, assignment, modulus):
    """(gcd, first failing entry) of a map, by pulling back target circuits.

    modulus 0 stands for the integers.  The first failure is the
    (vertex, circuit, value) entry that comes first in row-major order
    among those the modulus does not divide, or None.
    """
    preimage = defaultdict(list)
    for i, j in enumerate(assignment):
        preimage[j].append(i)
    g = 0
    first = None
    for c, circuit in enumerate(fundamental_circuits(*target)):
        sums = defaultdict(int)
        for j, sign in circuit.items():
            for i in preimage[j]:
                tail, head = source_edges[i]
                sums[tail] += sign
                sums[head] -= sign
        failing = []
        for v, value in sums.items():
            g = math.gcd(g, value)
            if (value % modulus if modulus else value) != 0:
                failing.append(v)
        if failing:
            v = min(failing)
            if first is None or v < first[0]:
                first = (v, c, sums[v])
    return g, first


def _target_columns(target):
    """For every target edge, its coefficient in each fundamental circuit."""
    circuits = fundamental_circuits(*target)
    columns = [[0] * len(circuits) for _ in target[1]]
    for c, circuit in enumerate(circuits):
        for j, sign in circuit.items():
            columns[j][c] = sign
    return [tuple(column) for column in columns]


def _frontier_plan(edges):
    """Non-loop edges in index order with, after each, the rows to keep.

    Each step is (tail slot, head slot, open width, slots closing, slots
    kept); slots index the open-vertex list at that step.  A vertex closes
    after its last incident edge, when its row can change no more.
    """
    order = [i for i, (tail, head) in enumerate(edges) if tail != head]
    last = {}
    for k, i in enumerate(order):
        for v in edges[i]:
            last[v] = k
    steps = []
    open_vertices = []
    for k, i in enumerate(order):
        for v in edges[i]:
            if v not in open_vertices:
                open_vertices.append(v)
        tail, head = edges[i]
        closing = [s for s, v in enumerate(open_vertices) if last[v] == k]
        kept = [s for s, v in enumerate(open_vertices) if last[v] != k]
        steps.append(
            (open_vertices.index(tail), open_vertices.index(head), len(open_vertices), closing, kept)
        )
        open_vertices = [open_vertices[s] for s in kept]
    return steps


def _advance(flat, width, step, column):
    """Add one edge's circuit column to its tail row, subtract at its head."""
    tail_slot, head_slot, _, _, _ = step
    row = list(flat) + [0] * (width - len(flat))
    c = len(column)
    for x in range(c):
        row[tail_slot * c + x] += column[x]
        row[head_slot * c + x] -= column[x]
    return row


def gcd_histogram(source, target):
    """Map gcd -> number of edge maps source -> target with that gcd."""
    vertex_count, edges = source
    target_edges = target[1]
    if not edges:
        return {0: 1}
    if not target_edges:
        return {}
    columns = _target_columns(target)
    c = len(columns[0])
    loops = sum(1 for tail, head in edges if tail == head)
    states = {(0, ()): 1}
    for step in _frontier_plan(edges):
        width = step[2] * c
        closing, kept = step[3], step[4]
        merged = defaultdict(int)
        for (g, flat), count in states.items():
            for column in columns:
                row = _advance(flat, width, step, column)
                h = g
                for s in closing:
                    h = math.gcd(h, *row[s * c : (s + 1) * c])
                if h == 1:
                    merged[(1, ())] += count
                    continue
                rest = [x for s in kept for x in row[s * c : (s + 1) * c]]
                if h:
                    # gcd(h, x) = gcd(h, x mod h): reducing keeps the final gcd
                    rest = [x % h for x in rest]
                merged[(h, tuple(rest))] += count
        states = merged
    # every vertex has closed after its last edge, so only g is left; a
    # loop adds nothing to any row, so it multiplies every count
    histogram = defaultdict(int)
    for (g, _), count in states.items():
        histogram[g] += count * len(target_edges) ** loops
    return dict(histogram)


def exists_ff(source, target, modulus):
    """Is some map source -> target FF for the modulus (0: the integers)?"""
    edges, target_edges = source[1], target[1]
    if not edges:
        return True
    if not target_edges:
        return False
    columns = _target_columns(target)
    c = len(columns[0])
    if c == 0:
        return True
    if modulus:
        columns = [tuple(x % modulus for x in column) for column in columns]
    states = {()}
    for step in _frontier_plan(edges):
        width = step[2] * c
        closing, kept = step[3], step[4]
        survivors = set()
        for flat in states:
            for column in columns:
                row = _advance(flat, width, step, column)
                if modulus:
                    row = [x % modulus for x in row]
                if any(row[s * c + x] for s in closing for x in range(c)):
                    continue
                survivors.add(tuple(x for s in kept for x in row[s * c : (s + 1) * c]))
        states = survivors
        if not states:
            return False
    return True


def ff_set_from_gcds(gcds):
    """(all_of_n, sorted maximal elements) of the union of divisor sets."""
    values = set(gcds)
    if 0 in values:
        return True, []
    return False, maximal_under_divisibility(values)


def maximal_under_divisibility(values):
    values = set(values)
    return sorted(x for x in values if not any(y != x and y % x == 0 for y in values))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def group_exponent(text):
    """Exponent of a group written like "Z2xZ4"; 0 when a factor is Z."""
    exponent = 1
    for factor in text.split("x"):
        if factor == "Z":
            return 0
        exponent = math.lcm(exponent, int(factor[1:]))
    return exponent


def cone_bits(limit, generators):
    """Bit k set iff k <= limit is a nonnegative integer combination."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for s in sorted(set(generators)):
        step = s
        # closing under +s by doubling: after the loop every multiple is in
        while step <= limit:
            reach |= (reach << step) & mask
            step *= 2
    return reach


def in_cone(value, generators):
    return bool(cone_bits(value, generators) >> value & 1)


def digon_ff_set(source_multiplicities, target_multiplicities):
    """(all_of_n, maximal elements) of FF(G, H) for two digon unions.

    Some map is FF_n iff every source multiplicity is a sum of target
    multiplicities and copies of n (n = 0: target multiplicities alone).
    """
    a_values = sorted(set(source_multiplicities))
    b_values = sorted(set(target_multiplicities))
    top = max(a_values)
    if all(cone_bits(top, b_values) >> a & 1 for a in a_values):
        return True, []
    members = []
    for n in range(1, top + 1):
        reach = cone_bits(top, b_values + [n])
        if all(reach >> a & 1 for a in a_values):
            members.append(n)
    return False, maximal_under_divisibility(members)


def digon_multiplicities(vertex_count, edges):
    """Sorted edge multiplicities if the graph is a union of digons, else None.

    A digon union has every edge running between the same two vertices
    as every other edge of its component, in one direction, and no loops.
    """
    pair_of = {}
    counts = defaultdict(int)
    for tail, head in edges:
        if tail == head:
            return None
        for v in (tail, head):
            if pair_of.setdefault(v, (tail, head)) != (tail, head):
                return None
        counts[(tail, head)] += 1
    return sorted(counts.values())
