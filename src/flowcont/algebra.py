"""Integer primitives, divisibility down-sets and finitely generated
abelian groups.

Everything here uses Python's arbitrary-precision integers, so there is no
overflow at any input size; the one array, the cone table, holds term
counts no larger than its length.  A group is a free rank plus a tuple of
cyclic orders; an element is a plain tuple of ints, one per factor, with
residues held in ``[0, order)``.  The trivial group is ``Group(0, ())``.  An
FFSet is a down-set of positive integers under divisibility, the shape
of every flow-continuity set.  0 stands for Z, the exponent of a group
with a free factor; gcd(n, g) == n tests "n divides g" for every n >= 0.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

GroupElement = tuple[int, ...]


class GroupSyntaxError(ValueError):
    """Unparseable group description."""


@dataclass(frozen=True)
class Group:
    """Finitely generated abelian group: Z^free_rank x prod Z_orders[i].

    Orders need not be prime powers or pairwise coprime; only the exponent
    matters to the decision procedures, so inputs are kept as given.
    """

    free_rank: int = 0
    orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if self.free_rank < 0:
            raise GroupSyntaxError("free rank must be nonnegative")
        for n in self.orders:
            if n < 1:
                raise GroupSyntaxError(f"cyclic order must be >= 1, got {n}")

    @property
    def num_factors(self) -> int:
        return self.free_rank + len(self.orders)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def zero(self) -> GroupElement:
        return (0,) * self.num_factors

    def element(self, value) -> GroupElement:
        """Coerce an int (single-factor groups only) or an int sequence.

        Residue coordinates are reduced into [0, order).
        """
        if isinstance(value, int):
            if self.num_factors != 1:
                raise ValueError(f"plain int element needs a single-factor group, got {self}")
            value = (value,)
        coords = tuple(int(c) for c in value)
        if len(coords) != self.num_factors:
            raise ValueError(f"element needs {self.num_factors} coordinates, got {len(coords)}")
        free = coords[: self.free_rank]
        cyclic = tuple(c % n for c, n in zip(coords[self.free_rank :], self.orders))
        return free + cyclic

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(x + y for x, y in zip(a, b, strict=True))

    def scale(self, k: int, a: GroupElement) -> GroupElement:
        """Integer multiple k*a."""
        return self.element(k * x for x in a)

    def is_zero(self, a: GroupElement) -> bool:
        return all(x == 0 for x in a)

    def elements(self) -> Iterator[GroupElement]:
        """All elements of a finite group, lexicographic in the residue tuple."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(*(range(n) for n in self.orders))

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z{n}" for n in self.orders]
        return "x".join(parts) if parts else "Z1"


def direct_product(a: Group, b: Group) -> Group:
    return Group(a.free_rank + b.free_rank, a.orders + b.orders)


def parse_group(text: str) -> Group:
    """Parse "Z", "Z<k>", products joined by "x", or a bare integer.

    Examples: "Z2xZ3", "Z", "ZxZ4", "6" (shorthand for Z6).
    """
    text = text.strip()
    if not text:
        raise GroupSyntaxError("empty group description")
    free_rank = 0
    orders: list[int] = []
    for part in text.split("x"):
        part = part.strip()
        if part in ("Z", "z"):
            free_rank += 1
            continue
        if part and part[0] in "Zz":
            digits = part[1:]
        else:
            digits = part
        if not digits.isdecimal():
            raise GroupSyntaxError(f"bad group factor {part!r} in {text!r}")
        try:
            n = int(digits)
        except ValueError as exc:  # past the interpreter's cap on the digits of an int
            raise GroupSyntaxError(str(exc)) from None
        if n == 0:
            raise GroupSyntaxError(f"cyclic order 0 in {text!r}")
        orders.append(n)
    return Group(free_rank, tuple(orders))


def exponent(m: Group) -> int:
    """The n with k*x = 0 for every x in m exactly when n divides k: the
    lcm of the cyclic orders, or 0 when there is a free factor."""
    return 0 if m.free_rank else math.lcm(*m.orders)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors needs n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def _antichain(values) -> frozenset[int]:
    """The divisibility-maximal values.  Each x is tested against its
    multiples or the values, whichever are fewer: sum(min(max / x, k))."""
    kept = set(values)
    top = max(kept, default=0)

    def dominated(x: int) -> bool:
        if top // x <= len(kept):
            return any(y in kept for y in range(2 * x, top + 1, x))
        return any(y != x and y % x == 0 for y in kept)

    return frozenset(x for x in kept if not dominated(x))


@dataclass(frozen=True)
class FFSet:
    """A down-set of positive integers under divisibility.

    Either all of N, or finite and stored as the antichain of its maximal
    elements; n is a member iff it divides one of them.  The empty finite
    set means no edge map exists at all.
    """

    all_of_n: bool
    maximal_elements: frozenset[int]

    def __post_init__(self):
        if self.all_of_n and self.maximal_elements:
            raise ValueError("all-of-N set carries no maximal elements")
        for x in self.maximal_elements:
            if x < 1:
                raise ValueError(f"maximal element {x} must be positive")
        if self.maximal_elements != _antichain(self.maximal_elements):
            raise ValueError("maximal elements must form a divisibility antichain")

    @classmethod
    def everything(cls) -> "FFSet":
        return cls(all_of_n=True, maximal_elements=frozenset())

    @classmethod
    def from_gcds(cls, gcds) -> "FFSet":
        """The union of divisor sets of per-map gcds; gcd 0 means all of N."""
        values = set(int(x) for x in gcds)
        if 0 in values:
            return cls.everything()
        return cls(all_of_n=False, maximal_elements=_antichain(values))

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if self.all_of_n:
            return True
        return any(m % n == 0 for m in self.maximal_elements)

    def members(self) -> tuple[int, ...]:
        """All members of a finite set, ascending; error on all of N."""
        if self.all_of_n:
            raise ValueError("infinite set has no member list")
        out: set[int] = set()
        for m in self.maximal_elements:
            out.update(divisors(m))
        return tuple(sorted(out))

    def to_json(self) -> dict:
        return {
            "kind": "all_of_N" if self.all_of_n else "finite",
            "maximal_elements": sorted(self.maximal_elements),
        }

    def __str__(self) -> str:
        if self.all_of_n:
            return "all n >= 1"
        if not self.maximal_elements:
            return "empty"
        return "{" + " ".join(str(m) for m in self.members()) + "}"


def cone_counts(limit: int, generators: Iterable[int]) -> np.ndarray:
    """Entry x, for x in 0..limit, is the fewest generator terms (repeats
    allowed) that sum to x, or -1 when x is outside their cone.

    One numpy pass per generator b over the residue classes mod b sets
    count[r + k*b] to k + min over j <= k of (count[r + j*b] - j), the
    best count below plus k - j copies of b: O(limit * len(generators))
    time, O(limit) memory (Boecker & Liptak, Algorithmica 2007).
    """
    if limit < 0:
        raise ValueError(f"cone target must be nonnegative, got {limit}")
    gens = sorted(set(int(b) for b in generators))
    if gens and gens[0] < 1:
        raise ValueError(f"cone generators must be positive, got {gens[0]}")
    # every count that is reached stays <= limit, so `unreached` marks the rest
    unreached = limit + 1
    counts = np.full(limit + 1, unreached, dtype=np.int64)
    counts[0] = 0
    for b in gens:
        if b > limit:
            break
        rows = limit // b + 1
        grid = np.append(counts, np.full(rows * b - limit - 1, unreached)).reshape(rows, b)
        k = np.arange(rows)[:, None]
        counts = (k + np.minimum.accumulate(grid - k, axis=0)).ravel()[: limit + 1]
    counts[counts >= unreached] = -1
    return counts


def cone_member(target: int, generators: Iterable[int]) -> bool:
    """Is target a nonnegative integer combination of the generators?  One
    cone_counts table: O(target * len(generators)) time, O(target) memory."""
    return bool(cone_counts(target, generators)[target] >= 0)


def decompose_in_cone(target: int, generators: Iterable[int]) -> tuple[int, ...] | None:
    """Write target as a sum of generators (repeats allowed), or None.

    Among all decompositions, the fewest terms win; ties go to the
    lexicographically smallest sorted term tuple.  Read off cone_counts
    by taking, at each step, the smallest generator that leaves one term
    fewer: a smaller later term would have been a feasible first pick.
    """
    gens = sorted(set(int(b) for b in generators))
    counts = cone_counts(target, gens).tolist()
    if counts[target] < 0:
        return None
    terms, x = [], target
    while x:
        b = next(b for b in gens if b <= x and counts[x - b] == counts[x] - 1)
        terms.append(b)
        x -= b
    return tuple(terms)


def next_prime_above(x: int) -> int:
    """Smallest prime strictly greater than x >= 1, by trial division."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    candidate = x + 1
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
