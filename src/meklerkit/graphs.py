"""Finite simple graphs with ordered vertex labels.

The central operation is `extend`: adjoin one fresh vertex for every subset
of the current vertex set, joined exactly to its members.  Iterating this
step grows any finite graph toward a graph with the full extension property,
and the subset vertices themselves are canonical witnesses for it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .errors import ParseError, VertexBudgetError

DEFAULT_VERTEX_BUDGET = 10**6


@dataclass(frozen=True)
class SubsetVertex:
    """Label of a vertex adjoined for one subset of a parent graph's vertices.

    `members` holds parent-stage vertex indices in ascending order;
    `parent_key` is the parent graph's content key, so labels created at
    different tower stages never collide even when members coincide.
    """

    parent_key: str
    members: tuple[int, ...]

    def __str__(self) -> str:
        return "s{" + ",".join(str(i) for i in self.members) + "}"


def label_token(label) -> str:
    # canonical text for hashing; never depends on str() hash randomization
    if isinstance(label, SubsetVertex):
        return f"s[{label.parent_key}]{{{','.join(map(str, label.members))}}}"
    return f"{type(label).__name__}:{label!r}"


class Graph:
    """Immutable finite simple graph; vertex order is the order of `labels`."""

    __slots__ = ("labels", "edges", "_nbrs", "_key")

    def __init__(self, labels, edges):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be distinct")
        n = len(labels)
        norm = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop edge at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for {n} vertices")
            norm.add((min(i, j), max(i, j)))
        self.labels = labels
        self.edges = frozenset(norm)
        nbrs = [set() for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        self._nbrs = tuple(frozenset(s) for s in nbrs)
        self._key = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self._nbrs[i]

    def neighbors(self, i: int) -> frozenset:
        return self._nbrs[i]

    def edge_count(self) -> int:
        return len(self.edges)

    def key(self) -> str:
        """Short deterministic content key over labels and edges."""
        if self._key is None:
            text = ";".join(
                [str(self.n)]
                + [label_token(l) for l in self.labels]
                + [f"{i}-{j}" for i, j in sorted(self.edges)]
            )
            self._key = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.labels, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(range(n), edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))       # outer cycle
        edges.append((i, i + 5))             # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph.from_edges(10, edges)


# ---------------------------------------------------------------------------
# niceness: triangle-free, square-free, and every ordered pair separated
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NiceReport:
    """Verdict plus certificates for the three niceness clauses.

    The separation clause reads: for all distinct x, y there is z with
    z ~ x and not z ~ y.  Taken literally, z = y is allowed (and works
    exactly when y ~ x).  `is_nice` uses the literal reading; the strict
    reading (z != y required) is reported alongside, and `self_only_pairs`
    lists the ordered pairs separated only by z = y.
    """

    is_nice: bool
    strict_is_nice: bool
    triangle: tuple | None
    square: tuple | None
    unseparated: tuple | None
    strict_unseparated: tuple | None
    self_only_pairs: tuple

    @property
    def certificate(self):
        """First violating structure under the literal reading, if any."""
        if self.triangle is not None:
            return ("triangle", self.triangle)
        if self.square is not None:
            return ("square", self.square)
        if self.unseparated is not None:
            return ("unseparated", self.unseparated)
        return None


def find_triangle(g: Graph):
    for i, j in sorted(g.edges):
        common = g.neighbors(i) & g.neighbors(j)
        if common:
            return (i, j, min(common))
    return None


def find_square(g: Graph):
    # a 4-cycle exists iff two distinct vertices share >= 2 common neighbors
    for x in range(g.n):
        for z in range(x + 1, g.n):
            common = sorted(g.neighbors(x) & g.neighbors(z))
            if len(common) >= 2:
                a, b = common[0], common[1]
                return (x, a, z, b)
    return None


def is_nice(g: Graph) -> NiceReport:
    """Check triangle-freeness, square-freeness, and pair separation."""
    triangle = find_triangle(g)
    square = find_square(g)
    unseparated = None
    strict_unseparated = None
    self_only = []
    for x in range(g.n):
        nx = g.neighbors(x)
        for y in range(g.n):
            if x == y:
                continue
            witnesses = nx - g.neighbors(y)
            if not witnesses and unseparated is None:
                unseparated = (x, y)
            strict = witnesses - {y}
            if not strict and strict_unseparated is None:
                strict_unseparated = (x, y)
            if witnesses and not strict:
                self_only.append((x, y))
    return NiceReport(
        is_nice=triangle is None and square is None and unseparated is None,
        strict_is_nice=triangle is None and square is None and strict_unseparated is None,
        triangle=triangle,
        square=square,
        unseparated=unseparated,
        strict_unseparated=strict_unseparated,
        self_only_pairs=tuple(self_only),
    )


# ---------------------------------------------------------------------------
# extension toward the extension property
# ---------------------------------------------------------------------------

def _all_subsets(n: int):
    """All subsets of range(n) as ascending index tuples, by size then lex."""
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def extend(g: Graph, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Adjoin one fresh vertex per subset S of V(g), adjacent exactly to S.

    Old vertices keep their labels and indices; subset vertices follow in
    (size, lexicographic) order.  No edges between subset vertices.
    """
    total = g.n + 2**g.n
    if total > vertex_budget:
        raise VertexBudgetError(
            f"extension would create {total} vertices, budget is {vertex_budget}"
        )
    pk = g.key()
    subsets = list(_all_subsets(g.n))
    labels = g.labels + tuple(SubsetVertex(pk, s) for s in subsets)
    edges = set(g.edges)
    for rank, s in enumerate(subsets):
        v = g.n + rank
        for i in s:
            edges.add((i, v))
    return Graph(labels, edges)


def extend_tower(
    g: Graph, k: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> tuple[Graph, tuple[int, ...]]:
    """Iterate `extend` k times; returns (G_k, inclusion of V(g) by index).

    Old vertices stay at indices 0..n-1 at every stage, so the inclusion is
    the identity on indices; it is returned explicitly as the index map.
    """
    if k < 0:
        raise ValueError("tower depth must be >= 0")
    cur = g
    for _ in range(k):
        cur = extend(cur, vertex_budget)
    return cur, tuple(range(g.n))


def _neighbour_masks(g: Graph, vertices) -> dict[int, int]:
    """Bit z of the mask of x is set exactly when z ~ x."""
    return {x: sum(1 << z for z in g.neighbors(x)) for x in vertices}


def _witnesses(hit: int, nbr, a, b) -> int:
    """The vertices of `hit` adjacent to all of A and none of B, outside A and B."""
    for x in a:
        hit &= nbr[x]  # graphs have no loops, so this also drops x
    for y in b:
        hit &= ~(nbr[y] | 1 << y)
    return hit


def check_extension_property(g: Graph, a_set, b_set):
    """First vertex adjacent to all of A, none of B, outside A and B; or None."""
    a, b = set(a_set), set(b_set)
    if a & b:
        raise ValueError("A and B must be disjoint")
    for v in sorted(a | b):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    hit = _witnesses((1 << g.n) - 1, _neighbour_masks(g, a | b), a, b)
    return (hit & -hit).bit_length() - 1 if hit else None


@dataclass(frozen=True)
class ExtensionAudit:
    size_bound: int
    universe: tuple[int, ...]
    pair_count: int
    failures: tuple  # ((a_tuple, b_tuple), ...) in enumeration order

    @property
    def ok(self) -> bool:
        return not self.failures


def audit_extension_property(g: Graph, m: int, universe=None) -> ExtensionAudit:
    """Check every disjoint pair (A, B) with |A|, |B| <= m for a witness.

    `universe` restricts where A and B are drawn from (default: all of V);
    witnesses may be any vertex of g.  Failures are reported, never assumed:
    an empty failure list is the only notion of success.

    Every B of size <= m is built once, as a node (B, the vertices outside B
    and its neighbours, its one-vertex extensions (y, B + (y,))).  Each A
    walks that tree one size at a time, skipping any y in A, so a level holds
    exactly the B's disjoint from A in (size, lexicographic) order, and every
    failure shares its B tuple with the tree.
    """
    if m < 0:
        raise ValueError(f"size bound must be >= 0, got {m}")
    if universe is None:
        universe = tuple(range(g.n))
    else:
        universe = tuple(sorted(set(universe)))
        for v in universe:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} out of range")
    nbr = _neighbour_masks(g, universe)
    top = min(m, len(universe))
    nodes = {(): ((), (1 << g.n) - 1, [])}
    for bsize in range(1, top + 1):
        for b in itertools.combinations(universe, bsize):
            _, out, kids = nodes[b[:-1]]
            nodes[b] = node = (b, _witnesses(out, nbr, (), b[-1:]), [])
            kids.append((b[-1], node))
    pair_count = 0

    def walk():  # each level's failures, chained into one tuple with no list beside it
        nonlocal pair_count
        for asize in range(top + 1):
            for a in itertools.combinations(universe, asize):
                common = _witnesses((1 << g.n) - 1, nbr, a, ())  # once per A
                level = [nodes[()]]
                while level:
                    pair_count += len(level)
                    yield [(a, b) for b, out, _ in level if not common & out]
                    level = [node for _, _, kids in level for y, node in kids if y not in a]

    failures = tuple(itertools.chain.from_iterable(walk()))
    return ExtensionAudit(m, universe, pair_count, failures)


# ---------------------------------------------------------------------------
# graph isomorphisms and their canonical extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphIso:
    """Isomorphism between graphs, as an index bijection; validated on build."""

    domain: Graph
    codomain: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        n = self.domain.n
        if self.codomain.n != n:
            raise ValueError("graphs have different vertex counts")
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a bijection on vertex indices")
        for i in range(n):
            for j in range(i + 1, n):
                if self.domain.adjacent(i, j) != self.codomain.adjacent(
                    self.mapping[i], self.mapping[j]
                ):
                    raise ValueError(
                        f"mapping does not preserve adjacency on pair ({i},{j})"
                    )

    def apply(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "GraphIso":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return GraphIso(self.codomain, self.domain, tuple(inv))

    @classmethod
    def identity(cls, g: Graph) -> "GraphIso":
        return cls(g, g, tuple(range(g.n)))


def extend_iso(f: GraphIso, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> GraphIso:
    """Extend f: G -> H to extend(G) -> extend(H): subsets map elementwise."""
    eg = extend(f.domain, vertex_budget)
    eh = extend(f.codomain, vertex_budget)
    n = f.domain.n
    h_rank = {s: r for r, s in enumerate(_all_subsets(n))}
    mapping = list(f.mapping)
    for s in _all_subsets(n):
        image = tuple(sorted(f.mapping[i] for i in s))
        mapping.append(n + h_rank[image])
    return GraphIso(eg, eh, tuple(mapping))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def format_graph(g: Graph) -> str:
    """Canonical text: `p graph <n>` then sorted `e <i> <j>` lines."""
    lines = [f"p graph {g.n}"]
    for i, j in sorted(g.edges):
        lines.append(f"e {i} {j}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; 0-based indices, `#` comments.

    A vertex count above `DEFAULT_VERTEX_BUDGET` is refused before anything
    is built.
    """
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 3 or parts[1] != "graph":
                raise ParseError("expected `p graph <n>`", lineno)
            try:
                n = int(parts[2])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[2]!r}", lineno)
            if n < 0:
                raise ParseError("vertex count must be >= 0", lineno)
            if n > DEFAULT_VERTEX_BUDGET:
                raise ParseError(
                    f"vertex count {n} exceeds the vertex budget "
                    f"{DEFAULT_VERTEX_BUDGET}",
                    lineno,
                )
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise ParseError("expected `e <i> <j>`", lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno)
            if i == j:
                raise ParseError(f"loop edge at vertex {i}", lineno)
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError(f"edge ({i},{j}) out of range", lineno)
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ParseError(f"duplicate edge ({i},{j})", lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing `p graph <n>` line")
    return Graph.from_edges(n, edges)
