"""Class-2 exponent-p groups of graphs, in exact normal form.

For an odd prime p and a finite graph G, the group here is the quotient of
the free nilpotent-class-2 exponent-p group on the vertices by the relations
[x, y] = 1 for every edge x ~ y.  Elements have a unique normal form

    prod_v g_v^(a_v)  *  prod_(x<y non-edge) [g_x, g_y]^(b_xy)

so an element is the pair of exponent vectors (a, b) over Z_p, and the whole
group has exactly p^(n + C(n,2) - |E|) elements without ever enumerating.

The collection rule for multiplying normal forms picks up one commutator per
inversion when the right factor's generators move left past the left
factor's: with [u, v] = u^-1 v^-1 u v and central commutators,

    g_y^s * g_x^t = g_x^t * g_y^s * [g_x, g_y]^(-s t)      for x < y,

which gives the coordinate rule b''_xy = b_xy + b'_xy - a_y * a'_x.  The
sign convention is pinned by the exhaustive associativity and relation
oracle in the test suite, not trusted from the derivation above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

TABLE_LIMIT = 6561  # largest order for a dense multiplication table
MAX_P = 2**31 - 1  # a prime; p^2 still fits the array rules' int64


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PcElement:
    group: "PcGroup"
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __mul__(self, other: "PcElement") -> "PcElement":
        return self.group.multiply(self, other)

    def __invert__(self) -> "PcElement":
        return self.group.inverse(self)

    def __pow__(self, k: int) -> "PcElement":
        return self.group.power(self, k)

    def is_identity(self) -> bool:
        return not any(self.a) and not any(self.b)

    def __repr__(self):
        return f"pc a={list(self.a)} b={list(self.b)}"


class PcGroup:
    """The graph group of (graph, p); arithmetic is pure coordinate algebra."""

    def __init__(self, graph: Graph, p: int):
        if p > MAX_P or not is_odd_prime(p):
            raise ValueError(f"exponent must be an odd prime <= {MAX_P}, got {p}")
        self.graph = graph
        self.p = p
        self.nonedges = tuple(
            (x, y)
            for x in range(graph.n)
            for y in range(x + 1, graph.n)
            if not graph.adjacent(x, y)
        )
        self.pair_index = {pair: t for t, pair in enumerate(self.nonedges)}
        # per-pair component indices, used by the vectorized rules
        self._xs = np.array([x for x, _ in self.nonedges], dtype=np.int64)
        self._ys = np.array([y for _, y in self.nonedges], dtype=np.int64)
        self._dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                           if np.iinfo(t).max >= p * p)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def num_pairs(self) -> int:
        return len(self.nonedges)

    def __eq__(self, other):
        return (
            isinstance(other, PcGroup)
            and self.graph == other.graph
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.graph, self.p))

    def order(self) -> int:
        return self.p ** (self.n + self.num_pairs)

    def order_expression(self) -> str:
        return f"{self.p}^{self.n + self.num_pairs}"

    # -- element constructors ------------------------------------------------

    def element(self, a, b) -> PcElement:
        a = tuple(int(x) % self.p for x in a)
        b = tuple(int(x) % self.p for x in b)
        if len(a) != self.n or len(b) != self.num_pairs:
            raise ValueError("coordinate vectors have wrong length")
        return PcElement(self, a, b)

    def identity(self) -> PcElement:
        return PcElement(self, (0,) * self.n, (0,) * self.num_pairs)

    def generator(self, x: int) -> PcElement:
        if not 0 <= x < self.n:
            raise ValueError(f"no vertex {x}")
        a = [0] * self.n
        a[x] = 1
        return PcElement(self, tuple(a), (0,) * self.num_pairs)

    def generators(self) -> list[PcElement]:
        return [self.generator(x) for x in range(self.n)]

    def commutator_basis(self, x: int, y: int) -> PcElement:
        """[g_x, g_y] for a non-adjacent pair x < y."""
        t = self.pair_index.get((x, y))
        if t is None:
            raise ValueError(f"({x},{y}) is not a non-edge pair with x < y")
        b = [0] * self.num_pairs
        b[t] = 1
        return PcElement(self, (0,) * self.n, tuple(b))

    def _own(self, u: PcElement):
        if u.group != self:
            raise ValueError("element belongs to a different group")

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, u: PcElement, v: PcElement) -> PcElement:
        self._own(u)
        self._own(v)
        p = self.p
        a = tuple((x + y) % p for x, y in zip(u.a, v.a))
        b = tuple(
            (bu + bv - u.a[y] * v.a[x]) % p
            for (x, y), bu, bv in zip(self.nonedges, u.b, v.b)
        )
        return PcElement(self, a, b)

    def inverse(self, u: PcElement) -> PcElement:
        self._own(u)
        p = self.p
        a = tuple((-x) % p for x in u.a)
        b = tuple(
            (-bu - u.a[x] * u.a[y]) % p
            for (x, y), bu in zip(self.nonedges, u.b)
        )
        return PcElement(self, a, b)

    def commutator(self, u: PcElement, v: PcElement) -> PcElement:
        """[u, v] = u^-1 v^-1 u v, by the closed bilinear form."""
        self._own(u)
        self._own(v)
        p = self.p
        b = tuple(
            (u.a[x] * v.a[y] - u.a[y] * v.a[x]) % p
            for (x, y) in self.nonedges
        )
        return PcElement(self, (0,) * self.n, b)

    def power(self, u: PcElement, k: int) -> PcElement:
        self._own(u)
        p = self.p
        k = int(k)
        a = tuple((k * x) % p for x in u.a)
        c2 = k * (k - 1) // 2  # exact for negative k too; checked against repeated products
        b = tuple(
            (k * bu - c2 * u.a[x] * u.a[y]) % p
            for (x, y), bu in zip(self.nonedges, u.b)
        )
        return PcElement(self, a, b)

    # -- center --------------------------------------------------------------

    def universal_vertices(self) -> tuple[int, ...]:
        """Vertices adjacent to every other vertex."""
        return tuple(
            v for v in range(self.n) if len(self.graph.neighbors(v)) == self.n - 1
        )

    def center(self) -> "CenterReport":
        return CenterReport(self.p, self.universal_vertices(), self.num_pairs)

    # -- enumeration and dense tables (small groups only) ---------------------

    def coordinate_count(self) -> int:
        return self.n + self.num_pairs

    def all_elements(self):
        """Iterate all elements in mixed-radix order (index order)."""
        for idx in range(self.order()):
            yield self.element_from_index(idx)

    def element_index(self, u: PcElement) -> int:
        self._own(u)
        idx = 0
        for digit in u.a + u.b:
            idx = idx * self.p + digit
        return idx

    def element_from_index(self, idx: int) -> PcElement:
        dims = self.coordinate_count()
        digits = [0] * dims
        for t in range(dims - 1, -1, -1):
            idx, digits[t] = divmod(idx, self.p)
        return PcElement(self, tuple(digits[: self.n]), tuple(digits[self.n:]))

    def coordinate_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """All elements as stacked coordinate arrays (A: N x n, B: N x m)."""
        total = self.order()
        if total > TABLE_LIMIT:
            raise ValueError(f"group order {total} exceeds table limit {TABLE_LIMIT}")
        dims = self.coordinate_count()
        grid = np.zeros((total, dims), dtype=np.int64)
        idx = np.arange(total)
        for t in range(dims - 1, -1, -1):
            grid[:, t] = idx % self.p
            idx //= self.p
        return grid[:, : self.n], grid[:, self.n:]

    # -- vectorized coordinate rules ------------------------------------------

    def _narrow(self, *arrays):
        """The arrays in the working dtype; ValueError unless all are integer in [0, p).

        One pass per array: the max of its unsigned view, where a negative
        entry reads as huge.  Empty arrays pass whatever their dtype.
        """
        arrays = [np.asarray(x) for x in arrays]
        for x in arrays:
            if x.size and not (
                x.dtype.kind in "iu"
                and x.view(x.dtype.str.replace("i", "u")).max() < self.p
            ):
                raise ValueError(f"array coordinates must be integers in [0, {self.p})")
        return [x.astype(self._dtype, copy=False) for x in arrays]

    def _reduced(self, x):
        """x mod p as int64, by floor division (far cheaper than `%`) in place."""
        x -= x // self.p * self.p
        return x.astype(np.int64)

    def multiply_arrays(self, a1, b1, a2, b2):
        """Stacked products (a + a', b + b' - a_y a'_x) mod p, as int64.

        Coordinates must be integers in [0, p), else ValueError; leading axes
        broadcast.  The work runs in the narrowest signed dtype whose max
        holds p^2 (int8 for p <= 11, int16 to 181, int32 to 46337, else
        int64), which is exact as every intermediate lies in (-p^2, p^2).
        """
        a1, b1, a2, b2 = self._narrow(a1, b1, a2, b2)
        corr = a1[..., self._ys] * a2[..., self._xs]
        return self._reduced(a1 + a2), self._reduced(b1 + b2 - corr)

    def rank_arrays(self, a, b) -> np.ndarray:
        """Mixed-radix element indices for stacked coordinate arrays."""
        dims = self.coordinate_count()
        if dims and self.p ** dims > 2 ** 62:
            raise ValueError("group too large for int64 element indices")
        weights = self.p ** np.arange(dims - 1, -1, -1, dtype=np.int64)
        coords = np.concatenate([a, b], axis=-1)
        return coords @ weights

    def multiplication_table(self) -> np.ndarray:
        """Dense index table T[i, j] = index of element_i * element_j.

        Exact by the central factorisation (a1, b1)(a2, b2) = (a1, 0)(a2, 0) *
        (0, b1)(0, b2), as (0, b) is central.  With index a_idx * p^m + b_idx,
        R[ia, ja] the index of (a1, 0)(a2, 0) and S the addition of pair parts,
        T[ia p^m + ib, ja p^m + jb] = R - R % p^m + S[R % p^m, S[ib, jb]] at
        R = R[ia, ja]; one ia block at a time, so temporaries stay near p^(n+2m).
        """
        A, B = self.coordinate_matrix()
        pm = self.p ** self.num_pairs
        # rows ::pm are the elements (a, 0); rows :pm are the elements (0, b)
        A0, B0, Ab, Bb = A[::pm], B[::pm], A[:pm], B[:pm]
        S = self.rank_arrays(*self.multiply_arrays(Ab[:, None], Bb[:, None], Ab, Bb))
        # S3[ib, l, jb] = S[l, S[ib, jb]], the pair index of b_l + b1 + b2
        S3 = S[:, S].transpose(1, 0, 2)
        table = np.empty((len(A), len(A)), dtype=np.int64)
        blocks = table.reshape(len(A0), pm, len(A0), pm)
        for ia in range(len(A0)):
            a, b = self.multiply_arrays(A0[ia], B0[ia], A0, B0)
            r = self.rank_arrays(a, b)
            if pm == 1:  # no pair coordinates: R is the table
                table[ia] = r
                continue
            lo = r % pm
            np.add(S3[:, lo, :], (r - lo)[None, :, None], out=blocks[ia])
        return table


def build_mekler(graph: Graph, p: int) -> PcGroup:
    """The graph group of (graph, p); rejects p = 2 and composite p."""
    return PcGroup(graph, p)


def recover_graph(pc: PcGroup) -> Graph:
    """Reconstruct the graph from commutation of designated generators.

    Edges are read off the arithmetic (x ~ y iff [g_x, g_y] = 1), not copied
    from the input, so building and recovering is a genuine round trip.
    """
    gens = pc.generators()
    edges = [
        (x, y)
        for x in range(pc.n)
        for y in range(x + 1, pc.n)
        if pc.commutator(gens[x], gens[y]).is_identity()
    ]
    return Graph(pc.graph.labels, edges)


@dataclass(frozen=True)
class CenterReport:
    """The center: all (a, b) with a supported on universal vertices only."""

    p: int
    universal_vertices: tuple[int, ...]
    pair_count: int

    @property
    def log_order(self) -> int:
        return len(self.universal_vertices) + self.pair_count

    def order(self) -> int:
        return self.p**self.log_order

    def order_expression(self) -> str:
        return f"{self.p}^{self.log_order}"


# ---------------------------------------------------------------------------
# transport along graph inclusions
# ---------------------------------------------------------------------------

class PcHom:
    """The hom induced by an adjacency-preserving-and-reflecting injection.

    Generators map to generators along the vertex injection.  Preserving
    adjacency makes the map well defined (edge relations stay edge
    relations); reflecting it keeps non-edge commutator coordinates alive,
    which is what makes the transport injective.
    """

    def __init__(self, source: PcGroup, target: PcGroup, vertex_map):
        vm = tuple(int(v) for v in vertex_map)
        if len(vm) != source.n:
            raise ValueError("vertex map must cover every source vertex")
        if len(set(vm)) != len(vm):
            raise ValueError("vertex map must be injective")
        for v in vm:
            if not 0 <= v < target.n:
                raise ValueError(f"target vertex {v} out of range")
        for x in range(source.n):
            for y in range(x + 1, source.n):
                if source.graph.adjacent(x, y) != target.graph.adjacent(vm[x], vm[y]):
                    raise ValueError(
                        f"vertex map does not preserve and reflect adjacency "
                        f"on pair ({x},{y})"
                    )
        if source.p != target.p:
            raise ValueError("source and target exponents differ")
        self.source = source
        self.target = target
        self.vertex_map = vm
        # source non-edge t lands on target pair cols[t]; `flips` are those
        # the map reverses, vm[x] > vm[y]
        pairs = [(vm[x], vm[y]) for x, y in source.nonedges]
        self._cols = np.array([target.pair_index[(min(q), max(q))] for q in pairs],
                              dtype=np.intp)
        self._flips = np.array([t for t, (x, y) in enumerate(pairs) if x > y], dtype=np.intp)

    def apply(self, u: PcElement) -> PcElement:
        self.source._own(u)
        a, b = self.apply_arrays(u.a, u.b)
        return self.target.element(a.tolist(), b.tolist())

    def apply_arrays(self, a, b):
        """Images of stacked coordinate arrays: ta[vm[x]] = a[x], and non-edge
        x < y gives its target pair +b_xy, or -b_xy - a_x a_y (mod p) when
        the map flips it, vm[x] > vm[y].

        A flip reorders the images of g_x and g_y, which costs
        [g_vm[y], g_vm[x]]^(-a_x a_y) by the collection rule, and turns
        [g_x, g_y] into the inverse of the target basis commutator.
        """
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        ta = np.zeros(a.shape[:-1] + (self.target.n,), dtype=np.int64)
        ta[..., list(self.vertex_map)] = a
        tb = np.zeros(b.shape[:-1] + (self.target.num_pairs,), dtype=np.int64)
        tb[..., self._cols] = b
        f, src = self._flips, self.source
        tb[..., self._cols[f]] = (-b[..., f] - a[..., src._xs[f]] * a[..., src._ys[f]]) % src.p
        return ta, tb
