"""Finite permutation groups with exact brute-force structural queries.

Everything here enumerates honestly: element listings come from
breadth-first product closure, homomorphisms are verified against every
(generator, element) pair at one point per orbit of the image (a complete
proof, see `Hom`), and structural searches (simplicity, subgroup lattices, isomorphism,
automorphisms) are exhaustive.  Queries that would pass the element budget
fail loudly with EnumerationBudgetError instead of degrading.

Composition convention: (p * q)(i) = p(q(i)), i.e. q acts first.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import EnumerationBudgetError, ParseError

DEFAULT_ENUM_BUDGET = 20_000
DEFAULT_POINT_BUDGET = 10**5  # largest degree of a group file or a tower stage


class Perm:
    """Permutation of range(degree), stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if len(set(images)) != n or any(not (0 <= x < n) for x in images):
            raise ValueError(f"not a permutation of range({n}): {images}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _make(cls, images: tuple) -> "Perm":
        # trusted fast path: products/inverses of valid perms are valid
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        im = other.images
        if len(im) != len(self.images):
            raise ValueError("degree mismatch")
        if len(im) < 2:  # other is the identity; itemgetter needs 2+ indices for a tuple
            return self
        return Perm._make(itemgetter(*im)(self.images))

    def __invert__(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm._make(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Perm"):
        return self.images < other.images

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images))

    def order(self) -> int:
        result = 1
        for c in self.cycles():
            result = result * len(c) // math.gcd(result, len(c))
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of length at least 2."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def is_even(self) -> bool:
        flips = sum(len(c) - 1 for c in self.cycles())
        return flips % 2 == 0

    def extend(self, degree: int) -> "Perm":
        """Pad with fixed points up to `degree`."""
        if degree < self.degree:
            raise ValueError("cannot shrink a permutation")
        return Perm._make(self.images + tuple(range(self.degree, degree)))

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm._make(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, *cycles) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for k, i in enumerate(cyc):
                images[i] = cyc[(k + 1) % len(cyc)]
        return Perm(images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "Perm(id)"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycs) + ")"


def _closure(gens, degree: int, maxsize: int | None = None):
    """Breadth-first product closure that takes each product x * g once.

    Returns (elements, Perm -> position, right, tree), or None once the
    closure exceeds `maxsize`.  The elements start with the identity;
    right[k][i] is the position of elements[i] * gens[k], and tree lists the
    step (a, i, k), elements[i] = elements[a] * gens[k], that first reached
    each position i > 0, in breadth-first order.
    """
    ident = Perm.identity(degree)
    els, pos, tree = [ident], {ident: 0}, []
    right = [[] for _ in gens]
    for a, x in enumerate(els):  # els grows as the walk finds elements
        for k, g in enumerate(gens):
            c = x * g
            i = pos.get(c)
            if i is None:
                i = pos[c] = len(els)
                els.append(c)
                tree.append((a, i, k))
                if maxsize is not None and len(els) > maxsize:
                    return None
            right[k].append(i)
    return els, pos, right, tree


def closure_elements(gens, degree: int, maxsize: int | None = None):
    """The element list of `_closure`: identity first, or None past `maxsize`."""
    walk = _closure(gens, degree, maxsize)
    return walk and walk[0]


def _closure_mask(g: PermGroup, gens, maxsize: int):
    """The bitmask of <gens> over g's element positions, or None past maxsize."""
    rows = list(map(g._indexed().row, gens))  # <gens> is closed under b * a for b in gens
    frontier, mask, size = [0], 1, 1  # position 0 is the identity
    while frontier:
        fresh = []
        for a in frontier:
            for row in rows:
                c = row[a]
                if not mask >> c & 1:
                    mask |= 1 << c
                    fresh.append(c)
        size += len(fresh)
        if size > maxsize:
            return None
        frontier = fresh
    return mask


def _greedy_generators(g: PermGroup, candidates) -> tuple[list[int], int]:
    """Each candidate position not yet reached, in order, and the mask they generate."""
    gens, mask, size = [], 1, len(g.elements())
    for c in candidates:
        if not mask >> c & 1:
            gens.append(c)
            mask = _closure_mask(g, gens, size)
    return gens, mask


class _Index(NamedTuple):
    """A group's one index, from one `_closure` walk over its generators."""

    elements: tuple
    pos: dict        # Perm -> position; position 0 is the identity
    right: list      # right[k][i]: position of elements[i] * gens[k]
    tree: list       # (a, i, k): the walk's step that first reached i
    rows: list       # rows[a]: row(a) once built, else None
    undo: list       # undo[k]: the inverse of right[k], once a conjugation needs it
    left: list       # (a, y, k), elements[y] = gens[k] elements[a]: the left walk, once built

    def row(self, a: int) -> list[int]:
        """Positions of elements[a] * elements[i] for every i, built once along the tree."""
        r = self.rows[a]
        if r is None:
            r = self.rows[a] = [a] * len(self.elements)
            right = self.right
            for p, i, k in self.tree:  # elements[a] elements[i] = (elements[a] elements[p]) gens[k]
                r[i] = right[k][r[p]]
        return r

    def conjugators(self) -> list[tuple[list[int], list[int]]]:
        """(row(s), undo[k]) for each generator s = gens[k]: s y s^-1 is undo[k][row(s)[y]]."""
        if not self.undo:
            for r in self.right:
                inv = [0] * len(r)
                for i, c in enumerate(r):
                    inv[c] = i
                self.undo.append(inv)
        return [(self.row(r[0]), inv) for r, inv in zip(self.right, self.undo)]

    def left_walk(self) -> tuple[list[list[int]], list]:
        """(row(s) for each generator s, the steps of a breadth-first walk of left steps
        s x from position 0 that reach every other position once), the walk built once."""
        lefts = [self.row(r[0]) for r in self.right]
        if not self.left:
            order, reached = [0], {0}  # positions in the order the walk reaches them
            for a in order:
                for k, row in enumerate(lefts):
                    if row[a] not in reached:
                        reached.add(row[a])
                        order.append(row[a])
                        self.left.append((a, row[a], k))
        return lefts, self.left


class PermGroup:
    """Permutation group given by generators; enumeration is lazy and budgeted.

    `known_order`, `known_simple` and `contains_hook` let constructions such
    as large alternating groups answer order/membership questions without
    ever enumerating.
    """

    def __init__(
        self,
        degree: int,
        gens,
        name: str | None = None,
        known_order: int | None = None,
        known_simple: bool = False,
        contains_hook=None,
        enum_budget: int = DEFAULT_ENUM_BUDGET,
    ):
        self.degree = degree
        self.gens = tuple(gens)
        for g in self.gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.name = name
        self.known_order = known_order
        self.known_simple = known_simple
        self.contains_hook = contains_hook
        self.enum_budget = enum_budget
        self._index = None  # see _indexed

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def elements(self) -> tuple[Perm, ...]:
        return self._indexed().elements

    def _indexed(self) -> _Index:
        """The group's one index, built by one `_closure` walk over its gens."""
        if self._index is None:
            if self.known_order is not None and self.known_order > self.enum_budget:
                raise EnumerationBudgetError(
                    f"group of order {self.known_order} exceeds element budget "
                    f"{self.enum_budget}"
                )
            walk = _closure(self.gens, self.degree, self.enum_budget)
            if walk is None:
                raise EnumerationBudgetError(
                    f"enumeration exceeded element budget {self.enum_budget}"
                )
            els, pos, right, tree = walk
            self._index = _Index(tuple(els), pos, right, tree, [None] * len(els), [], [])
        return self._index

    def order(self) -> int:
        if self.known_order is not None:
            return self.known_order
        return len(self.elements())

    def __contains__(self, p: Perm) -> bool:
        if p.degree != self.degree:
            return False
        if self._index is None and self.contains_hook is not None:
            return self.contains_hook(p)
        return p in self._indexed().pos

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a, b in itertools.combinations(self.gens, 2))

    def label(self) -> str:
        return self.name or f"group<deg {self.degree}, {len(self.gens)} gens>"

    def __repr__(self):
        if self.name:
            return f"PermGroup({self.name})"
        return f"PermGroup(degree={self.degree}, gens={len(self.gens)})"


# ---------------------------------------------------------------------------
# standard groups
# ---------------------------------------------------------------------------

def trivial_group(degree: int = 1) -> PermGroup:
    return PermGroup(degree, [], name="1", known_order=1)


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    if n == 1:
        return trivial_group()
    return PermGroup(n, [Perm.from_cycles(n, tuple(range(n)))], name=f"C{n}", known_order=n)


def symmetric_group(n: int) -> PermGroup:
    if n <= 2:
        return cyclic_group(max(n, 1))
    gens = [Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))]
    return PermGroup(n, gens, name=f"S{n}", known_order=math.factorial(n))


def alternating_group(n: int) -> PermGroup:
    """Alt(n); order and membership never enumerate.

    For n > 5 the generators are (0 1 2) with the n-cycle (n odd) or the
    (n-1)-cycle on 1..n-1 (n even), so a tower stage carries two of them.
    Up to n = 5 they stay the consecutive 3-cycles: stage 0's element order,
    and with it every report, follows Alt(5)'s generators.
    """
    if n < 3:
        return PermGroup(max(n, 1), [], name=f"Alt({n})", known_order=1)
    if n <= 5:
        gens = [Perm.from_cycles(n, (i, i + 1, i + 2)) for i in range(n - 2)]
    else:
        long_cycle = tuple(range(0 if n % 2 else 1, n))
        gens = [Perm.from_cycles(n, (0, 1, 2)), Perm.from_cycles(n, long_cycle)]

    def contains(p: Perm) -> bool:
        return p.degree == n and p.is_even()

    return PermGroup(
        n,
        gens,
        name=f"Alt({n})",
        known_order=math.factorial(n) // 2,
        known_simple=n >= 5,
        contains_hook=contains,
    )


def klein_four_group() -> PermGroup:
    gens = [Perm.from_cycles(4, (0, 1), (2, 3)), Perm.from_cycles(4, (0, 2), (1, 3))]
    return PermGroup(4, gens, name="C2xC2", known_order=4)


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    if n < 3:
        raise ValueError("dihedral rank must be >= 3")
    rot = Perm.from_cycles(n, tuple(range(n)))
    ref = Perm([0] + [n - i for i in range(1, n)])
    return PermGroup(n, [rot, ref], name=f"D{n}", known_order=2 * n)


def quaternion_group() -> PermGroup:
    """Order-8 quaternion group via its left regular representation."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): ("+", "1"), ("1", "i"): ("+", "i"), ("1", "j"): ("+", "j"), ("1", "k"): ("+", "k"),
        ("i", "1"): ("+", "i"), ("i", "i"): ("-", "1"), ("i", "j"): ("+", "k"), ("i", "k"): ("-", "j"),
        ("j", "1"): ("+", "j"), ("j", "i"): ("-", "k"), ("j", "j"): ("-", "1"), ("j", "k"): ("+", "i"),
        ("k", "1"): ("+", "k"), ("k", "i"): ("+", "j"), ("k", "j"): ("-", "i"), ("k", "k"): ("-", "1"),
    }

    def mul(a: str, b: str) -> str:
        sa, ua = ("-", a[1:]) if a.startswith("-") else ("+", a)
        sb, ub = ("-", b[1:]) if b.startswith("-") else ("+", b)
        sc, uc = base[(ua, ub)]
        neg = [sa, sb, sc].count("-") % 2
        return ("-" if neg else "") + uc

    idx = {u: t for t, u in enumerate(units)}
    gens = []
    for gen in ("i", "j"):
        gens.append(Perm([idx[mul(gen, u)] for u in units]))
    return PermGroup(8, gens, name="Q8", known_order=8)


@dataclass
class DirectSum:
    group: PermGroup
    inject_a: "Hom"
    inject_b: "Hom"


def direct_sum(a: PermGroup, b: PermGroup) -> DirectSum:
    """Block direct sum with its two block injections as homs.

    The maps are verified on use (`Hom.verify` is the complete proof and
    fills no table); for factors past the element budget they stay symbolic
    and any forced evaluation raises the budget error.
    The sum's element budget is the smaller of the factors' budgets.
    """
    da, db = a.degree, b.degree
    left = [g.extend(da + db) for g in a.gens]
    right = [Perm._make(tuple(range(da)) + tuple(x + da for x in g.images)) for g in b.gens]
    try:
        known = a.order() * b.order()
    except EnumerationBudgetError:
        known = None

    def block_hook(p: Perm) -> bool:
        images = p.images
        if any(x >= da for x in images[:da]):
            return False  # mixes the two blocks
        # p keeps both blocks, so each half is a permutation of its block; a
        # factor answers by its own hook or its index, which raises past its budget
        return (Perm._make(images[:da]) in a
                and Perm._make(tuple(x - da for x in images[da:])) in b)

    name = f"{a.label()}(+){b.label()}"
    budget = min(a.enum_budget, b.enum_budget)
    group = PermGroup(da + db, left + right, name=name, known_order=known,
                      contains_hook=block_hook, enum_budget=budget)
    ia = Hom(a, group, left, name="inject_a")
    ib = Hom(b, group, right, name="inject_b")
    return DirectSum(group, ia, ib)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class Hom:
    """Homomorphism fixed by generator images, proved on columns; rows filled on demand.

    `verify()` proves the map at one point p, smallest first, of each orbit of
    I = <f(gens)> that an image moves (`_orbit_columns`).  Column p holds f(x)(p)
    for every domain position x, filled along the domain's left walk,
    f(g x)(p) = f(g)(f(x)(p)), and col[g x] == f(g)(col[x]) is checked for every
    generator g and element x.  That is a complete proof: f(w)(p) == col[w] for
    every word w, so for words w, w' of one value f(w) and f(w') agree at f(u)(p)
    for every word u, i.e. on all of I p, and I fixes the other points.  The kept
    columns decide `is_injective()`; `column(p)` reads any point's column.  The row
    table `mapping` (row i: the image of `domain.elements()[i]` as codomain points,
    smallest signed dtype) is filled along the walk's tree, T[x g] = T[x] f(g), only
    for `hom(x)` off the generators, `positions()` (kept) and `is_surjective()`.
    """

    def __init__(self, domain: PermGroup, codomain: PermGroup, gen_images, name=None):
        self.domain = domain
        self.codomain = codomain
        self.gen_images = tuple(gen_images)
        self.name = name
        if len(self.gen_images) != len(domain.gens):
            raise ValueError("need one image per domain generator")
        for im in self.gen_images:
            if im.degree != codomain.degree:
                raise ValueError("image degree mismatch")
            if im not in codomain:
                raise ValueError("generator image outside codomain")
        self._columns = None  # {p: column p} for one point per moved orbit, once proved
        self._mapping = None  # the row table, once filled
        self._positions = None  # positions(), once read

    @property
    def mapping(self) -> np.ndarray:
        if self._mapping is None:
            self._mapping = self.verify()._build_table()
        return self._mapping

    def _build_table(self) -> np.ndarray:
        ix = self.domain._indexed()  # its tree reaches every position but 0
        degree = self.codomain.degree
        images = np.array([fg.images for fg in self.gen_images], dtype=np.intp)
        images = images.reshape(len(self.gen_images), degree)
        table = np.empty((len(ix.elements), degree), dtype=_point_dtype(degree))
        table[0] = np.arange(degree)  # position 0 is the identity
        for a, y, k in ix.tree:  # f(x g) = f(x) f(g) along the BFS tree
            table[y] = table[a].take(images[k])
        return table

    def __call__(self, x: Perm) -> Perm:
        if self._mapping is None:
            # generator and identity images need no table; this keeps block
            # injections usable when the domain is past the element budget
            if x == self.domain.identity():
                return self.codomain.identity()
            for g, fg in zip(self.domain.gens, self.gen_images):
                if x == g:
                    return fg
        return Perm._make(tuple(self.mapping[self.domain._indexed().pos[x]].tolist()))

    def positions(self) -> list[int]:
        """The codomain position of each domain element's image, in domain order."""
        if self._positions is None:
            pos = self.codomain._indexed().pos  # a codomain past its budget raises here
            self._positions = [pos[Perm._make(tuple(row.tolist()))] for row in self.mapping]
        return self._positions

    def column(self, p: int) -> list[int]:
        """f(x)(p) for each domain element x, in domain order, once the map is proved."""
        return _column(self.verify().domain._indexed(), self.gen_images, p)

    def verify(self) -> "Hom":
        """Prove the map on its orbit columns (see the class), or raise ValueError."""
        if self._columns is None:
            ix, columns = self.domain._indexed(), {}
            lefts = ix.left_walk()[0]  # g x for every x
            for p, col in _orbit_columns(ix, self.gen_images):
                at = itemgetter(*col)
                for row, fg in zip(lefts, self.gen_images):
                    if itemgetter(*row)(col) != at(fg.images):
                        x = next(x for x in range(len(col)) if col[row[x]] != fg.images[col[x]])
                        raise ValueError("generator images do not define a homomorphism "
                                         f"(conflict at {ix.elements[row[x]]!r})")
                columns[p] = col
            self._columns = columns
        return self

    def is_injective(self) -> bool:
        # f(x) is the identity when col[x u] == col[u] for every kept column and every
        # u, as f(x u)(p) = f(x)(f(u)(p)); only an x with col[x] == p can pass
        ix, columns = self.domain._indexed(), self.verify()._columns
        candidates = range(1, len(ix.elements))  # position 0 is the identity
        for p, col in columns.items():
            candidates = [x for x in candidates if col[x] == p]
        kept = [tuple(col) for col in columns.values()]
        return not any([itemgetter(*ix.row(x))(c) for c in kept] == kept for x in candidates)

    def is_surjective(self) -> bool:
        # the image is a subgroup of the codomain, so it is onto when it is as large
        return len({row.tobytes() for row in self.mapping}) == self.codomain.order()

    def __repr__(self):
        nm = f" {self.name}" if self.name else ""
        return f"Hom({self.domain.label()} -> {self.codomain.label()}{nm})"


def _column(ix: _Index, gen_images, p: int) -> list[int]:
    """f(x)(p) for every position x of ix, along its left walk: f(g x)(p) = f(g)(f(x)(p))."""
    images = [fg.images for fg in gen_images]
    col = [p] * len(ix.elements)  # position 0 is the identity
    for a, y, k in ix.left_walk()[1]:
        col[y] = images[k][col[a]]
    return col


def _orbit_columns(ix: _Index, gen_images):
    """(p, column p) for one point p, smallest first, of each orbit that an image
    moves, lazily: column p lies in p's orbit, so it covers its points."""
    covered = set()
    for p in sorted({p for fg in gen_images for p, x in enumerate(fg.images) if p != x}):
        if p not in covered:
            col = _column(ix, gen_images, p)
            covered.update(col)
            yield p, col


def _point_dtype(degree: int):
    """The smallest signed integer dtype that holds the points 0 .. degree - 1."""
    return np.int8 if degree <= 1 << 7 else np.int16 if degree <= 1 << 15 else np.int32


_PAIR_TABLE_LIMIT = 1024  # largest domain given the all-pairs check


def verify_hom_table(h: Hom) -> bool:
    """Redundant all-pairs table check: f(xy) == f(x)f(y) for all x, y.

    `Hom.verify` already proves the hom property; this is the
    belt-and-braces full multiplication-table pass, used before returning
    isomorphisms.  Falls back to the (complete) generator-pair proof when
    the square table would be too large.
    """
    h.verify()
    els = h.domain.elements()
    if len(els) <= _PAIR_TABLE_LIMIT:
        for x in els:
            hx = h(x)
            for y in els:
                if h(x * y) != hx * h(y):
                    return False
        return True
    for x in els:
        hx = h(x)
        for g, fg in zip(h.domain.gens, h.gen_images):
            if h(x * g) != hx * fg:
                return False
    return True


def _order_pool(x: Perm, codomain: PermGroup, exact: bool = False) -> list[Perm]:
    """Candidate images of x: order dividing x's order, or equal to it if exact.

    Any hom sends an order-n element to one whose order divides n, and an
    injective one keeps the order, so this pruning never loses a hom.
    """
    n = x.order()
    return [y for y in codomain.elements()
            if (y.order() == n if exact else n % y.order() == 0)]


def _homs(domain: PermGroup, codomain: PermGroup, candidates):
    """Homs sending the generators to each candidate tuple of images, lazily, in order.

    Candidates whose proof finds a conflict are skipped, so every yielded
    Hom is verified; none of them has filled a table.
    """
    for images in candidates:
        try:
            yield Hom(domain, codomain, images).verify()
        except ValueError:
            continue


def _onto(codomain: PermGroup, pools):
    """The tuples of `itertools.product(*pools)`, in product order, that generate codomain:
    a hom is onto exactly when its generator images do, so no table is needed."""
    ix = codomain._indexed()
    n = len(ix.elements)
    for images in itertools.product(*pools):
        if _closure_mask(codomain, [ix.pos[y] for y in images], n) == (1 << n) - 1:
            yield images


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def conjugacy_classes(g: PermGroup) -> list[tuple[Perm, ...]]:
    """Conjugacy classes in deterministic order (by first element found)."""
    els = g.elements()
    seen = set()
    classes = []
    for i in range(len(els)):
        if i not in seen:
            orbit = [zs[0] for zs in _subgroup_class(g, [i]).values()]
            seen.update(orbit)
            classes.append(tuple(sorted(els[j] for j in orbit)))
    return classes


def center_elements(g: PermGroup) -> tuple[Perm, ...]:
    """Z(g) in position order: x is central when x s (the walk's step) equals s x (s's row)."""
    ix = g._indexed()
    steps = [(r, ix.row(r[0])) for r in ix.right]
    return tuple(x for i, x in enumerate(ix.elements) if all(r[i] == row[i] for r, row in steps))


def derived_subgroup_elements(g: PermGroup) -> tuple[Perm, ...]:
    """G' in g's position order: the normal closure of the generators' commutators."""
    pos = g._indexed().pos
    comms = [pos[~a * ~b * a * b] for a, b in itertools.combinations(g.gens, 2)]
    mask = _normal_closure_mask(g, comms)[1]
    return tuple(x for i, x in enumerate(g.elements()) if mask >> i & 1)


def _normal_closure_mask(g: PermGroup, positions) -> tuple[list[int], int]:
    """The conjugates of the given positions and the mask of the subgroup they generate."""
    conjugates = {}  # an ordered set; two classes are equal or disjoint
    for i in positions:
        if i not in conjugates:
            conjugates.update(dict.fromkeys(zs[0] for zs in _subgroup_class(g, [i]).values()))
    mask = _greedy_generators(g, conjugates)[1]
    if mask.bit_count() > g.enum_budget:
        raise EnumerationBudgetError(f"normal closure exceeded budget {g.enum_budget}")
    return list(conjugates), mask


def normal_closure(g: PermGroup, x: Perm) -> PermGroup:
    """Smallest normal subgroup of g containing x, generated by x's conjugates."""
    if x not in g:
        raise ValueError("element outside the group")
    conjugates, mask = _normal_closure_mask(g, [g._indexed().pos[x]])
    return PermGroup(g.degree, [g.elements()[i] for i in conjugates],
                     known_order=mask.bit_count(), enum_budget=g.enum_budget)


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    witness: PermGroup | None  # proper nontrivial normal subgroup, if any


def is_simple(g: PermGroup) -> SimplicityReport:
    """Exhaustive: normal closure of one representative per conjugacy class."""
    n = g.order()
    if n == 1:
        return SimplicityReport(False, None)  # trivial group: not simple
    for cls in conjugacy_classes(g):
        rep = cls[0]
        if rep.is_identity():
            continue
        nc = normal_closure(g, rep)
        if nc.order() < n:
            return SimplicityReport(False, nc)
    return SimplicityReport(True, None)


def _bits(mask: int) -> list[int]:
    """The set positions of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subgroup_class(g: PermGroup, positions: list[int]) -> dict[int, list[int]]:
    """The class of the set on `positions` (any position list) as {mask: positions}.

    Each member's list is the image of `positions` under y -> s y s^-1 for
    one s that carries the set onto it, so it maps the given elements, in
    the given order, to the member's.  The walk is FIFO over g's generators,
    reading s y s^-1 from `_Index.conjugators()`.
    """
    steps = g._indexed().conjugators()
    members = {sum(1 << y for y in positions): positions}
    queue = [positions]
    for ys in queue:
        for row, undo in steps:
            zs = [undo[row[y]] for y in ys]
            mask = sum(1 << z for z in zs)
            if mask not in members:
                members[mask] = zs
                queue.append(zs)
    return members


def subgroups_containing(
    g: PermGroup, seed_gens, order_bound: int
) -> list[PermGroup]:
    """All subgroups H with <seed_gens> <= H <= g and |H| <= order_bound.

    Each call builds the lattice up to min(order_bound, |g|) as bitmasks of
    element positions (`_lattice`) and keeps nothing.  A cyclic-extension
    search from <seed_gens> runs on the masks alone, so H's generators are
    seed_gens + path; for each K it reads only the masks holding one element
    of K.  The list is in the lattice's order.
    """
    els, pos = g.elements(), g._indexed().pos
    if not all(x in pos for x in seed_gens):
        raise ValueError("element outside the group")
    seed = tuple(pos[x] for x in seed_gens)
    base = _closure_mask(g, seed, order_bound)
    if base is None:
        return []
    lattice = _lattice(g, min(order_bound, len(els)))
    kept = {m: ys for m, ys in lattice.items() if not base & ~m}
    holders = {}  # position y -> the kept masks that contain y, smallest first
    for m, ys in kept.items():
        for y in ys:
            holders.setdefault(y, []).append(m)
    paths, queue = {base: seed}, [base]
    for k in queue:
        taken, steps = k, []
        # every mask above K holds each y in K, so one holder list has them all;
        # smallest first, so x's first hit is <K, x>
        for m in min((holders[y] for y in kept[k]), key=len):
            if not k & ~m and (fresh := m & ~taken):
                steps.append(((fresh & -fresh).bit_length() - 1, m))
                taken |= m
        for x, m in sorted(steps):
            if m not in paths:
                paths[m] = paths[k] + (x,)
                queue.append(m)
    return [PermGroup(g.degree, [els[i] for i in paths[m]], known_order=len(ys),
                      enum_budget=g.enum_budget)
            for m, ys in kept.items()]


def _lattice(g: PermGroup, bound: int) -> dict[int, list[int]]:
    """Every subgroup of g of order <= bound, as {mask: positions}, sorted by
    (order, sorted element images).  It extends one subgroup per conjugacy
    class and adds each new class whole (s<K, x>s^-1 = <sKs^-1, sxs^-1>), and
    closes <K, x> once per coset Kx, never when lcm(|K|, ord x) > bound."""
    ix = g._indexed()
    els = ix.elements
    orders = [x.order() for x in els]
    found = {1: [0]}  # every subgroup found: the trivial one is position 0 alone
    reps = {1: ()}  # one per class, with the generator positions its closure took
    queue = list(reps)
    full = (1 << len(els)) - 1
    for mask in queue:
        if mask == full:
            continue  # no coset outside K
        rows = [ix.row(k) for k in found[mask]]
        done = mask
        for x in range(len(els)):
            if done >> x & 1:
                continue
            for row in rows:  # mark the coset Kx, whose elements all give <K, x>
                done |= 1 << row[x]
            if math.lcm(len(rows), orders[x]) > bound:
                continue
            gens = reps[mask] + (x,)
            bigger = _closure_mask(g, gens, bound)
            if bigger and bigger not in found:
                found.update(_subgroup_class(g, _bits(bigger)))
                reps[bigger] = gens
                queue.append(bigger)
    rank = [0] * len(els)  # sorting positions by rank sorts their elements by images
    for r, i in enumerate(sorted(range(len(els)), key=lambda i: els[i].images)):
        rank[i] = r
    return {m: found[m] for m in sorted(
        found, key=lambda m: (len(found[m]), sorted(rank[y] for y in found[m])))}


def subgroups(g: PermGroup, order_bound: int) -> list[PermGroup]:
    """All subgroups of g with order <= order_bound, smallest first."""
    return subgroups_containing(g, [], order_bound)


def order_profile(g: PermGroup) -> tuple:
    return tuple(sorted(Counter(x.order() for x in g.elements()).items()))


def _iso_invariants(g: PermGroup):
    return {
        "order": g.order(),
        "abelian": g.is_abelian(),
        "element order profile": order_profile(g),
        "center size": len(center_elements(g)),
        "derived subgroup size": len(derived_subgroup_elements(g)),
        "conjugacy class sizes": tuple(sorted(len(c) for c in conjugacy_classes(g))),
    }


def iso_invariant_mismatch(g: PermGroup, h: PermGroup):
    """Name and values of the first cheap invariant separating g and h."""
    gi, hi = _iso_invariants(g), _iso_invariants(h)
    for key in gi:
        if gi[key] != hi[key]:
            return (key, gi[key], hi[key])
    return None


def _generating_sequence(g: PermGroup) -> list[Perm]:
    """Greedy small generating sequence from the element list."""
    els = g.elements()
    return [els[i] for i in _greedy_generators(g, range(len(els)))[0]]


def _iso_search(g: PermGroup, h: PermGroup):
    """Isomorphisms g -> h, lazily, by generator-image search.

    Candidates are pruned by element order and conjugacy class size (both
    preserved by any isomorphism, so pruning is sound for negatives too).
    Every yielded map passes the full table check.
    """
    if iso_invariant_mismatch(g, h) is not None:
        return
    seq = _generating_sequence(g)
    size_h = {y: len(c) for c in conjugacy_classes(h) for y in c}
    size_g = {x: len(c) for c in conjugacy_classes(g) for x in c}
    pools = [[y for y in _order_pool(x, h, exact=True) if size_h[y] == size_g[x]]
             for x in seq]
    # the search runs on g itself when seq is g's generator list (every catalog group)
    domain = g if seq == list(g.gens) else PermGroup(
        g.degree, seq, known_order=g.order(), enum_budget=g.enum_budget)
    # |g| = |h| here, so a map onto h is bijective; it is handed back on g itself,
    # whose generators and element order can differ from the search domain's
    for hom in _homs(domain, h, _onto(h, pools)):
        iso = hom if domain is g else Hom(g, h, [hom(x) for x in g.gens])
        if verify_hom_table(iso):
            yield iso


def brute_iso(g: PermGroup, h: PermGroup) -> Hom | None:
    """First isomorphism g -> h in deterministic search order, or None."""
    return next(_iso_search(g, h), None)


def automorphisms(g: PermGroup) -> PermGroup:
    """Automorphism group acting on g's element list by position."""
    degree = len(g.elements())
    perms = sorted(Perm(hom.positions()) for hom in _iso_search(g, g))
    if not perms:
        raise AssertionError("identity automorphism missing")
    # greedy generators: each automorphism not yet reached; sorted, the identity is first
    gens, reached = [], {perms[0]}
    for p in perms:
        if p not in reached:
            gens.append(p)
            reached = set(closure_elements(gens, degree))
    return PermGroup(degree, gens, name=f"Aut({g.label()})",
                     known_order=len(perms), enum_budget=g.enum_budget)


def cayley_embedding_even(g: PermGroup) -> Hom:
    """Left-regular embedding into Alt(|g| + 2).

    Left multiplication permutes the element list; whenever that permutation
    is odd, the two auxiliary points are swapped to repair parity.  The
    correction is itself a homomorphism into C2 (parity is multiplicative),
    so the combined map is an injective hom landing in the alternating group.
    """
    ix = g._indexed()
    m = len(ix.elements)
    target = alternating_group(m + 2)

    def embed(x: Perm) -> Perm:
        images = ix.row(ix.pos[x])  # x y for every y
        tail = [m, m + 1] if Perm._make(tuple(images)).is_even() else [m + 1, m]
        return Perm(images + tail)

    return Hom(g, target, [embed(x) for x in g.gens], name="cayley_even")


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quotient:
    group: PermGroup  # left regular action on the cosets, numbered by first position
    coset_of: list    # coset_of[i]: the coset of g.elements()[i]


def quotient_group(g: PermGroup, normal: int) -> Quotient:
    """Quotient by the normal subgroup N (a position mask), as the regular action on its cosets.

    The cosets are walked along g's tree: for its step x = a s, xN = (aN)s as
    N is normal.  g's generators act through their rows; one that acts
    trivially or repeats an earlier one is left out."""
    ix = g._indexed()
    if normal >> len(ix.elements):
        raise ValueError("subgroup is not inside the group")
    npos = _bits(normal)
    # a normal subgroup is exactly a set that equals its own normal closure
    if _normal_closure_mask(g, npos)[1] != normal:
        raise ValueError("not a normal subgroup")
    coset_of, cosets = [-1] * len(ix.elements), [npos]  # N is coset 0
    for y in npos:
        coset_of[y] = 0
    for a, x, k in ix.tree:  # ascending x, so each coset opens at its first position
        if coset_of[x] < 0:
            cosets.append([ix.right[k][y] for y in cosets[coset_of[a]]])
            for y in cosets[-1]:
                coset_of[y] = len(cosets) - 1
    gens = []
    for row, _ in ix.conjugators():  # s sends coset j to the coset of s c, any c in it
        s = Perm._make(tuple(coset_of[row[c[0]]] for c in cosets))
        if not s.is_identity() and s not in gens:
            gens.append(s)
    return Quotient(PermGroup(len(cosets), gens, known_order=len(cosets)), coset_of)


# ---------------------------------------------------------------------------
# hom enumeration (used by lifting and the extension-property audits)
# ---------------------------------------------------------------------------

def enumerate_homs(
    f: PermGroup, g: PermGroup, injective_only: bool = False
) -> list[Hom]:
    """All homomorphisms f -> g by exhaustive generator-image search."""
    return list(_hom_search(f, g, injective_only))


def _hom_search(f: PermGroup, g: PermGroup, injective_only: bool = False):
    """The homs `enumerate_homs` lists, lazily and in the same order.  Candidates
    are pruned by element order (`_order_pool`), which loses no hom."""
    pools = [_order_pool(x, g, exact=injective_only) for x in f.gens]
    return (hom for hom in _homs(f, g, itertools.product(*pools))
            if not injective_only or hom.is_injective())


# ---------------------------------------------------------------------------
# the small-group catalog (orders 1..11, complete up to isomorphism)
# ---------------------------------------------------------------------------

CATALOG_MAX_ORDER = 11


def small_groups_catalog(max_order: int) -> list[PermGroup]:
    """Every group of order <= max_order up to isomorphism (max_order <= 11)."""
    if max_order > CATALOG_MAX_ORDER:
        raise ValueError(
            f"catalog covers orders up to {CATALOG_MAX_ORDER}, asked {max_order}"
        )
    def c2xc4():
        return PermGroup(
            6,
            [Perm.from_cycles(6, (0, 1, 2, 3)), Perm.from_cycles(6, (4, 5))],
            name="C4xC2",
            known_order=8,
        )

    def c2cubed():
        return PermGroup(
            6,
            [
                Perm.from_cycles(6, (0, 1)),
                Perm.from_cycles(6, (2, 3)),
                Perm.from_cycles(6, (4, 5)),
            ],
            name="C2xC2xC2",
            known_order=8,
        )

    def c3xc3():
        return PermGroup(
            6,
            [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (3, 4, 5))],
            name="C3xC3",
            known_order=9,
        )

    catalog = [
        (1, trivial_group),
        (2, lambda: cyclic_group(2)),
        (3, lambda: cyclic_group(3)),
        (4, lambda: cyclic_group(4)),
        (4, klein_four_group),
        (5, lambda: cyclic_group(5)),
        (6, lambda: cyclic_group(6)),
        (6, lambda: symmetric_group(3)),
        (7, lambda: cyclic_group(7)),
        (8, lambda: cyclic_group(8)),
        (8, c2xc4),
        (8, c2cubed),
        (8, lambda: dihedral_group(4)),
        (8, quaternion_group),
        (9, lambda: cyclic_group(9)),
        (9, c3xc3),
        (10, lambda: cyclic_group(10)),
        (10, lambda: dihedral_group(5)),
        (11, lambda: cyclic_group(11)),
    ]
    return [build() for order, build in catalog if order <= max_order]


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def format_group(g: PermGroup) -> str:
    lines = [f"p group {g.degree}"]
    for gen in g.gens:
        lines.append("g: " + " ".join(str(x) for x in gen.images))
    return "\n".join(lines) + "\n"


def parse_group(text: str) -> PermGroup:
    """Parse the group text format; `#` comments.

    A degree above `DEFAULT_POINT_BUDGET` is refused before anything is built.
    """
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("p "):
            parts = line.split()
            if degree is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 3 or parts[1] != "group":
                raise ParseError("expected `p group <degree>`", lineno)
            try:
                degree = int(parts[2])
            except ValueError:
                raise ParseError(f"bad degree {parts[2]!r}", lineno)
            if degree < 1:
                raise ParseError("degree must be >= 1", lineno)
            if degree > DEFAULT_POINT_BUDGET:
                raise ParseError(
                    f"degree {degree} exceeds the point budget {DEFAULT_POINT_BUDGET}",
                    lineno,
                )
        elif line.startswith("g:"):
            if degree is None:
                raise ParseError("generator before problem line", lineno)
            try:
                images = [int(tok) for tok in line[2:].split()]
            except ValueError:
                raise ParseError("generator images must be integers", lineno)
            if len(images) != degree:
                raise ParseError(
                    f"expected {degree} images, found {len(images)}", lineno
                )
            try:
                gens.append(Perm(images))
            except ValueError as exc:
                raise ParseError(str(exc), lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if degree is None:
        raise ParseError("missing `p group <degree>` line")
    return PermGroup(degree, gens)
