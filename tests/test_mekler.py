"""Graph groups on vertex generators with non-edge commutator coordinates.

Two independent oracles pin the arithmetic:
  * a literal letter-collection multiplier (expand both normal forms into
    vertex letters, bubble-sort the concatenation, count every swap) checked
    against the coordinate rules, and
  * dense multiplication tables checked for identity, inverses, Latin-square
    shape, exponent p, and sampled associativity, with the exhaustive
    associativity sweep living in the acceptance suite.

The dense table is built from the central factorisation of the group, so it
is also compared entry for entry with the literal row loop, which takes one
array product per row and assumes nothing about the group.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from conftest import all_graphs, random_graph
from meklerkit import (
    Graph,
    PcHom,
    build_mekler,
    complete_graph,
    cycle_graph,
    extend,
    path_graph,
    petersen_graph,
    recover_graph,
)
from meklerkit.mekler import MAX_P, TABLE_LIMIT


def collect_multiply(pc, u, v):
    """Letter-collection oracle for the product of two normal forms.

    Expands u then v into single vertex letters, bubble-sorts the letter
    list while counting swaps per vertex pair, and folds each swap of
    g_y past g_x (y > x) into [g_x, g_y]^-1.  Swaps on adjacent pairs
    contribute nothing.  Central coordinates simply add.
    """
    letters = []
    for src in (u, v):
        for x in range(pc.n):
            letters.extend([x] * src.a[x])
    swaps = Counter()
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] > letters[i + 1]:
                lo, hi = letters[i + 1], letters[i]
                swaps[(lo, hi)] += 1
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    a_out = [0] * pc.n
    for x in letters:
        a_out[x] += 1
    b_out = [(bu + bv) % pc.p for bu, bv in zip(u.b, v.b)]
    for t, (x, y) in enumerate(pc.nonedges):
        b_out[t] = (b_out[t] - swaps[(x, y)]) % pc.p
    return pc.element(a_out, b_out)


def random_element(rng, pc):
    return pc.element(
        [rng.randrange(pc.p) for _ in range(pc.n)],
        [rng.randrange(pc.p) for _ in range(pc.num_pairs)],
    )


def test_p_validation():
    for bad in (0, 1, 2, 4, 6, 9, 15, -3, 2147483659):
        with pytest.raises(ValueError):
            build_mekler(path_graph(2), bad)
    build_mekler(path_graph(2), 3)
    build_mekler(path_graph(2), 7)


def test_order_formula():
    pc = build_mekler(cycle_graph(5), 3)
    assert pc.order() == 3 ** 10
    assert pc.order_expression() == "3^10"
    assert build_mekler(cycle_graph(5), 5).order_expression() == "5^10"
    assert build_mekler(petersen_graph(), 3).order_expression() == "3^40"
    assert build_mekler(Graph.from_edges(0, []), 3).order() == 1
    assert build_mekler(complete_graph(4), 3).order() == 3 ** 4


def test_order_matches_closure_from_generators():
    # BFS over products of generators and their inverses must fill the group
    for g in list(all_graphs(3)) + [path_graph(4), complete_graph(4)]:
        pc = build_mekler(g, 3)
        gens = pc.generators()
        step = gens + [pc.inverse(x) for x in gens]
        seen = {pc.identity()}
        frontier = [pc.identity()]
        while frontier:
            fresh = []
            for x in frontier:
                for s in step:
                    y = pc.multiply(x, s)
                    if y not in seen:
                        seen.add(y)
                        fresh.append(y)
            frontier = fresh
        assert len(seen) == pc.order(), g.edges


def test_letter_collection_oracle():
    rng = random.Random(41)
    cases = [(g, 3) for g in all_graphs(3)]
    cases += [(random_graph(rng, 4), 3) for _ in range(6)]
    cases += [(random_graph(rng, 3), 5) for _ in range(4)]
    for g, p in cases:
        pc = build_mekler(g, p)
        for _ in range(120):
            u, v = random_element(rng, pc), random_element(rng, pc)
            assert pc.multiply(u, v) == collect_multiply(pc, u, v)


def test_identity_inverse_exponent_exhaustive_small():
    for g in all_graphs(2):
        pc = build_mekler(g, 3)
        e = pc.identity()
        for u in pc.all_elements():
            assert pc.multiply(u, e) == u
            assert pc.multiply(e, u) == u
            assert pc.multiply(u, pc.inverse(u)) == e
            assert pc.multiply(pc.inverse(u), u) == e
            cube = pc.multiply(pc.multiply(u, u), u)
            assert cube == e


def test_operator_sugar_matches_engine():
    rng = random.Random(43)
    pc = build_mekler(cycle_graph(5), 3)
    for _ in range(200):
        u, v = random_element(rng, pc), random_element(rng, pc)
        assert u * v == pc.multiply(u, v)
        assert ~u == pc.inverse(u)
        assert u ** 3 == pc.power(u, 3)
        assert u ** -2 == pc.power(u, -2)


def test_power_matches_iterated_product():
    rng = random.Random(47)
    empty3 = Graph.from_edges(3, [])
    for g, p in [(path_graph(3), 3), (cycle_graph(5), 5), (empty3, 3)]:
        pc = build_mekler(g, p)
        for _ in range(60):
            u = random_element(rng, pc)
            acc = pc.identity()
            for k in range(2 * p + 2):
                assert pc.power(u, k) == acc
                assert pc.power(u, -k) == pc.inverse(acc)
                acc = pc.multiply(acc, u)
            assert pc.power(u, p) == pc.identity()


def test_commutator_is_literal_commutator():
    rng = random.Random(53)
    for g in all_graphs(2):
        pc = build_mekler(g, 3)
        for u in pc.all_elements():
            for v in pc.all_elements():
                lit = pc.multiply(
                    pc.multiply(pc.inverse(u), pc.inverse(v)), pc.multiply(u, v)
                )
                assert pc.commutator(u, v) == lit
    pc = build_mekler(cycle_graph(5), 3)
    for _ in range(400):
        u, v = random_element(rng, pc), random_element(rng, pc)
        lit = pc.multiply(
            pc.multiply(pc.inverse(u), pc.inverse(v)), pc.multiply(u, v)
        )
        assert pc.commutator(u, v) == lit


def test_generator_commutators_track_edges():
    rng = random.Random(59)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 6))
        pc = build_mekler(g, 3)
        for x, y in itertools.combinations(range(g.n), 2):
            comm = pc.commutator(pc.generator(x), pc.generator(y))
            assert comm.is_identity() == g.adjacent(x, y)
            if not g.adjacent(x, y):
                assert comm == pc.commutator_basis(x, y)
                assert pc.commutator(
                    pc.generator(y), pc.generator(x)
                ) == pc.inverse(comm)


def test_commutators_are_central_and_class_two():
    rng = random.Random(61)
    pc = build_mekler(path_graph(4), 3)
    for _ in range(200):
        u, v, w = (random_element(rng, pc) for _ in range(3))
        c = pc.commutator(u, v)
        assert c.a == (0,) * pc.n
        assert pc.multiply(c, w) == pc.multiply(w, c)
        # [[u, v], w] = e
        assert pc.commutator(c, w).is_identity()


def test_center_against_literal_centralizer():
    for g in all_graphs(3):
        pc = build_mekler(g, 3)
        els = list(pc.all_elements())
        literal = [
            u for u in els if all(pc.multiply(u, v) == pc.multiply(v, u) for v in els)
        ]
        report = pc.center()
        assert len(literal) == report.order()
        # the center is every (a, b) with a supported on universal vertices
        universal = set(pc.universal_vertices())
        for u in els:
            assert all(u.a[v] == 0 for v in range(pc.n) if v not in universal) == (
                u in literal)
    assert build_mekler(path_graph(3), 3).universal_vertices() == (1,)
    assert build_mekler(complete_graph(3), 3).universal_vertices() == (0, 1, 2)
    assert build_mekler(cycle_graph(5), 3).center().order_expression() == "3^5"


def test_recover_graph_round_trip():
    rng = random.Random(67)
    for n in range(5):
        for g in all_graphs(n):
            for p in (3, 5):
                back = recover_graph(build_mekler(g, p))
                assert back.n == g.n and back.edges == g.edges
    for _ in range(20):
        g = random_graph(rng, 7)
        assert recover_graph(build_mekler(g, 3)).edges == g.edges


def test_element_indexing():
    pc = build_mekler(path_graph(3), 3)
    els = list(pc.all_elements())
    assert len(els) == pc.order() == len(set(els))
    for i in (0, 1, 5, 80, pc.order() - 1):
        assert pc.element_index(els[i]) == i
        assert pc.element_from_index(i) == els[i]
    assert els[0] == pc.identity()


def test_coordinate_matrix_and_array_ops():
    rng = random.Random(71)
    for g, p in [(path_graph(3), 3), (cycle_graph(5), 3), (complete_graph(3), 5)]:
        pc = build_mekler(g, p)
        if pc.order() <= 3 ** 8:
            A, B = pc.coordinate_matrix()
            els = list(pc.all_elements())
            assert A.shape == (pc.order(), pc.n)
            assert B.shape == (pc.order(), pc.num_pairs)
            for i in rng.sample(range(pc.order()), 40):
                assert tuple(A[i]) == els[i].a and tuple(B[i]) == els[i].b
        for _ in range(80):
            u, v = random_element(rng, pc), random_element(rng, pc)
            ua = np.array(u.a)[None, :]
            ub = np.array(u.b, dtype=np.int64).reshape(1, -1)
            va = np.array(v.a)[None, :]
            vb = np.array(v.b, dtype=np.int64).reshape(1, -1)
            pa, pb = pc.multiply_arrays(ua, ub, va, vb)
            prod = pc.multiply(u, v)
            assert tuple(pa[0]) == prod.a and tuple(pb[0]) == prod.b


# the smallest prime, the primes on each side of every working-dtype switch,
# and MAX_P, where (p - 1)^2 is just under 2^62
DTYPE_EDGES = [
    (3, np.int8), (11, np.int8), (13, np.int16), (181, np.int16),
    (191, np.int32), (46337, np.int32), (46349, np.int64), (MAX_P, np.int64),
]


def edge_rows(pc, rng):
    """Coordinate rows: all p - 1, alternating p - 1 and 0 (each side of the
    correction a_y a'_x at its extreme), its complement, then random rows."""
    p, n, m = pc.p, pc.n, pc.num_pairs
    a = rng.integers(0, p, size=(8, n), dtype=np.int64)
    b = rng.integers(0, p, size=(8, m), dtype=np.int64)
    a[0], b[0] = p - 1, p - 1
    a[1] = (p - 1) * (np.arange(n) % 2 == 0)
    a[2] = (p - 1) - a[1]
    return a, b


@pytest.mark.parametrize("p,dtype", DTYPE_EDGES, ids=[str(p) for p, _ in DTYPE_EDGES])
def test_array_rules_at_dtype_edges(p, dtype):
    pc = build_mekler(cycle_graph(5), p)
    assert pc._dtype == dtype
    rng = np.random.default_rng(p)
    a1, b1 = edge_rows(pc, rng)
    # row 0 meets itself (every product at (p - 1)^2), rows 1 and 2 meet
    # each other (the correction term at its extremes), the rest at random
    order = [0, 2, 1, 4, 5, 6, 7, 3]
    a2, b2 = a1[order], b1[order]
    u = [pc.element(a, b) for a, b in zip(a1, b1)]
    v = [pc.element(a, b) for a, b in zip(a2, b2)]
    pa, pb = pc.multiply_arrays(a1, b1, a2, b2)
    assert pa.dtype == pb.dtype == np.int64
    for k in range(8):
        prod = pc.multiply(u[k], v[k])
        assert (tuple(pa[k]), tuple(pb[k])) == (prod.a, prod.b)
    # the broadcasts of multiplication_table: one row against a block, and
    # a block against itself as (k, 1, .) by (k, .)
    for i in range(8):
        ra, rb = pc.multiply_arrays(a1[i], b1[i], a2, b2)
        assert ra.shape == a2.shape and rb.shape == b2.shape
        assert ra.dtype == rb.dtype == np.int64
        for k in range(8):
            prod = pc.multiply(u[i], v[k])
            assert (tuple(ra[k]), tuple(rb[k])) == (prod.a, prod.b)
    sa, sb = pc.multiply_arrays(a1[:, None], b1[:, None], a2, b2)
    assert sa.shape == (8, 8, pc.n) and sb.shape == (8, 8, pc.num_pairs)
    assert sb.dtype == np.int64
    for i, k in itertools.product(range(8), repeat=2):
        assert tuple(sb[i, k]) == pc.multiply(u[i], v[k]).b


@pytest.mark.parametrize("bad", [-1, 11], ids=["negative", "equal-to-p"])
def test_array_rules_refuse_unreduced_coordinates(bad):
    pc = build_mekler(cycle_graph(5), 11)
    a = np.zeros((3, pc.n), dtype=np.int64)
    b = np.zeros((3, pc.num_pairs), dtype=np.int64)
    wa, wb = a.copy(), b.copy()
    wa[1, 2] = wb[2, 1] = bad
    for args in [(wa, b, a, b), (a, wb, a, b), (a, b, wa, b), (a, b, a, wb)]:
        with pytest.raises(ValueError):
            pc.multiply_arrays(*args)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
def test_array_rules_take_every_integer_dtype(dtype):
    pc = build_mekler(cycle_graph(5), 3)
    a1, b1 = edge_rows(pc, np.random.default_rng(5))
    a2, b2 = a1[::-1], b1[::-1]
    want = pc.multiply_arrays(a1, b1, a2, b2)
    got = pc.multiply_arrays(a1.astype(dtype), b1.astype(dtype), a2, b2.astype(dtype))
    for w, g in zip(want, got):
        assert g.dtype == np.int64 and np.array_equal(w, g)
    info = np.iinfo(dtype)
    # -1 is no unsigned value, and an unsigned dtype's min is 0, in range
    for bad in {-1, pc.p, info.min, info.max} - {0}:
        if info.min <= bad:
            wa, wb = a1.astype(dtype), b1.astype(dtype)
            wa[3, 1] = wb[2, 0] = bad
            with pytest.raises(ValueError):
                pc.multiply_arrays(wa, b1, a2, b2)
            with pytest.raises(ValueError):
                pc.multiply_arrays(a1, b1, a2, wb)


@pytest.mark.parametrize("bad", [1.5, np.nan, True], ids=["float", "nan", "bool"])
def test_array_rules_refuse_non_integer_arrays(bad):
    pc = build_mekler(cycle_graph(5), 3)
    a = np.zeros((2, pc.n), dtype=np.int64)
    b = np.zeros((2, pc.num_pairs), dtype=np.int64)
    wa = np.full(a.shape, bad)
    assert wa.dtype.kind in "fb"
    with np.errstate(all="raise"), pytest.raises(ValueError, match="integers"):
        pc.multiply_arrays(wa, b, a, b)


def test_array_rules_accept_empty_float_arrays():
    pc = build_mekler(cycle_graph(5), 3)
    assert np.asarray(()).dtype == np.float64
    a, b = np.zeros((0, pc.n)), np.zeros((0, pc.num_pairs))
    pa, pb = pc.multiply_arrays(a, b, a, b)
    assert pa.dtype == pb.dtype == np.int64 and pa.size == pb.size == 0


def test_multiplication_table_properties():
    pc = build_mekler(path_graph(3), 3)
    total = pc.order()
    table = pc.multiplication_table()
    assert table.shape == (total, total)
    assert list(table[0]) == list(range(total))
    assert list(table[:, 0]) == list(range(total))
    for i in range(total):
        assert sorted(table[i]) == list(range(total))
        assert sorted(table[:, i]) == list(range(total))
    rng = random.Random(73)
    els = list(pc.all_elements())
    for _ in range(300):
        i, j = rng.randrange(total), rng.randrange(total)
        assert table[i, j] == pc.element_index(pc.multiply(els[i], els[j]))


def row_loop_table(pc):
    """Literal reference: T[i] = rank(multiply_arrays(A[i], B[i], A, B))."""
    A, B = pc.coordinate_matrix()
    table = np.empty((len(A), len(A)), dtype=np.int64)
    for i in range(len(A)):
        a, b = pc.multiply_arrays(A[i], B[i], A, B)
        table[i] = pc.rank_arrays(a, b)
    return table


def graph_classes(n):
    """One labelled graph per isomorphism class on n vertices."""
    seen = set()
    for g in all_graphs(n):
        key = min(
            tuple(sorted(tuple(sorted((perm[x], perm[y]))) for x, y in g.edges))
            for perm in itertools.permutations(range(n))
        )
        if key not in seen:
            seen.add(key)
            yield g


def table_cases():
    """Graph groups whose order fits the table limit: every labelled graph
    with at most 3 vertices at p = 3, and up to isomorphism every graph with
    4 vertices at p = 3 and with at most 3 vertices at p = 5 and p = 7."""
    cases = [(g, 3) for n in range(4) for g in all_graphs(n)]
    cases += [(g, 3) for g in graph_classes(4)]
    cases += [(g, p) for p in (5, 7) for n in range(4) for g in graph_classes(n)]
    return [
        pytest.param(g, p, id=f"p{p}-n{g.n}-" + "".join(f"{i}{j}" for i, j in sorted(g.edges)))
        for g, p in cases
        if build_mekler(g, p).order() <= TABLE_LIMIT
    ]


@pytest.mark.parametrize("graph,p", table_cases())
def test_multiplication_table_matches_row_loop(graph, p):
    pc = build_mekler(graph, p)
    assert np.array_equal(pc.multiplication_table(), row_loop_table(pc))


def test_multiplication_table_at_table_limit():
    # C5 with chords 0-2 and 1-3 at p = 3: exactly TABLE_LIMIT elements, and
    # the table's bytes are those the row loop wrote
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    pc = build_mekler(g, 3)
    assert pc.order() == TABLE_LIMIT
    table = pc.multiplication_table()
    assert table.dtype == np.int64 and table.shape == (TABLE_LIMIT, TABLE_LIMIT)
    assert hashlib.sha256(table.data).hexdigest() == (
        "96dbb21a8be1c36e5e26cab8a80764c8fd4306172c53cd35db7d9b315a6a8b48"
    )


def test_multiplication_table_no_pair_coordinates():
    # single vertex and complete graphs have zero pair coordinates; the
    # vectorized rules must still broadcast a row against the full stack
    for g in (Graph.from_edges(1, []), complete_graph(2), complete_graph(3)):
        pc = build_mekler(g, 3)
        assert pc.num_pairs == 0
        total = pc.order()
        table = pc.multiplication_table()
        assert np.array_equal(table, row_loop_table(pc))
        els = list(pc.all_elements())
        for i in range(total):
            assert sorted(table[i]) == list(range(total))
            for j in range(total):
                assert table[i, j] == pc.element_index(pc.multiply(els[i], els[j]))


def test_rank_arrays_guard():
    pc = build_mekler(path_graph(3), 3)
    A, B = pc.coordinate_matrix()
    ranks = pc.rank_arrays(A, B)
    assert list(ranks) == list(range(pc.order()))
    big = build_mekler(extend(cycle_graph(5)), 3)
    with pytest.raises(ValueError):
        big.rank_arrays(np.zeros((1, big.n), int), np.zeros((1, big.num_pairs), int))
    # the dense table guard protects against runaway table sizes too
    with pytest.raises(ValueError):
        build_mekler(cycle_graph(5), 3).multiplication_table()


def test_embed_into_extension_is_injective_hom():
    for g in [path_graph(2), complete_graph(2), Graph.from_edges(2, [])]:
        big = extend(g)
        hom = PcHom(build_mekler(g, 3), build_mekler(big, 3), tuple(range(g.n)))
        pc = hom.source
        els = list(pc.all_elements())
        images = [hom.apply(u) for u in els]
        assert len(set(images)) == len(els)
        for u in els:
            for v in els:
                assert hom.apply(pc.multiply(u, v)) == hom.target.multiply(
                    hom.apply(u), hom.apply(v)
                )


def test_pc_hom_non_monotone():
    g = path_graph(3)
    pc = build_mekler(g, 3)
    flip = PcHom(pc, pc, (2, 1, 0))
    rng = random.Random(79)
    els = list(pc.all_elements())
    assert len({flip.apply(u) for u in els}) == len(els)
    for _ in range(400):
        u, v = rng.choice(els), rng.choice(els)
        assert flip.apply(pc.multiply(u, v)) == pc.multiply(
            flip.apply(u), flip.apply(v)
        )
    for x in range(3):
        assert flip.apply(pc.generator(x)) == pc.generator(2 - x)
    # flip twice is the identity map
    for u in els[:100]:
        assert flip.apply(flip.apply(u)) == u


def test_pc_hom_validation():
    g = path_graph(3)
    pc3 = build_mekler(g, 3)
    pc5 = build_mekler(g, 5)
    with pytest.raises(ValueError):
        PcHom(pc3, pc5, (0, 1, 2))  # different p
    with pytest.raises(ValueError):
        PcHom(pc3, pc3, (0, 0, 1))  # not injective
    with pytest.raises(ValueError):
        # 0-1-2 path: swapping an end with the middle breaks adjacency
        PcHom(pc3, pc3, (1, 0, 2))
    tri = build_mekler(complete_graph(3), 3)
    with pytest.raises(ValueError):
        # an edge may not land on a non-edge, nor a non-edge on an edge
        PcHom(build_mekler(Graph.from_edges(3, []), 3), tri, (0, 1, 2))


def test_monotone_transport_matches_engine_path():
    g = path_graph(3)
    big = extend(g)
    src = build_mekler(g, 3)
    dst = build_mekler(big, 3)
    mono = PcHom(src, dst, (0, 1, 2))
    rng = random.Random(83)
    for _ in range(150):
        u = random_element(rng, src)
        ua = np.array(u.a)[None, :]
        ub = np.array(u.b, dtype=np.int64).reshape(1, -1)
        ta, tb = mono.apply_arrays(ua, ub)
        image = mono.apply(u)
        assert tuple(ta[0]) == image.a and tuple(tb[0]) == image.b


def _rebuilt_image(hom, u):
    """The image of u rebuilt through the target arithmetic, generator by generator."""
    acc = hom.target.identity()
    for x in range(hom.source.n):
        if u.a[x]:
            acc = acc * hom.target.power(
                hom.target.generator(hom.vertex_map[x]), u.a[x]
            )
    b = [0] * hom.target.num_pairs
    for (x, y), coeff in zip(hom.source.nonedges, u.b):
        tx, ty = hom.vertex_map[x], hom.vertex_map[y]
        if tx < ty:
            b[hom.target.pair_index[(tx, ty)]] += coeff
        else:
            b[hom.target.pair_index[(ty, tx)]] -= coeff
    return acc * hom.target.element((0,) * hom.target.n, b)


def _injections():
    c5 = build_mekler(cycle_graph(5), 5)
    for r in range(5):  # the 10 automorphisms of the 5-cycle
        for sign in (1, -1):
            yield PcHom(c5, c5, tuple((sign * v + r) % 5 for v in range(5)))
    p3 = build_mekler(path_graph(3), 3)
    yield PcHom(p3, p3, (2, 1, 0))
    e3 = build_mekler(Graph.from_edges(3, []), 3)
    for perm in itertools.permutations(range(3)):
        yield PcHom(e3, e3, perm)
    yield PcHom(p3, build_mekler(extend(path_graph(3)), 3), (0, 1, 2))


@pytest.mark.parametrize("hom", list(_injections()), ids=lambda h: str(h.vertex_map))
def test_transport_matches_the_rebuild_through_target_arithmetic(hom):
    rng = random.Random(97)
    us = [random_element(rng, hom.source) for _ in range(200)]
    assert [hom.apply(u) for u in us] == [_rebuilt_image(hom, u) for u in us]
    # the array rule agrees with the scalar one row for row
    ta, tb = hom.apply_arrays([u.a for u in us], [u.b for u in us])
    assert [hom.target.element(a, b) for a, b in zip(ta.tolist(), tb.tolist())] == [
        hom.apply(u) for u in us
    ]
    assert ta.min() >= 0 and tb.min() >= 0 and max(ta.max(), tb.max()) < hom.target.p
