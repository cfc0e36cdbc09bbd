"""Graphs, niceness, the subset extension, and graph file round trips.

The niceness checks are compared against a direct quantifier transcription
that recomputes adjacency from the edge list on its own, and against
networkx on every small graph of its atlas.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import meklerkit.graphs
from conftest import all_graphs, random_graph
from meklerkit import (
    Graph,
    GraphIso,
    ParseError,
    SubsetVertex,
    VertexBudgetError,
    audit_extension_property,
    check_extension_property,
    complete_graph,
    cycle_graph,
    extend,
    extend_iso,
    extend_tower,
    find_square,
    find_triangle,
    format_graph,
    is_nice,
    parse_graph,
    path_graph,
    petersen_graph,
)


def oracle_nice(g: Graph, strict: bool) -> bool:
    n = g.n
    adj = [[False] * n for _ in range(n)]
    for x, y in g.edges:
        adj[x][y] = adj[y][x] = True
    for a, b, c in itertools.combinations(range(n), 3):
        if adj[a][b] and adj[b][c] and adj[a][c]:
            return False
    for a, b, c, d in itertools.permutations(range(n), 4):
        if adj[a][b] and adj[b][c] and adj[c][d] and adj[d][a]:
            return False
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            found = False
            for z in range(n):
                if z == x or (strict and z == y):
                    continue
                if adj[z][x] and not adj[z][y]:
                    found = True
                    break
            if not found:
                return False
    return True


def test_niceness_exhaustive_small():
    for n in range(5):
        for g in all_graphs(n):
            rep = is_nice(g)
            assert rep.is_nice == oracle_nice(g, strict=False)
            assert rep.strict_is_nice == oracle_nice(g, strict=True)
            if not rep.is_nice:
                assert rep.certificate is not None


def test_niceness_random_medium():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randrange(5, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        rep = is_nice(g)
        assert rep.is_nice == oracle_nice(g, strict=False)
        assert rep.strict_is_nice == oracle_nice(g, strict=True)


def test_named_graphs_niceness():
    rep = is_nice(cycle_graph(5))
    assert rep.is_nice and rep.strict_is_nice
    assert is_nice(petersen_graph()).is_nice
    assert not is_nice(complete_graph(3)).is_nice
    assert not is_nice(cycle_graph(4)).is_nice  # a square
    assert not is_nice(path_graph(3)).is_nice  # endpoints unseparated
    assert is_nice(Graph.from_edges(0, [])).is_nice


def test_triangle_square_witnesses():
    t = find_triangle(complete_graph(3))
    assert t is not None and len(set(t)) == 3
    assert find_triangle(cycle_graph(5)) is None
    s = find_square(cycle_graph(4))
    assert s is not None
    assert find_square(cycle_graph(5)) is None
    # K4 contains squares as well as triangles
    assert find_square(complete_graph(4)) is not None


def test_strict_vs_letter_reading_differ():
    # on K2 the only separator of (x, y) is y itself
    rep = is_nice(complete_graph(2))
    assert rep.is_nice and not rep.strict_is_nice
    assert rep.self_only_pairs


def test_extend_counts():
    g = complete_graph(2)
    e = extend(g)
    assert e.n == 6
    assert e.edge_count() == 5
    e0 = extend(Graph.from_edges(0, []))
    assert e0.n == 1 and e0.edge_count() == 0
    for n in range(5):
        for g in [Graph.from_edges(n, []), complete_graph(n)]:
            e = extend(g)
            assert e.n == g.n + 2 ** g.n
            assert e.edge_count() == g.edge_count() + g.n * 2 ** max(g.n - 1, 0)


def test_extend_subset_neighborhoods():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(6))
        e = extend(g)
        originals = set(range(g.n))
        for v in range(g.n, e.n):
            label = e.labels[v]
            assert isinstance(label, SubsetVertex)
            nbrs = {w for w in range(e.n) if e.adjacent(v, w)}
            assert nbrs == set(label.members)
            assert nbrs <= originals
        # original adjacency is untouched
        for x, y in itertools.combinations(range(g.n), 2):
            assert e.adjacent(x, y) == g.adjacent(x, y)


def test_extend_tower_sizes_and_inclusion():
    g = cycle_graph(5)
    same, incl0 = extend_tower(g, 0)
    assert same == g and incl0 == (0, 1, 2, 3, 4)
    one, incl1 = extend_tower(g, 1)
    assert one.n == 37 and incl1 == (0, 1, 2, 3, 4)
    two, _ = extend_tower(path_graph(2), 2)
    assert two.n == 6 + 2 ** 6
    assert all(two.adjacent(0, v) == path_graph(2).adjacent(0, v) for v in range(2))


def test_extend_tower_budget():
    with pytest.raises(VertexBudgetError):
        extend_tower(cycle_graph(5), 2, vertex_budget=10 ** 6)
    with pytest.raises(VertexBudgetError):
        extend(complete_graph(21), vertex_budget=10 ** 6)


def test_extend_stage_labels_do_not_collide():
    # two extension steps from different stages must not identify vertices
    g = Graph.from_edges(1, [])
    e1 = extend(g)
    e2 = extend(e1)
    assert len(set(e2.labels)) == e2.n


def test_extension_property_witnesses():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 6))
        e = extend(g)
        verts = list(range(g.n))
        for r_a in range(len(verts) + 1):
            for a_set in itertools.combinations(verts, r_a):
                rest = [v for v in verts if v not in a_set]
                for r_b in range(len(rest) + 1):
                    for b_set in itertools.combinations(rest, r_b):
                        z = check_extension_property(e, set(a_set), set(b_set))
                        assert z is not None
                        assert z not in set(a_set) | set(b_set)
                        assert all(e.adjacent(z, a) for a in a_set)
                        assert not any(e.adjacent(z, b) for b in b_set)


def test_extension_audit():
    g = cycle_graph(5)
    audit = audit_extension_property(extend(g), m=5, universe=range(5))
    assert audit.ok and not audit.failures
    assert audit.pair_count == 3 ** 5
    # K2 itself lacks a witness for A={0}, B={1}
    bad = audit_extension_property(complete_graph(2), m=1)
    assert not bad.ok
    assert ((0,), (1,)) in bad.failures or ((1,), (0,)) in bad.failures


def oracle_audit(g: Graph, m: int, universe):
    """Every pair in the audit's order, with the witnesses of a literal vertex scan."""
    for asize in range(min(m, len(universe)) + 1):
        for a in itertools.combinations(universe, asize):
            rest = [v for v in universe if v not in a]
            for bsize in range(min(m, len(rest)) + 1):
                for b in itertools.combinations(rest, bsize):
                    found = [
                        z for z in range(g.n)
                        if z not in a and z not in b
                        and all(g.adjacent(z, x) for x in a)
                        and not any(g.adjacent(z, y) for y in b)
                    ]
                    yield a, b, found


@st.composite
def audit_cases(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs))) if pairs else []
    g = Graph.from_edges(n, edges)
    universe = draw((st.none() | st.lists(st.integers(0, n - 1))) if n else st.none())
    # m reaches n + 1, past every universe, as in `reduce`'s m = n audit
    return g, draw(st.integers(0, n + 1)), universe


@settings(deadline=None)
@given(audit_cases())
def test_extension_audit_matches_vertex_scan(case):
    g, m, universe = case
    audit = audit_extension_property(g, m, universe=universe)
    expect = sorted(set(range(g.n) if universe is None else universe))
    assert audit.universe == tuple(expect)
    scan = list(oracle_audit(g, m, expect))
    assert audit.pair_count == len(scan)
    assert audit.failures == tuple((a, b) for a, b, found in scan if not found)
    for a, b, found in scan:
        assert check_extension_property(g, a, b) == (found[0] if found else None)


def test_extension_audit_full_size_extend_c5():
    audit = audit_extension_property(extend(cycle_graph(5)), m=2)
    assert audit.pair_count == 445_629
    assert len(audit.failures) == 306_178
    # every failure shares its B tuple with the one tree of B sets: C(37, <= 2)
    assert len({id(b) for _, b in audit.failures}) <= 1 + 37 + 666


def test_extension_audit_empty_graph_at_full_size():
    # `reduce --depth-k 0` on 12 isolated vertices: 3^12 pairs, and only the
    # 2^12 - 1 pairs with A empty and B short of all 12 vertices have a witness
    audit = audit_extension_property(Graph.from_edges(12, []), m=12)
    assert audit.pair_count == 3**12 == 531_441
    assert len(audit.failures) == 3**12 - (2**12 - 1) == 527_346
    assert audit.failures[0] == ((), tuple(range(12)))
    assert audit.failures[-1] == (tuple(range(12)), ())


def test_extension_audit_peak_stays_near_what_it_holds():
    # the failures are chained into their tuple, with no list beside it, so
    # the audit peaks at little more than the result it hands back
    tracemalloc.start()
    try:
        audit = audit_extension_property(Graph.from_edges(12, []), m=12)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(audit.failures) == 527_346
    assert peak < 1.05 * held


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("universe", [[99], [-1], [0, 5], [-3, 2]])
def test_extension_audit_rejects_universe_out_of_range(m, universe):
    with pytest.raises(ValueError, match="out of range"):
        audit_extension_property(cycle_graph(5), m, universe=universe)


@pytest.mark.parametrize("m", [-1, -5])
def test_extension_audit_rejects_negative_size_bound(m):
    with pytest.raises(ValueError, match="size bound"):
        audit_extension_property(complete_graph(2), m)


def test_check_extension_property_rejects_bad_pairs():
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="disjoint"):
        check_extension_property(g, {0, 1}, {1})
    for a, b in (({5}, ()), ((), {-1})):
        with pytest.raises(ValueError, match="out of range"):
            check_extension_property(g, a, b)


def graph_automorphisms(g: Graph):
    for images in itertools.permutations(range(g.n)):
        if all(
            g.adjacent(images[x], images[y]) == g.adjacent(x, y)
            for x, y in itertools.combinations(range(g.n), 2)
        ):
            yield GraphIso(g, g, images)


def test_extend_iso_functorial():
    rng = random.Random(23)
    seen = 0
    while seen < 60:
        g = random_graph(rng, rng.randrange(1, 6))
        autos = list(graph_automorphisms(g))
        f = rng.choice(autos)
        h = rng.choice(autos)
        ef, eh = extend_iso(f), extend_iso(h)
        big = extend(g)
        assert ef.domain == big and ef.codomain == big
        f_after_h = GraphIso(g, g, tuple(f.mapping[i] for i in h.mapping))
        assert extend_iso(f_after_h).mapping == tuple(ef.mapping[i] for i in eh.mapping)
        assert ef.inverse().mapping == extend_iso(f.inverse()).mapping
        seen += 1
    ident = GraphIso.identity(cycle_graph(5))
    assert extend_iso(ident).mapping == tuple(range(37))


def test_extend_iso_respects_subset_contents():
    g = cycle_graph(5)
    rot = GraphIso(g, g, (1, 2, 3, 4, 0))
    e_rot = extend_iso(rot)
    big = extend(g)
    for v in range(5, big.n):
        members = set(big.labels[v].members)
        image = big.labels[e_rot.apply(v)]
        assert set(image.members) == {rot.apply(x) for x in members}


def test_graph_iso_validation():
    g, h = path_graph(3), path_graph(3)
    GraphIso(g, h, (2, 1, 0))
    with pytest.raises(ValueError):
        GraphIso(g, h, (0, 0, 1))
    with pytest.raises(ValueError):
        GraphIso(g, h, (1, 0, 2))  # breaks adjacency
    with pytest.raises(ValueError):
        GraphIso(g, complete_graph(3), (0, 1, 2))


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(7))
        assert parse_graph(format_graph(g)) == g
    text = format_graph(extend(complete_graph(2)))
    back = parse_graph(text)
    assert back.n == 6 and back.edge_count() == 5


def test_parse_graph_errors(monkeypatch):
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("p graph 3\ne 0 9")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("p graph 3\ne 0 1\ne 1 0")
    with pytest.raises(ParseError, match="loop"):
        parse_graph("p graph 3\ne 1 1")
    with pytest.raises(ParseError):
        parse_graph("p graph x")
    # the vertex count is budgeted before any vertex is built
    monkeypatch.setattr(meklerkit.graphs, "DEFAULT_VERTEX_BUDGET", 4)
    with pytest.raises(ParseError, match="vertex budget"):
        parse_graph("p graph 5\n")
    assert parse_graph("p graph 4\n").n == 4
    # comments and blank lines are fine
    g = parse_graph("# a path\np graph 3\n\ne 0 1\n# middle\ne 1 2\n")
    assert g == path_graph(3)


def test_graph_value_semantics():
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a.key() == b.key()
    assert a.key() != Graph.from_edges(3, [(0, 2)]).key()
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


# every graph with 1 to 6 vertices, up to isomorphism, on vertices 0..n-1
ATLAS = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 6]


def from_networkx(nxg) -> Graph:
    return Graph.from_edges(nxg.number_of_nodes(), nxg.edges())


def to_networkx(g: Graph):
    nxg = nx.Graph(list(g.edges))
    nxg.add_nodes_from(range(g.n))
    return nxg


def test_triangle_and_square_clauses_agree_with_networkx_girth():
    assert len(ATLAS) == 208
    for nxg in ATLAS:
        report = is_nice(from_networkx(nxg))
        assert (report.triangle is None and report.square is None) == (nx.girth(nxg) >= 5)


def test_extend_iso_maps_edges_to_edges_for_every_networkx_automorphism():
    automorphisms = 0
    for nxg in ATLAS:
        if nxg.number_of_nodes() > 5:
            continue
        g = from_networkx(nxg)
        big = to_networkx(extend(g))
        autos = list(GraphMatcher(nxg, nxg).isomorphisms_iter())
        maps = [extend_iso(GraphIso(g, g, tuple(auto[v] for v in range(g.n))))
                for auto in autos]
        for f in maps:
            assert all(big.has_edge(f.apply(u), f.apply(v)) for u, v in big.edges)
        # distinct automorphisms extend to distinct maps
        assert len({f.mapping for f in maps}) == len(autos)
        automorphisms += len(autos)
    assert automorphisms == 571
