"""End-to-end acceptance checks, one printed verdict line per area.

Each test prints a single PASS or FAIL line with the volume it covered and
the elapsed time, then asserts.  Run `pytest tests/test_acceptance.py -v -s`
to see the lines while the suite runs.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from math import comb

import numpy as np

from conftest import all_graphs, random_graph
from meklerkit import (
    Graph,
    GraphIso,
    Hom,
    OmniQuery,
    PcHom,
    Perm,
    alternating_group,
    audit_extension_property,
    build_D,
    build_mekler,
    check_normal_absorption,
    cyclic_group,
    cycle_graph,
    enumerate_homs,
    extend,
    extend_iso,
    kernel_at_stage,
    klein_four_group,
    lift_hom,
    make_cayley_tower,
    omni_audit,
    omni_check,
    petersen_graph,
    project_pi,
    quotient_is_A,
    recover_graph,
    subgroups,
    symmetric_group,
    trivial_group,
)
from meklerkit.limits import DirectSystem


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{tag} failed: {detail}"


def small_graphs(max_n):
    for n in range(1, max_n + 1):
        yield from all_graphs(n)


def test_01_pc_engine_exhaustive_axioms():
    t0 = time.monotonic()
    graphs = list(small_graphs(3))
    elements = 0
    ok = True
    for g in graphs:
        pc = build_mekler(g, 3)
        table = pc.multiplication_table().astype(np.int32)
        size = table.shape[0]
        idx = np.arange(size, dtype=np.int32)
        # identity sits at index 0 and acts trivially on both sides
        ok = ok and bool(
            np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
        )
        # every row and column is a permutation, so equations are solvable
        ok = ok and bool(
            np.array_equal(np.sort(table, axis=1), np.tile(idx, (size, 1)))
            and np.array_equal(np.sort(table, axis=0), np.tile(idx[:, None], size))
        )
        # two sided inverses
        inv = np.argmin(table, axis=1)
        ok = ok and bool(
            (table[idx, inv] == 0).all() and (table[inv, idx] == 0).all()
        )
        # associativity over every triple, one left factor at a time
        for i in range(size):
            if not np.array_equal(table[table[i]], table[i][table]):
                ok = False
                break
        # every element cubes to the identity
        ok = ok and bool((table[idx, table[idx, idx]] == 0).all())
        # every commutator is central
        central = np.fromiter(
            (np.array_equal(table[c], table[:, c]) for c in range(size)),
            dtype=bool,
            count=size,
        )
        xy_inv = table[inv[:, None], inv[None, :]]
        comm = table[table[xy_inv, idx[:, None]], idx[None, :]]
        ok = ok and bool(central[comm].all())
        # generator commutators vanish exactly on edges
        e = pc.identity()
        for x, y in itertools.combinations(range(g.n), 2):
            c = pc.commutator(pc.generator(x), pc.generator(y))
            ok = ok and ((c == e) == g.adjacent(x, y))
        elements += size
        if not ok:
            break
    took = time.monotonic() - t0
    verdict(
        "acceptance 01 pc engine axioms",
        ok and took < 60,
        f"{len(graphs)} graphs, {elements} elements, {took:.1f}s",
    )


def bfs_element_count(pc, cap):
    gens = [pc.generator(i) for i in range(pc.n)]
    gens += [pc.inverse(h) for h in gens]
    seen = {pc.identity()}
    frontier = [pc.identity()]
    while frontier:
        nxt = []
        for u in frontier:
            for h in gens:
                w = pc.multiply(u, h)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        assert len(seen) <= cap
    return len(seen)


def test_02_order_formula():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for g in small_graphs(4):
        expo = g.n + comb(g.n, 2) - g.edge_count()
        if 3 ** expo > 729:
            continue
        pc = build_mekler(g, 3)
        ok = ok and pc.order() == 3 ** expo
        ok = ok and bfs_element_count(pc, 3 ** expo) == 3 ** expo
        checked += 1
    for g, n_pairs in ((cycle_graph(5), 10), (petersen_graph(), 40)):
        for p in (3, 5):
            pc = build_mekler(g, p)
            expo = g.n + comb(g.n, 2) - g.edge_count()
            ok = ok and expo == n_pairs
            ok = ok and pc.order_expression() == f"{p}^{expo}"
            ok = ok and pc.order() == p ** expo
    took = time.monotonic() - t0
    verdict(
        "acceptance 02 order formula",
        ok,
        f"{checked} enumerable groups, C5 and Petersen at p in (3,5), {took:.1f}s",
    )


def test_03_recover_round_trip():
    t0 = time.monotonic()
    count = 0
    ok = True
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pq for i, pq in enumerate(pairs) if bits >> i & 1]
            g = Graph.from_edges(n, edges)
            for p in (3, 5):
                back = recover_graph(build_mekler(g, p))
                ok = ok and back.n == g.n and back.edges == g.edges
                count += 1
        if not ok:
            break
    took = time.monotonic() - t0
    verdict(
        "acceptance 03 recover round trip",
        ok and took < 60,
        f"{count} round trips over all graphs up to 6 vertices, {took:.1f}s",
    )


def test_04_extension_property():
    t0 = time.monotonic()
    rng = random.Random(20240819)
    ok = True
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 6))
        big = extend(g)
        audit = audit_extension_property(big, m=g.n, universe=range(g.n))
        ok = ok and audit.ok and not audit.failures
        ok = ok and audit.pair_count == 3 ** g.n
    took = time.monotonic() - t0
    verdict(
        "acceptance 04 extension property",
        ok,
        f"50 random graphs, every disjoint subset pair witnessed, {took:.1f}s",
    )


def brute_automorphisms(g):
    autos = []
    for images in itertools.permutations(range(g.n)):
        if all(
            g.adjacent(images[x], images[y]) == g.adjacent(x, y)
            for x, y in itertools.combinations(range(g.n), 2)
        ):
            autos.append(GraphIso(g, g, images))
    return autos


def test_05_isomorphism_extension():
    t0 = time.monotonic()
    rng = random.Random(20240820)
    ok = True
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 6))
        f = rng.choice(brute_automorphisms(g))
        big_f = extend_iso(f)
        big = extend(g)
        ok = ok and big_f.domain == big and big_f.codomain == big
        ok = ok and big_f.mapping[: g.n] == f.mapping
        ok = ok and sorted(big_f.mapping) == list(range(big.n))
        for x, y in itertools.combinations(range(big.n), 2):
            if big.adjacent(x, y) != big.adjacent(big_f.apply(x), big_f.apply(y)):
                ok = False
    took = time.monotonic() - t0
    verdict(
        "acceptance 05 isomorphism extension",
        ok,
        f"100 random (graph, automorphism) pairs rechecked edgewise, {took:.1f}s",
    )


def transported_keys(hom, a, b):
    ta, tb = hom.apply_arrays(a, b)
    return ta, tb, {tuple(r) for r in np.concatenate([ta, tb], axis=-1).tolist()}


def test_06_gamma_prime_embedding():
    t0 = time.monotonic()
    ok = True
    pairs_checked = 0
    for g in small_graphs(3):
        big = extend(g)
        hom = PcHom(build_mekler(g, 3), build_mekler(big, 3), tuple(range(g.n)))
        pc, pcb = hom.source, hom.target
        a, b = pc.coordinate_matrix()
        size = a.shape[0]
        ta, tb, keys = transported_keys(hom, a, b)
        ok = ok and len(keys) == size    # injective on the whole group
        for i in range(size):
            pa, pb = pc.multiply_arrays(
                np.repeat(a[i : i + 1], size, axis=0),
                np.repeat(b[i : i + 1], size, axis=0),
                a,
                b,
            )
            ha, hb = hom.apply_arrays(pa, pb)
            qa, qb = pcb.multiply_arrays(
                np.repeat(ta[i : i + 1], size, axis=0),
                np.repeat(tb[i : i + 1], size, axis=0),
                ta,
                tb,
            )
            if not (np.array_equal(ha, qa) and np.array_equal(hb, qb)):
                ok = False
                break
        pairs_checked += size * size
    c5 = cycle_graph(5)
    big5 = extend(c5)
    rng = random.Random(20240821)
    for p in (3, 5):
        hom = PcHom(build_mekler(c5, p), build_mekler(big5, p), tuple(range(5)))
        pc, pcb = hom.source, hom.target
        def block(width):
            flat = [rng.randrange(p) for _ in range(1000 * width)]
            return np.array(flat, dtype=np.int64).reshape(1000, width)
        a1, b1 = block(pc.n), block(pc.num_pairs)
        a2, b2 = block(pc.n), block(pc.num_pairs)
        pa, pb = pc.multiply_arrays(a1, b1, a2, b2)
        ta1, tb1, k1 = transported_keys(hom, a1, b1)
        ta2, tb2, _ = transported_keys(hom, a2, b2)
        qa, qb = pcb.multiply_arrays(ta1, tb1, ta2, tb2)
        ha, hb = hom.apply_arrays(pa, pb)
        ok = ok and np.array_equal(ha, qa) and np.array_equal(hb, qb)
        source_keys = {
            tuple(r) for r in np.concatenate([a1, b1], axis=-1).tolist()
        }
        ok = ok and len(k1) == len(source_keys)
        pairs_checked += 1000
    took = time.monotonic() - t0
    verdict(
        "acceptance 06 coordinate transport embedding",
        ok,
        f"{pairs_checked} product pairs, exhaustive to 3 vertices plus C5, {took:.1f}s",
    )


def test_07_lift_lemma():
    t0 = time.monotonic()
    pool = [
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        symmetric_group(3),
        cyclic_group(6),
    ]
    ok = True
    total = 0
    for f_group in pool:
        f_els = f_group.elements()
        for g_group in pool:
            for psi in enumerate_homs(f_group, g_group):
                wit = lift_hom(f_group, g_group, psi)
                ok = ok and wit.embed.is_injective()
                ok = ok and wit.surj.is_surjective()
                ok = ok and all(
                    wit.surj(wit.embed(x)) == psi(x) for x in f_els
                )
                total += 1
    took = time.monotonic() - t0
    verdict(
        "acceptance 07 lift lemma",
        ok,
        f"{total} homomorphisms lifted and verified over a 6 group pool, {took:.1f}s",
    )


def test_08_d_stage_laws():
    t0 = time.monotonic()
    ok = True
    for base in (trivial_group(1), cyclic_group(2), symmetric_group(3)):
        tower = make_cayley_tower(base, alternating_group(5), 1)
        sys_d = build_D(tower)
        g0 = sys_d.stages[0]
        for x in g0.elements():
            e0 = sys_d.element(0, x)
            if project_pi(sys_d, sys_d.push(e0, 1)) != project_pi(sys_d, e0):
                ok = False
                break
        kern = kernel_at_stage(sys_d, 0)
        brute = {
            x
            for x in g0.elements()
            if project_pi(sys_d, sys_d.element(0, x)).is_identity()
        }
        inject = tower.sums[0].inject_b
        ok = ok and kern == brute
        ok = ok and kern == {inject(t) for t in tower.h_stages[0].elements()}
        quo = quotient_is_A(sys_d, 0)
        ok = ok and quo.verified
        for t in tower.h_stages[0].elements():
            if t.is_identity():
                continue
            if not check_normal_absorption(sys_d, 0, inject(t)).contains_kernel:
                ok = False
                break
    took = time.monotonic() - t0
    verdict(
        "acceptance 08 tower stage laws",
        ok and took < 300,
        f"bases 1, C2, S3 over an Alt(5) tower at depth 1, {took:.1f}s",
    )


def test_09_limit_algebra():
    t0 = time.monotonic()
    c3 = cyclic_group(3)
    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    sys_d = DirectSystem(
        [c3, s3, s4],
        [
            Hom(c3, s3, [Perm((1, 2, 0))]),
            Hom(s3, s4, [h.extend(4) for h in s3.gens]),
        ],
    )
    rng = random.Random(20240822)

    def sample():
        stage = rng.randrange(3)
        value = rng.choice(sys_d.stages[stage].elements())
        return sys_d.element(stage, value)

    ok = True
    for _ in range(1000):
        x, y, z = sample(), sample(), sample()
        # equivalence relation on stage tagged representatives
        ok = ok and sys_d.limit_eq(x, x)
        up = sys_d.push(x, min(2, x.stage + 1))
        ok = ok and sys_d.limit_eq(x, up) and sys_d.limit_eq(up, x)
        top = sys_d.push(x, 2)
        ok = ok and sys_d.limit_eq(up, top) and sys_d.limit_eq(x, top)
        # multiplication does not depend on the representative
        xy = sys_d.limit_multiply(x, y)
        ok = ok and sys_d.limit_eq(
            xy, sys_d.limit_multiply(up, sys_d.push(y, min(2, y.stage + 1)))
        )
        # associativity
        ok = ok and sys_d.limit_eq(
            sys_d.limit_multiply(xy, z),
            sys_d.limit_multiply(x, sys_d.limit_multiply(y, z)),
        )
    took = time.monotonic() - t0
    verdict(
        "acceptance 09 limit algebra",
        ok,
        f"1000 random triples over a 3 stage system, {took:.1f}s",
    )


def test_10_omni_checker():
    t0 = time.monotonic()
    ok = True
    # positive case inside S4 with target C4
    s4 = symmetric_group(4)
    f_sub = type(s4)(4, [Perm((1, 0, 3, 2))], known_order=2)
    c4 = cyclic_group(4)
    psi = Hom(f_sub, c4, [c4.gens[0] * c4.gens[0]])
    q = OmniQuery(s4, f_sub, c4, psi, c4.gens[0])
    q.validate()
    wit = omni_check(q, 24)
    ok = ok and wit is not None
    ok = ok and wit.surj.is_surjective()
    ok = ok and all(wit.surj(x) == psi(x) for x in f_sub.elements())
    # negative case inside S3: nothing can carry C4
    s3 = symmetric_group(3)
    triv = type(s3)(3, [], known_order=1)
    q3 = OmniQuery(s3, triv, c4, Hom(triv, c4, []), c4.gens[0])
    ok = ok and omni_check(q3, 6) is None
    ok = ok and all(h.order() % 4 != 0 for h in subgroups(s3, 6))
    # the bounded audit of Alt(5) is reproducible run to run
    r1 = omni_audit(alternating_group(5), 4, 10)
    r2 = omni_audit(alternating_group(5), 4, 10)
    ok = ok and r1.format_text() == r2.format_text()
    ok = ok and len(r1.rows) > 0
    took = time.monotonic() - t0
    verdict(
        "acceptance 10 bounded extension audit",
        ok and took < 600,
        f"S4 witness, S3 exhaustive none, {len(r1.rows)} audited rows twice, {took:.1f}s",
    )


def test_12_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    graph = tmp_path / "c5.txt"
    graph.write_text("p graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n")
    outs = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "meklerkit.cli",
                "reduce",
                str(graph),
                "--p",
                "3",
                "--depth-k",
                "1",
                "--depth-d",
                "1",
                "--out",
                str(outdir),
            ],
            capture_output=True,
            text=True,
            timeout=280,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(outdir)
    same = (outs[0] / "manifest.txt").read_bytes() == (
        outs[1] / "manifest.txt"
    ).read_bytes()
    artifacts_same = all(
        (outs[0] / f.name).read_bytes() == (outs[1] / f.name).read_bytes()
        for f in sorted(outs[0].iterdir())
    )
    took = time.monotonic() - t0
    verdict(
        "acceptance 12 pipeline determinism",
        same and artifacts_same and took < 300,
        f"two separate processes, byte identical output trees, {took:.1f}s",
    )
