"""Hom lifting through block sums and the bounded extension-property audit."""

from __future__ import annotations

import hashlib
import itertools

import pytest

import meklerkit.omni
from meklerkit import (
    Hom,
    OmniQuery,
    Perm,
    PermGroup,
    alternating_group,
    automorphisms,
    build_D,
    closure_elements,
    cyclic_group,
    enumerate_homs,
    kernel_at_stage,
    klein_four_group,
    lift_hom,
    make_cayley_tower,
    omni_audit,
    omni_check,
    parse_group,
    small_groups_catalog,
    subgroups,
    subgroups_containing,
    symmetric_group,
    trivial_group,
    verify_hom_table,
)
from meklerkit.groups import _greedy_generators, _homs, _onto, _order_pool
from meklerkit.omni import OmniAuditRow


def test_lift_every_hom_in_catalog():
    pool = [
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        symmetric_group(3),
        cyclic_group(6),
    ]
    total = 0
    for f_group in pool:
        for g_group in pool:
            for psi in enumerate_homs(f_group, g_group):
                witness = lift_hom(f_group, g_group, psi)
                assert witness.group.order() == f_group.order() * g_group.order()
                assert witness.embed.is_injective()
                assert witness.surj.is_surjective()
                for x in f_group.elements():
                    assert witness.surj(witness.embed(x)) == psi(x)
                total += 1
    assert total > 100


def test_lift_requires_matching_domain():
    c2a = cyclic_group(2)
    c2b = cyclic_group(2)
    psi = Hom(c2b, c2a, [c2a.gens[0]])
    with pytest.raises(ValueError):
        lift_hom(c2a, c2a, psi)


def c4_in_s4():
    return PermGroup(4, [Perm((1, 2, 3, 0))], known_order=4)


def test_omni_query_validation():
    s4 = symmetric_group(4)
    c4 = cyclic_group(4)
    f_sub = c4_in_s4()
    psi = Hom(f_sub, c4, [c4.gens[0]])
    q = OmniQuery(s4, f_sub, c4, psi, c4.gens[0])
    q.validate()
    # generator that does not span the target together with psi(F)
    half = PermGroup(4, [Perm((2, 3, 0, 1))], known_order=2)
    psi_half = Hom(half, c4, [c4.gens[0] * c4.gens[0]])
    with pytest.raises(ValueError):
        OmniQuery(s4, half, c4, psi_half, c4.identity()).validate()
    # F must live inside gamma
    foreign = PermGroup(5, [Perm((1, 2, 3, 4, 0))])
    psi5 = Hom(foreign, cyclic_group(5), [cyclic_group(5).gens[0]])
    with pytest.raises(ValueError):
        OmniQuery(s4, foreign, cyclic_group(5), psi5, cyclic_group(5).gens[0]).validate()
    # psi must be injective
    flat = Hom(f_sub, cyclic_group(2), [cyclic_group(2).gens[0]])
    with pytest.raises(ValueError):
        OmniQuery(s4, f_sub, cyclic_group(2), flat, cyclic_group(2).gens[0]).validate()


def test_omni_witness_found_in_s4():
    s4 = symmetric_group(4)
    f_sub = PermGroup(4, [Perm((1, 0, 3, 2))], known_order=2)
    c4 = cyclic_group(4)
    psi = Hom(f_sub, c4, [c4.gens[0] * c4.gens[0]])
    q = OmniQuery(s4, f_sub, c4, psi, c4.gens[0])
    q.validate()
    wit = omni_check(q, 24)
    assert wit is not None
    assert wit.subgroup.order() % 4 == 0
    assert verify_hom_table(wit.surj)
    assert wit.surj.is_surjective()
    # the witness map restricted to F is psi
    for x in f_sub.elements():
        assert wit.surj(x) == psi(x)
    assert f_sub.gens[0] in frozenset(wit.subgroup.elements())


def test_omni_none_is_exhaustive_within_bound():
    s3 = symmetric_group(3)
    triv = PermGroup(3, [], known_order=1)
    c4 = cyclic_group(4)
    psi = Hom(triv, c4, [])
    q = OmniQuery(s3, triv, c4, psi, c4.gens[0])
    q.validate()
    assert omni_check(q, 6) is None
    # independent reason: no subgroup of S3 has order divisible by 4
    orders = {h.order() for h in subgroups(s3, 6)}
    assert all(o % 4 != 0 for o in orders)


def test_omni_check_respects_bound():
    s4 = symmetric_group(4)
    triv = PermGroup(4, [], known_order=1)
    c4 = cyclic_group(4)
    psi = Hom(triv, c4, [])
    q = OmniQuery(s4, triv, c4, psi, c4.gens[0])
    assert omni_check(q, 3) is None     # bound below |C4|
    assert omni_check(q, 4) is not None


def test_audit_rows_deterministic_and_verified():
    s3 = symmetric_group(3)
    r1 = omni_audit(s3, 3, 6)
    r2 = omni_audit(s3, 3, 6)
    assert r1.format_text() == r2.format_text()
    assert r1.rows
    assert len(r1.unwitnessed) == sum(1 for row in r1.rows if not row.witnessed)
    for row in r1.rows:
        assert row.f_order <= 3
        assert row.g_order <= 6
        if row.witnessed:
            assert row.witness_order is not None
            assert row.witness_order % row.g_order == 0
        else:
            assert row.witness_order is None


def test_audit_trivial_group_all_witnessed():
    rep = omni_audit(trivial_group(1), 1, 1)
    assert len(rep.rows) == 1
    assert not rep.unwitnessed
    assert rep.rows[0].g_name == "1"
    # widening the target catalog adds rows the trivial group cannot witness
    wide = omni_audit(trivial_group(1), 4, 4)
    assert len(wide.rows) == 4
    assert all(not row.witnessed for row in wide.rows if row.g_order > 1)


def test_audit_includes_every_subgroup_and_catalog_pair():
    s3 = symmetric_group(3)
    rep = omni_audit(s3, 6, 6)
    f_orders = sorted({row.f_order for row in rep.rows})
    assert f_orders == [1, 2, 3, 6]
    g_labels = {row.g_name for row in rep.rows}
    for g in small_groups_catalog(6):
        # every catalog group admitting a valid (psi, generator) pair shows up
        if g.order() <= 6:
            assert g.label() in g_labels or g.order() == 1 and "1" in g_labels


def test_audit_h_block_flags():
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 0)
    gamma = tower.sums[0].group
    block = tower.sums[0].inject_b
    # with a tight search bound, S3 targets over kernel-supported F cannot
    # be witnessed below order 6, and S3 does embed into the block
    rep = omni_audit(gamma, 2, 6, search_bound=4, h_block=block)
    assert rep.flagged
    for row in rep.flagged:
        assert not row.witnessed
        assert row.flag == "h-lift-miss"
    # with the full bound those same rows become witnessed inside the kernel
    full = omni_audit(gamma, 2, 6, search_bound=120, h_block=block)
    assert not full.flagged
    # the block must be an injection into gamma itself
    with pytest.raises(ValueError):
        omni_audit(symmetric_group(3), 2, 6, h_block=block)


def test_audit_report_bytes_pinned():
    # the omni_report.txt artifact of the default `reduce` run
    block = make_cayley_tower(cyclic_group(2), alternating_group(5), 0).sums[0].inject_b
    rep = omni_audit(block.codomain, 2, 6, search_bound=12, h_block=block)
    digest = hashlib.sha256(rep.format_text().encode("utf-8")).hexdigest()
    assert digest.startswith("bf207a6b4262")


def _per_row_audit(gamma, max_f, max_g, search_bound, h_block):
    """The audit rows with `omni_check` run on every row, as reference.

    Every F, every psi orbit representative and every flag is searched and
    computed on its own, with no reuse across conjugate F.
    """
    gamma_pos = gamma._indexed().pos
    block_gens, mask = _greedy_generators(
        gamma, [i for i, x in enumerate(gamma.elements()) if x in h_block])
    block_group = PermGroup(gamma.degree, [gamma.elements()[i] for i in block_gens],
                            known_order=mask.bit_count())
    rows = []
    for f_sub in subgroups(gamma, max_f):
        f_id = ",".join(str(gamma_pos[x]) for x in sorted(f_sub.elements()))
        for g_ref in small_groups_catalog(max_g):
            auts = automorphisms(g_ref)
            g_pos = g_ref._indexed().pos
            reps = {}
            for hom in enumerate_homs(f_sub, g_ref, injective_only=True):
                key = [g_pos[hom(x)] for x in f_sub.elements()]
                canon = min(tuple(alpha.images[i] for i in key) for alpha in auts.elements())
                reps.setdefault(canon, hom)
            for canon in sorted(reps):
                psi = reps[canon]
                gen = _literal_extending_generator(g_ref, [psi(x) for x in f_sub.gens])
                if gen is None:
                    continue
                witness = omni_check(OmniQuery(gamma, f_sub, g_ref, psi, gen), search_bound)
                in_block = set(f_sub.elements()) <= h_block
                flag = "h-lift-miss" if witness is None and in_block and enumerate_homs(
                    g_ref, block_group, injective_only=True) else ""
                rows.append(OmniAuditRow(
                    f_order=f_sub.order(), f_id=f_id, g_name=g_ref.label(),
                    g_order=g_ref.order(),
                    psi_fingerprint="[" + ",".join(str(g_pos[psi(x)])
                                                   for x in f_sub.elements()) + "]",
                    witnessed=witness is not None,
                    witness_order=witness.subgroup.order() if witness else None,
                    search_bound=search_bound, flag=flag))
    return tuple(rows)


@pytest.mark.parametrize("base, search_bound", [
    (cyclic_group(2), 4), (cyclic_group(2), 12), (symmetric_group(3), 12),
], ids=["C2-4", "C2-12", "S3-12"])
def test_audit_up_to_conjugacy_matches_the_per_row_audit(base, search_bound):
    # rows of a conjugate F reuse its class representative's verdicts
    tower = make_cayley_tower(base, alternating_group(5), 0)
    rep = omni_audit(tower.sums[0].group, 2, 6, search_bound=search_bound,
                     h_block=tower.sums[0].inject_b)
    sys = build_D(make_cayley_tower(base, alternating_group(5), 0))
    want = _per_row_audit(sys.stages[0], 2, 6, search_bound, kernel_at_stage(sys, 0))
    assert rep.rows == want
    assert any(r.flag == "h-lift-miss" for r in want) == (search_bound == 4)


def _recorded(monkeypatch, name):
    """The argument tuples of every call to `meklerkit.omni.<name>`, as they happen."""
    calls = []
    real = getattr(meklerkit.omni, name)
    monkeypatch.setattr(meklerkit.omni, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_default_reduce_audit_searches_one_f_per_class(monkeypatch):
    # 161 rows; the subgroups of order <= 2 of C2 (+) Alt(5) fall into 4 classes,
    # and each class lists the extensions <F, y> of its first F once
    searches = _recorded(monkeypatch, "_first_witness")
    listings = _recorded(monkeypatch, "_extensions")
    block = make_cayley_tower(cyclic_group(2), alternating_group(5), 0).sums[0].inject_b
    rep = omni_audit(block.codomain, 2, 6, search_bound=12, h_block=block)
    assert len(rep.rows) == 161 and len(searches) == 21 and len(listings) == 4
    assert len({id(extensions) for _, extensions in searches}) == 4


def _literal_witness(query, search_bound):
    """The <F, y> witness search written out: each <F, y> closed by
    `closure_elements` and kept for its first y, taken by (order, first y),
    then a hom table for every candidate image tuple, the onto test on the
    table and agreement with psi on F."""
    gamma, target, f_gens = query.gamma, query.target, list(query.sub_f.gens)
    first = {}
    for y in gamma.elements():
        closed = closure_elements(f_gens + [y], gamma.degree, search_bound)
        if closed is not None:
            first.setdefault(frozenset(closed), y)
    for members, y in sorted(first.items(), key=lambda my: len(my[0])):
        if len(members) % target.order():
            continue
        h = PermGroup(gamma.degree, f_gens + [y])
        pools = [[query.psi(x)] for x in f_gens] + [
            [z for z in target.elements() if y.order() % z.order() == 0]]
        for images in itertools.product(*pools):
            try:
                hom = Hom(h, target, images).verify()
            except ValueError:
                continue
            if hom.is_surjective() and all(
                    hom(x) == query.psi(x) for x in query.sub_f.elements()):
                return h, hom
    return None


@pytest.mark.parametrize("base", [cyclic_group(2), symmetric_group(3)], ids=["C2", "S3"])
def test_witness_search_matches_the_literal_search(monkeypatch, base):
    # every row the (2, 6, 12) audit searches: the same H and the same images
    searches = _recorded(monkeypatch, "_first_witness")
    stage = build_D(make_cayley_tower(base, alternating_group(5), 0)).stages[0]
    omni_audit(stage, 2, 6, search_bound=12)
    queries = [query for query, _ in searches]  # omni_check below adds calls of its own
    assert len(queries) == 21
    witnessed = 0
    for query in queries:
        got, want = omni_check(query, 12), _literal_witness(query, 12)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.subgroup.gens == want[0].gens
            assert got.surj.gen_images == want[1].gen_images
            witnessed += 1
    assert 0 < witnessed < len(queries)


def _lattice_witness_order(query, containing):
    """The least |H| of a witness among `containing`, the subgroups H >= F in
    lattice order: the search over the whole lattice above F, with F's
    generators sent to psi's images and the others to order-divisors."""
    target, f_gens = query.target, query.sub_f.gens
    for h in containing:
        if h.order() % target.order():
            continue
        pools = [[query.psi(x)] for x in f_gens] + [
            _order_pool(x, target) for x in h.gens[len(f_gens):]]
        for hom in _homs(h, target, _onto(target, pools)):
            if all(hom(x) == query.psi(x) for x in query.sub_f.elements()):
                return h.order()
    return None


@pytest.mark.parametrize("base, bounds", [
    (cyclic_group(2), [4, 12, 120]),
    (symmetric_group(3), [4, 12, 360]),
    (parse_group("p group 9\ng: 1 2 0 4 5 3 7 8 6\ng: 0 4 8 3 7 2 6 1 5\n"), [4, 12]),
    (symmetric_group(4), [4, 12]),
], ids=["C2", "S3", "Heisenberg", "S4"])
def test_extension_witness_orders_match_the_lattice_search(monkeypatch, base, bounds):
    # a witness pi : H -> G with pi(y) = g restricts to one on <F, y>, so on
    # every row the audit searches the least |<F, y>| carrying a witness is
    # the least |H| over all H >= F; the last C2 and S3 bound is the whole stage
    stage = build_D(make_cayley_tower(base, alternating_group(5), 0)).stages[0]
    full = meklerkit.groups._lattice(stage, max(bounds))  # the stage's one lattice build
    monkeypatch.setattr(meklerkit.groups, "_lattice", lambda g, bound: {
        m: ys for m, ys in full.items() if len(ys) <= bound})
    searches = []
    real = meklerkit.omni._first_witness
    monkeypatch.setattr(meklerkit.omni, "_first_witness",
                        lambda *a: searches.append((a[0], real(*a))) or searches[-1][1])
    for bound in bounds:
        searches.clear()
        omni_audit(stage, 2, 6, search_bound=bound)
        containing = {}  # F -> the subgroups containing it, listed once
        for query, witness in searches:
            f_sub = query.sub_f
            if f_sub not in containing:
                containing[f_sub] = subgroups_containing(stage, f_sub.gens, bound)
            want = _lattice_witness_order(query, containing[f_sub])
            assert (witness and witness.subgroup.order()) == want, (bound, query)
        assert searches and any(w for _, w in searches) and not all(w for _, w in searches)


def _literal_extending_generator(g, image):
    """The old Perm-level choice: the first element whose closure with image is g."""
    for cand in g.elements():
        if len(closure_elements(image + [cand], g.degree)) == g.order():
            return cand
    return None


def test_extending_generator_matches_the_literal_choice():
    # the audit's extending generator: the last entry of the first `_onto` tuple
    for g in small_groups_catalog(11):
        els = g.elements()
        pairs = [list(p) for p in itertools.combinations(els, 2)]
        for image in [[]] + [[a] for a in els] + pairs:
            got = next((ims[-1] for ims in _onto(g, [[y] for y in image] + [els])), None)
            assert got == _literal_extending_generator(g, image), (g.label(), image)


def test_audit_respects_lagrange_pruning_soundness():
    # pruned rows would have been misses anyway: brute-check tiny cases
    s3 = symmetric_group(3)
    rep = omni_audit(s3, 2, 4)
    for row in rep.rows:
        if row.g_order and s3.order() % row.g_order != 0:
            assert not row.witnessed
