"""Permutation kernel: Perm algebra, closures, homs, subgroups, isomorphism.

Classical counts (subgroup totals, automorphism group orders, hom counts)
are re-derived here by literal brute force rather than trusted.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from conftest import random_perm, subgroup_sets_by_subsets
from meklerkit import (
    EnumerationBudgetError,
    Hom,
    ParseError,
    Perm,
    PermGroup,
    alternating_group,
    automorphisms,
    brute_iso,
    build_D,
    cayley_embedding_even,
    center_elements,
    check_normal_absorption,
    closure_elements,
    conjugacy_classes,
    cyclic_group,
    derived_subgroup_elements,
    dihedral_group,
    direct_sum,
    enumerate_homs,
    format_group,
    is_simple,
    iso_invariant_mismatch,
    kernel_at_stage,
    klein_four_group,
    lift_hom,
    make_cayley_tower,
    normal_closure,
    parse_group,
    quaternion_group,
    quotient_group,
    small_groups_catalog,
    subgroups,
    subgroups_containing,
    symmetric_group,
    trivial_group,
    verify_hom_table,
)
from meklerkit.groups import (
    CATALOG_MAX_ORDER,
    _PAIR_TABLE_LIMIT,
    _bits,
    _closure_mask,
    _generating_sequence,
    _greedy_generators,
    _iso_search,
    _lattice,
    _onto,
    _orbit_columns,
    _subgroup_class,
)


def test_perm_composition_convention():
    p = Perm((1, 2, 0))
    q = Perm((0, 2, 1))
    pq = p * q
    for i in range(3):
        assert pq(i) == p(q(i))
    assert (~p) * p == Perm.identity(3)
    assert p * ~p == Perm.identity(3)


def test_perm_algebra_random():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.randrange(1, 9)
        p, q, r = (random_perm(rng, d) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert ~(p * q) == ~q * ~p
        k = p.order()
        acc = Perm.identity(d)
        for _ in range(k):
            acc = acc * p
        assert acc == Perm.identity(d)


@st.composite
def perm_pairs(draw):
    d = draw(st.integers(0, 64))
    p, q = (Perm(draw(st.permutations(range(d)))) for _ in range(2))
    return p, q, draw(st.integers(0, 64).filter(lambda e: e != d))


@settings(deadline=None)
@given(perm_pairs())
def test_perm_product_rule(case):
    p, q, other_degree = case
    pq = p * q
    assert all(pq.images[i] == p.images[q.images[i]] for i in range(p.degree))
    rebuilt = Perm(pq.images)
    assert pq == rebuilt and hash(pq) == hash(rebuilt)
    assert ~p * p == Perm.identity(p.degree)
    with pytest.raises(ValueError, match="degree mismatch"):
        p * Perm.identity(other_degree)


def inversion_parity(p: Perm) -> bool:
    inv = sum(
        1
        for i, j in itertools.combinations(range(len(p.images)), 2)
        if p.images[i] > p.images[j]
    )
    return inv % 2 == 0


def test_perm_parity_oracle():
    rng = random.Random(13)
    for _ in range(200):
        p = random_perm(rng, rng.randrange(1, 9))
        assert p.is_even() == inversion_parity(p)
    assert Perm((1, 0, 2)).is_even() is False
    assert Perm((1, 2, 0)).is_even() is True


def test_perm_cycles_and_from_cycles():
    p = Perm.from_cycles(5, (0, 1, 2), (3, 4))
    assert p.images == (1, 2, 0, 4, 3)
    assert p.order() == 6
    rng = random.Random(17)
    for _ in range(100):
        p = random_perm(rng, rng.randrange(1, 10))
        rebuilt = Perm.from_cycles(len(p.images), *p.cycles())
        assert rebuilt == p


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((0, 3, 1))
    assert Perm((2, 0, 1)).extend(5).images == (2, 0, 1, 3, 4)


def group_axioms_full(g: PermGroup):
    els = g.elements()
    s = set(els)
    assert len(s) == len(els)
    e = Perm.identity(g.degree)
    assert e in s
    for a in els:
        assert ~a in s
        assert a * ~a == e
        for b in els:
            assert a * b in s


def test_group_axioms_catalog():
    for g in small_groups_catalog(11):
        group_axioms_full(g)
    group_axioms_full(symmetric_group(4))
    group_axioms_full(dihedral_group(6))
    # associativity holds elementwise on a seeded sample of larger groups
    rng = random.Random(19)
    els = symmetric_group(4).elements()
    for _ in range(500):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_known_orders():
    assert symmetric_group(4).order() == 24
    assert len(symmetric_group(4).elements()) == 24
    assert alternating_group(4).order() == 12
    assert len(alternating_group(4).elements()) == 12
    assert alternating_group(5).order() == 60
    assert dihedral_group(4).order() == 8
    assert quaternion_group().order() == 8
    assert trivial_group(1).order() == 1
    # every member of Alt(n) is even
    assert all(p.is_even() for p in alternating_group(5).elements())


def test_small_alternating_groups_keep_consecutive_3_cycles():
    expected = {
        1: [], 2: [],
        3: [(1, 2, 0)],
        4: [(1, 2, 0, 3), (0, 2, 3, 1)],
        5: [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)],
    }
    for n, gens in expected.items():
        assert [g.images for g in alternating_group(n).gens] == gens


@pytest.mark.parametrize("n", [6, 7])
def test_two_generator_alternating_group_enumerates_in_full(n):
    g = alternating_group(n)
    assert len(g.gens) == 2
    els = closure_elements(g.gens, n)
    assert len(els) == len(set(els)) == math.factorial(n) // 2
    assert all(x.is_even() for x in els)


def test_two_generator_alternating_group_is_alt_by_sympy():
    """sympy's Schreier-Sims order up to degree 28 (it takes 11 s at 60).

    Past that, and at degree 122 (stage 1 over C2): even generators that
    include the 3-cycle (0 1 2) and act primitively give exactly Alt(n), by
    Jordan's theorem.
    """
    for n in [*range(6, 61), 122]:
        gens = [Permutation(list(g.images)) for g in alternating_group(n).gens]
        assert len(gens) == 2 and all(g.is_even for g in gens)
        assert gens[0] == Permutation(0, 1, 2, size=n)
        group = PermutationGroup(gens)
        if n <= 28:
            assert group.order() == math.factorial(n) // 2, n
        else:
            assert group.is_primitive(randomized=False), n


def test_quaternion_is_really_q8():
    q8 = quaternion_group()
    profile = sorted(Counter(x.order() for x in q8.elements()).items())
    assert profile == [(1, 1), (2, 1), (4, 6)]
    assert not q8.is_abelian()


def test_enumeration_budget():
    big = alternating_group(9)
    with pytest.raises(EnumerationBudgetError):
        big.elements()
    # order and membership still work without enumeration
    assert big.order() == 181440
    assert Perm.from_cycles(9, (0, 1, 2)) in big
    assert Perm.from_cycles(9, (0, 1)) not in big


def test_direct_sum_structure():
    c2, s3 = cyclic_group(2), symmetric_group(3)
    ds = direct_sum(c2, s3)
    assert ds.group.order() == 12
    assert ds.group.degree == 5
    for x in c2.elements():
        for y in s3.elements():
            u, v = ds.inject_a(x), ds.inject_b(y)
            assert u * v == v * u
            assert (u * v).images[:2] == x.images
    # the membership hook rejects block-mixing permutations
    swap = Perm((3, 1, 2, 0, 4))
    assert swap not in ds.group
    # and the hook answers without enumeration for huge factors
    huge = direct_sum(c2, alternating_group(9))
    gen = huge.inject_b(alternating_group(9).gens[0])
    assert gen in huge.group
    # an odd B-half keeps the blocks but fails the Alt(9) hook
    odd_b = Perm((0, 1, 3, 2) + tuple(range(4, 11)))
    assert odd_b not in huge.group
    assert huge.group.order() == 2 * 181440
    # the sum takes the smaller of the factors' element budgets
    s3.enum_budget = 10
    with pytest.raises(EnumerationBudgetError):
        direct_sum(c2, s3).group.elements()


def test_direct_sum_past_a_hookless_factor_budget_names_the_factor():
    # S9 has no membership hook and 362,880 elements, past the 20,000 budget: the
    # sum's block hook asks S9 whether its generators' B-halves are members
    with pytest.raises(EnumerationBudgetError, match="order 362880 "):
        direct_sum(cyclic_group(2), symmetric_group(9))


def _sign_map(n: int) -> Hom:
    c2 = cyclic_group(2)
    sn = symmetric_group(n)
    return Hom(sn, c2, [Perm.identity(2) if g.is_even() else c2.gens[0] for g in sn.gens])


@pytest.mark.parametrize("n", [3, 7], ids=["S3-all-pairs", "S7-generator-pairs"])
def test_verify_hom_table_sees_one_corrupted_row(n):
    # S3 takes the all-pairs branch, S7 (5,040 elements) the generator-pair one
    sign = _sign_map(n)
    assert (len(sign.domain.elements()) <= _PAIR_TABLE_LIMIT) == (n == 3)
    assert verify_hom_table(sign)
    row = len(sign.mapping) // 2
    sign._mapping[row] = sign._mapping[row][::-1].copy()  # the other element of C2
    assert not verify_hom_table(sign)


def test_hom_verify_and_kernel():
    s3, c2 = symmetric_group(3), cyclic_group(2)
    flip = c2.gens[0]
    sign = Hom(s3, c2, [flip if not g.is_even() else Perm.identity(2) for g in s3.gens])
    sign.verify()
    assert verify_hom_table(sign)
    ker = [x for x in s3.elements() if sign(x) == Perm.identity(2)]
    assert len(ker) == 3
    assert all(p.is_even() for p in ker)
    assert not sign.is_injective()
    assert sign.is_surjective()


def test_is_surjective_never_enumerates_the_codomain():
    # the regular embedding of S3 lands in Alt(8), 20,160 elements, past the budget
    f = cayley_embedding_even(symmetric_group(3))
    assert f.codomain.order() > f.codomain.enum_budget
    assert not f.is_surjective()
    with pytest.raises(EnumerationBudgetError):
        f.codomain.elements()
    s4 = symmetric_group(4)
    v4 = _mask(s4, [x for x in s4.elements() if x.order() <= 2 and x.is_even()])
    to_s3 = quotient_group(s4, v4)
    assert Hom(s4, to_s3.group, to_s3.group.gens).is_surjective()


def test_hom_rejects_non_homomorphism():
    c3, c2 = cyclic_group(3), cyclic_group(2)
    bad = Hom(c3, c2, [c2.gens[0]])
    with pytest.raises(ValueError):
        bad.verify()


def _reference_mapping(hom: Hom) -> dict:
    """Literal reference table: a Perm-dict BFS over products with the generators."""
    dom = hom.domain
    table = {dom.identity(): hom.codomain.identity()}
    frontier = [dom.identity()]
    while frontier:
        fresh = []
        for x in frontier:
            fx = table[x]
            for g, fg in zip(dom.gens, hom.gen_images):
                y, fy = x * g, fx * fg
                cur = table.get(y)
                if cur is None:
                    table[y] = fy
                    fresh.append(y)
                elif cur != fy:
                    raise ValueError("generator images do not define a homomorphism")
        frontier = fresh
    assert len(table) == len(dom.elements())
    return table


def assert_table_matches_reference(hom: Hom) -> None:
    ref = _reference_mapping(hom)
    els = hom.domain.elements()
    table = hom.mapping
    assert table.shape == (len(els), hom.codomain.degree)
    for x, row in zip(els, table):  # row i is the image of elements()[i]
        assert tuple(row.tolist()) == ref[x].images and hom(x) == ref[x]
    assert hom.is_injective() == (len(set(ref.values())) == len(els))


def test_hom_table_dtype_and_lookup_contract():
    f = cayley_embedding_even(symmetric_group(3))
    table = f.verify().mapping
    assert isinstance(table, np.ndarray) and f.mapping is table  # built once, kept
    assert table.shape == (6, 8) and table.dtype == np.int8
    big = cyclic_group(200)
    assert Hom(big, big, big.gens).mapping.dtype == np.int16
    # hom(x) reads the row of x's domain position: a non-element has none
    with pytest.raises(KeyError):
        f(Perm.identity(8))
    c3 = cyclic_group(3)
    rotation = Hom(c3, c3, c3.gens)
    with pytest.raises(KeyError):
        rotation(Perm((1, 0, 2)))  # a transposition: the right degree, not in C3


def assert_positions_read_the_images(hom: Hom) -> None:
    pos = hom.codomain._indexed().pos
    assert hom.positions() == [pos[hom(x)] for x in hom.domain.elements()]


def test_positions_on_every_catalog_automorphism():
    seen = 0
    for g in small_groups_catalog(11):
        for hom in _iso_search(g, g):
            assert_positions_read_the_images(hom)
            seen += 1
    assert seen == 1 + 1 + 2 + 2 + 6 + 4 + 2 + 6 + 6 + 4 + 8 + 168 + 8 + 24 + 6 + 48 + 4 + 20 + 10


@pytest.mark.parametrize("base", ["C2", "S4xC2"])
def test_positions_of_the_tower_kernel_injection(base):
    base = cyclic_group(2) if base == "C2" else PermGroup(
        6, [Perm((1, 2, 3, 0, 4, 5)), Perm((1, 0, 2, 3, 4, 5)), Perm((0, 1, 2, 3, 5, 4))])
    inject = make_cayley_tower(base, alternating_group(5), 0).sums[0].inject_b
    assert_positions_read_the_images(inject)
    assert len(set(inject.positions())) == 60


def test_positions_refuse_a_codomain_past_the_budget():
    # S3 into Alt(8): the table has 6 rows, but Alt(8) has 20,160 elements
    f = cayley_embedding_even(symmetric_group(3))
    assert f.codomain.order() > f.codomain.enum_budget
    with pytest.raises(EnumerationBudgetError):
        f.positions()
    assert f._mapping is None  # the budget refused before the table was built


@pytest.mark.parametrize("base", [cyclic_group(2), symmetric_group(3)], ids=["C2", "S3"])
def test_tower_hom_tables_match_reference(base):
    tower = make_cayley_tower(base, alternating_group(5), 1)
    (phi,) = build_D(tower).maps
    for hom in (tower.f_maps[0], phi):
        assert_table_matches_reference(hom)
        assert hom.is_injective()


def test_tower_hom_proofs_read_one_point_per_orbit():
    # S4 x C2 on six points: stage 0 has order 2880, stage 1 acts on 2,888 points
    base = PermGroup(6, [Perm((1, 2, 3, 0, 4, 5)), Perm((1, 0, 2, 3, 4, 5)),
                         Perm((0, 1, 2, 3, 5, 4))])
    tower = make_cayley_tower(base, alternating_group(5), 1)
    (phi,) = build_D(tower).maps
    cayley = tower.f_maps[0]
    assert (cayley.name, phi.name) == ("cayley_even", "phi_0")
    for hom, points in ((cayley, [0]), (phi, [0, 4, 6])):
        assert [p for p, _ in _orbit_columns(hom.domain._indexed(), hom.gen_images)] == points
        assert list(hom.verify()._columns) == points and hom._mapping is None


def test_direct_sum_hom_tables_match_reference():
    c2, s3 = cyclic_group(2), symmetric_group(3)
    ds = direct_sum(c2, s3)
    for hom in (ds.inject_a, ds.inject_b):
        assert_table_matches_reference(hom)
    # the second projection of the same block sum, as lift_hom builds it
    surj = lift_hom(c2, s3, Hom(c2, s3, [Perm((1, 0, 2))])).surj
    assert_table_matches_reference(surj)
    for x in c2.elements():
        for y in s3.elements():
            assert surj(ds.inject_a(x) * ds.inject_b(y)) == y


def test_enumerated_hom_tables_match_reference():
    cat = {g.label(): g for g in small_groups_catalog(8)}
    pairs = [("S3", "S3"), ("Q8", "D4"), ("C2xC2", "S3")]
    for f, g in pairs:
        homs = enumerate_homs(cat[f], cat[g])
        assert homs
        for hom in homs:
            assert_table_matches_reference(hom)
    # domains that subgroups_containing and brute_iso build
    for h in subgroups_containing(symmetric_group(4), [Perm((1, 0, 2, 3))], 8):
        homs = enumerate_homs(h, cat["S3"])
        assert homs
        for hom in homs:
            assert_table_matches_reference(hom)
    for f, g in [("Q8", "Q8"), ("S3", "S3"), ("C4xC2", "C4xC2")]:
        assert_table_matches_reference(brute_iso(cat[f], cat[g]))


def test_column_proof_and_kernel_match_the_filled_table():
    # every hom of each pair, non-injective, trivial and not onto among them:
    # the kernel read off the columns is the table's identity rows, and every
    # column is the table's column; S3's automorphisms send (1 2) to an element
    # that fixes the proof's point 0 but is not the identity
    cat = {g.label(): g for g in small_groups_catalog(8)}
    pairs = [(cat["S3"], cat["C2"]), (symmetric_group(4), cat["S3"]),
             (cat["D4"], cat["C2xC2"]), (cat["C2"], cat["S3"]), (cat["Q8"], cat["C4xC2"]),
             (cat["C2xC2"], cat["C4xC2"]), (cat["C2xC2"], cat["D4"]), (cat["S3"], cat["S3"])]
    kinds = Counter()
    for f, g in pairs:
        for hom in enumerate_homs(f, g):
            injective = hom.is_injective()
            assert hom._mapping is None  # the kernel needs no row
            table = hom.mapping
            ident = np.arange(g.degree, dtype=table.dtype)
            assert injective == (int((table == ident).all(axis=1).sum()) == 1)
            assert all(hom.column(p) == table[:, p].tolist() for p in range(g.degree))
            kinds.update({"injective": injective, "trivial": not hom.verify()._columns,
                          "onto": hom.is_surjective(), "homs": True})
    assert kinds["homs"] > kinds["injective"] > 0 and kinds["trivial"] == len(pairs)
    assert 0 < kinds["onto"] < kinds["homs"]
    bad = Hom(cat["C3"], cat["C2"], [cat["C2"].gens[0]])
    with pytest.raises(ValueError, match="do not define a homomorphism"):
        bad.verify()
    assert bad._mapping is None and bad._columns is None


def _walk_groups():
    for g in (symmetric_group(4), alternating_group(5),
              direct_sum(cyclic_group(2), alternating_group(5)).group, quaternion_group()):
        yield g
        proper = [h for h in subgroups_containing(g, g.gens[:1], 12) if h.order() < g.order()]
        yield proper[-1]


@pytest.mark.parametrize("g", list(_walk_groups()), ids=lambda g: f"{g.label()}|{g.order()}")
def test_one_walk_gives_elements_positions_steps_and_tree(g):
    ix = g._indexed()
    els = ix.elements
    assert els[0].is_identity() and len(els) == g.order()
    assert list(els) == closure_elements(g.gens, g.degree)
    assert all(ix.pos[x] == i for i, x in enumerate(els))
    assert len(ix.right) == len(g.gens)
    for k, s in enumerate(g.gens):
        assert len(ix.right[k]) == len(els) and all(type(c) is int for c in ix.right[k])
        for i, x in enumerate(els):
            assert els[ix.right[k][i]] == x * s
    # the tree reaches every position but 0 exactly once, from an earlier one
    assert sorted(i for _, i, _ in ix.tree) == list(range(1, len(els)))
    for a, i, k in ix.tree:
        assert a < i and els[i] == els[a] * g.gens[k]


SMALL_GROUPS = [cyclic_group(4), klein_four_group(), symmetric_group(3), dihedral_group(4),
                quaternion_group()]
_CATALOG_8 = {g.label(): g for g in small_groups_catalog(8)}
# codomains with several orbits, and fixed points that no image moves
INTRANSITIVE_GROUPS = [direct_sum(cyclic_group(2), symmetric_group(3)).group,
                       _CATALOG_8["C2xC2xC2"], _CATALOG_8["C4xC2"],
                       PermGroup(7, [g.extend(7) for g in dihedral_group(4).gens])]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(SMALL_GROUPS),
       st.sampled_from(SMALL_GROUPS + INTRANSITIVE_GROUPS), st.data())
def test_hom_table_rejects_exactly_what_the_reference_rejects(dom, cod, data):
    cod_els = cod.elements()
    images = [data.draw(st.sampled_from(cod_els)) for _ in dom.gens]
    hom = Hom(dom, cod, images)
    try:
        _reference_mapping(hom)
    except ValueError:
        with pytest.raises(ValueError, match="do not define a homomorphism"):
            hom.verify()
    else:
        assert_table_matches_reference(hom)
        # the points read cover every orbit: with the fixed points they reach every point
        columns = dict(_orbit_columns(dom._indexed(), images))
        assert columns == hom._columns
        fixed = {p for p in range(cod.degree) if all(fg(p) == p for fg in images)}
        reached = fixed.union(*columns.values())
        assert reached == set(range(cod.degree)) and not fixed & set(columns)
        for col in columns.values():  # each column is an orbit: closed under the images
            assert {fg(q) for fg in images for q in col} == set(col)


def test_subgroups_containing_on_a_reused_group_matches_a_fresh_group():
    def shape(groups):
        return [(h.gens, h.order()) for h in groups]

    g = symmetric_group(4)
    seed = [Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2))]
    first = subgroups_containing(g, seed, 8)
    first.clear()  # each call returns a fresh list
    again = subgroups_containing(g, seed, 8)
    assert again and again is not subgroups_containing(g, seed, 8)
    assert shape(again) == shape(subgroups_containing(symmetric_group(4), seed, 8))
    # the generators start with the seed, in the seed's order
    swapped = subgroups_containing(g, seed[::-1], 8)
    assert [h.gens[:2] for h in swapped] == [tuple(seed[::-1])] * len(swapped)
    subgroups_containing(g, seed, 24)  # a larger bound in between changes nothing
    for bound in (8, 24, 4):
        assert shape(subgroups_containing(g, seed, bound)) == shape(
            subgroups_containing(symmetric_group(4), seed, bound))


def test_corrupted_cayley_image_is_refused():
    s3 = symmetric_group(3)
    f = cayley_embedding_even(s3)
    # an even 3-cycle in place of the transposition's image breaks x^2 = e
    bad = Perm.from_cycles(8, (0, 1, 2))
    assert s3.gens[0].order() == 2 and bad.is_even() and bad in f.codomain
    broken = Hom(s3, f.codomain, (bad,) + f.gen_images[1:])
    with pytest.raises(ValueError, match="do not define a homomorphism"):
        _reference_mapping(broken)
    with pytest.raises(ValueError, match="do not define a homomorphism"):
        broken.verify()


def test_conjugacy_classes_and_center():
    sizes = sorted(len(c) for c in conjugacy_classes(symmetric_group(3)))
    assert sizes == [1, 2, 3]
    sizes4 = sorted(len(c) for c in conjugacy_classes(symmetric_group(4)))
    assert sizes4 == [1, 3, 6, 6, 8]
    assert len(center_elements(dihedral_group(4))) == 2
    assert len(center_elements(quaternion_group())) == 2
    assert len(center_elements(cyclic_group(7))) == 7


@pytest.mark.parametrize("g", small_groups_catalog(CATALOG_MAX_ORDER) + [
    build_D(make_cayley_tower(symmetric_group(4), alternating_group(5), 0)).stages[0]],
    ids=lambda g: g.label())
def test_center_matches_the_literal_definition(g):
    els = g.elements()
    literal = tuple(x for x in els if all(x * y == y * x for y in els))
    assert center_elements(g) == literal


def test_derived_subgroups():
    assert len(derived_subgroup_elements(symmetric_group(3))) == 3
    assert len(derived_subgroup_elements(symmetric_group(4))) == 12
    assert len(derived_subgroup_elements(cyclic_group(6))) == 1
    assert len(derived_subgroup_elements(quaternion_group())) == 2
    # oracle: the closure of all commutators, done literally
    g = symmetric_group(3)
    els = g.elements()
    comms = {(~a) * (~b) * a * b for a in els for b in els}
    assert comms <= set(derived_subgroup_elements(g))


def _sympy_perms(elements):
    return {Perm(tuple(p.array_form)) for p in elements}


def _perm_conjugates(g, x):
    """The old Perm walk: x's class in the order a FIFO walk over g.gens finds it."""
    orbit, seen = [x], {x}
    for y in orbit:
        for s in g.gens:
            z = s * y * ~s
            if z not in seen:
                seen.add(z)
                orbit.append(z)
    return orbit


def test_classes_center_and_derived_subgroup_against_sympy():
    stage = build_D(make_cayley_tower(cyclic_group(2), alternating_group(5), 0)).stages[0]
    for g in [symmetric_group(4), dihedral_group(5), quaternion_group(),
              alternating_group(5), stage]:
        oracle = PermutationGroup([Permutation(list(s.images)) for s in g.gens])
        els = g.elements()
        pos = {x: i for i, x in enumerate(els)}
        classes = conjugacy_classes(g)
        assert sorted(map(set, classes), key=min) == sorted(
            map(_sympy_perms, oracle.conjugacy_classes()), key=min)
        assert all(list(c) == sorted(c) for c in classes)
        firsts = [min(pos[x] for x in c) for c in classes]
        assert firsts == sorted(firsts), g  # listed by first element found
        assert set(center_elements(g)) == _sympy_perms(oracle.center().elements)
        derived = derived_subgroup_elements(g)
        assert set(derived) == _sympy_perms(oracle.derived_subgroup().elements), g
        assert list(derived) == [x for x in els if x in set(derived)]
        for x in els:  # normal closures are generated by the old walk's class, in its order
            assert normal_closure(g, x).gens == tuple(_perm_conjugates(g, x))


def test_normal_closure_classics():
    s4 = symmetric_group(4)
    assert normal_closure(s4, Perm((1, 0, 2, 3))).order() == 24
    assert normal_closure(s4, Perm((1, 0, 3, 2))).order() == 4
    assert normal_closure(s4, Perm((1, 2, 0, 3))).order() == 12
    a5 = alternating_group(5)
    assert normal_closure(a5, Perm.from_cycles(5, (0, 1, 2))).order() == 60


def test_normal_closure_inherits_the_parent_budget():
    s4 = symmetric_group(4)
    s4.elements()  # enumerated under the default budget, then tightened
    s4.enum_budget = 11
    v4 = normal_closure(s4, Perm((1, 0, 3, 2)))
    assert v4.order() == 4 and v4.enum_budget == 11
    with pytest.raises(EnumerationBudgetError):  # a transposition's closure is S4
        normal_closure(s4, Perm((1, 0, 2, 3)))


def test_normal_closure_against_sympy():
    # stage 0 of the default tower, C2 (+) Alt(5)
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 0)
    stage = tower.sums[0].group
    for g in [symmetric_group(4), dihedral_group(5), quaternion_group(),
              alternating_group(5), stage]:
        oracle = PermutationGroup([Permutation(list(s.images)) for s in g.gens])
        for x in g.elements():
            want = {Perm(tuple(p.array_form)) for p in
                    oracle.normal_closure(Permutation(list(x.images))).elements}
            got = normal_closure(g, x)
            assert frozenset(got.elements()) == want and got.order() == len(want), (g, x)
            if g is stage and not x.is_identity():
                rep = check_normal_absorption(tower, 0, x)
                assert rep.closure_order == len(want), x


def test_simplicity():
    assert is_simple(alternating_group(5)).simple
    assert not is_simple(symmetric_group(3)).simple
    assert is_simple(cyclic_group(5)).simple
    assert is_simple(cyclic_group(2)).simple
    assert not is_simple(cyclic_group(6)).simple
    assert not is_simple(trivial_group(1)).simple
    rep = is_simple(symmetric_group(4))
    assert not rep.simple and rep.witness is not None


def test_subgroup_enumeration_against_subset_oracle():
    for g in [
        symmetric_group(3),
        cyclic_group(4),
        dihedral_group(4),
        quaternion_group(),
        klein_four_group(),
        cyclic_group(12),
        alternating_group(4),
    ]:
        oracle = {s for s in subgroup_sets_by_subsets(g)}
        got = {frozenset(h.elements()) for h in subgroups(g, g.order())}
        assert got == oracle
    assert len(subgroups(symmetric_group(3), 6)) == 6
    assert len(subgroups(cyclic_group(4), 4)) == 3
    assert len(subgroups(dihedral_group(4), 8)) == 10
    assert len(subgroups(quaternion_group(), 8)) == 6
    assert len(subgroups(symmetric_group(4), 24)) == 30
    assert len(subgroups(alternating_group(5), 60)) == 59


def test_subgroups_respect_bound_and_seed():
    s4 = symmetric_group(4)
    small = subgroups(s4, 4)
    assert all(h.order() <= 4 for h in small)
    assert all(h.order() in (1, 2, 3, 4) for h in small)
    seed = [Perm((1, 0, 2, 3))]
    containing = subgroups_containing(s4, seed, 8)
    for h in containing:
        assert seed[0] in frozenset(h.elements())
        assert tuple(h.gens[: len(seed)]) == tuple(seed)
    assert any(h.order() == 8 for h in containing)


def test_subgroups_containing_refuses_a_seed_outside_the_group():
    with pytest.raises(ValueError, match="element outside the group"):  # another degree
        subgroups_containing(symmetric_group(4), [Perm.from_cycles(5, (0, 4))], 24)
    with pytest.raises(ValueError, match="element outside the group"):  # not in <(0 1 2 3)>
        subgroups_containing(cyclic_group(4), [Perm.from_cycles(4, (0, 1))], 4)


def test_subgroups_containing_matches_brute_filter():
    s4 = symmetric_group(4)
    lattice = [frozenset(h.elements()) for h in subgroups(symmetric_group(4), 24)]
    for f in subgroups(s4, 24):
        f_set = frozenset(f.elements())
        for bound in range(1, 25):
            got = subgroups_containing(s4, f.gens, bound)
            want = [h for h in lattice if f_set <= h and len(h) <= bound]
            assert [frozenset(h.elements()) for h in got] == want
            for h in got:
                assert h.gens[: len(f.gens)] == f.gens
                assert len(closure_elements(h.gens, 4)) == h.order()


def test_seeded_search_adds_as_few_generators_as_the_search_depth():
    # H's generators past the seed follow a shortest cyclic-extension path
    # from <seed> to H, which is what the per-row hom search iterates over
    s4 = symmetric_group(4)
    for f in subgroups(s4, 24):
        base = frozenset(closure_elements(f.gens, 4))
        depth, queue = {base: 0}, [(list(f.gens), base)]
        for gens, els in queue:
            for x in s4.elements():
                if x not in els:
                    bigger = frozenset(closure_elements(gens + [x], 4))
                    if bigger not in depth:
                        depth[bigger] = depth[els] + 1
                        queue.append((gens + [x], bigger))
        got = subgroups_containing(s4, f.gens, 24)
        assert len(got) == len(depth)
        for h in got:
            assert len(h.gens) - len(f.gens) == depth[frozenset(h.elements())]


def test_subgroup_search_keeps_nothing_per_instance():
    def shape(groups):
        return [(h.gens, h.elements()) for h in groups]

    a, b = symmetric_group(4), symmetric_group(4)
    seed = [Perm((1, 0, 2, 3))]
    # nothing is kept per instance: calls at rising and falling bounds agree
    for bound_a, bound_b in [(4, 24), (24, 6), (6, 4)]:
        subgroups(a, bound_a)
        subgroups(b, bound_b)
    for bound in (1, 4, 6, 12, 24):
        assert shape(subgroups(a, bound)) == shape(subgroups(b, bound))
        assert shape(subgroups_containing(a, seed, bound)) == shape(
            subgroups_containing(b, seed, bound)
        )


@pytest.mark.parametrize("g", list(_walk_groups()), ids=lambda g: f"{g.label()}|{g.order()}")
def test_every_row_holds_true_products(g):
    ix = g._indexed()
    els = ix.elements
    for a, x in enumerate(els):
        row = ix.row(a)
        assert all(type(c) is int for c in row)  # a numpy int would break the masks
        assert [els[c] for c in row] == [x * y for y in els]
    assert all(row is ix.row(a) for a, row in enumerate(ix.rows))  # each row is kept


def test_rows_are_built_on_first_use():
    # a small bound builds few rows
    s4 = symmetric_group(4)
    subgroups(s4, 2)
    small = sum(row is not None for row in s4._indexed().rows)
    subgroups(s4, 24)
    assert 0 < small < sum(row is not None for row in s4._indexed().rows) <= 24


def _unpruned_subgroups_containing(g, seed_gens, order_bound):
    """The cyclic-extension search with every <K, x> closed, as reference.

    Closures are element sets from `closure_elements`, read as position masks.
    """
    els = g.elements()
    pos = {x: i for i, x in enumerate(els)}
    bound = min(order_bound, len(els))

    def close(gens, maxsize):
        closed = closure_elements([els[i] for i in gens], g.degree, maxsize)
        return closed and sum(1 << pos[y] for y in closed)

    found = {1: ()}
    queue = list(found)
    for mask in queue:
        for x in range(len(els)):
            gens = found[mask] + (x,)
            bigger = not mask >> x & 1 and close(gens, bound)
            if bigger and bigger not in found:
                found[bigger] = gens
                queue.append(bigger)
    lattice = sorted(found, key=lambda m: (m.bit_count(), sorted(
        els[i].images for i in range(len(els)) if m >> i & 1)))
    seed = tuple(pos[x] for x in seed_gens)
    base = close(seed, order_bound)
    if base is None:
        return []
    kept = [m for m in lattice if m.bit_count() <= order_bound and not base & ~m]
    paths, queue = {base: seed}, [base]
    for k in queue:
        taken, steps = k, []
        for m in kept:
            if not k & ~m and (fresh := m & ~taken):
                steps.append(((fresh & -fresh).bit_length() - 1, m))
                taken |= m
        for x, m in sorted(steps):
            if m not in paths:
                paths[m] = paths[k] + (x,)
                queue.append(m)
    return [([els[i] for i in paths[m]], [els[i] for i in range(len(els)) if m >> i & 1])
            for m in kept]


def _same_search(make, seed_gens, bound):
    got = subgroups_containing(make(), seed_gens, bound)
    want = _unpruned_subgroups_containing(make(), seed_gens, bound)
    assert len(got) == len(want)
    for h, (gens, members) in zip(got, want):
        assert h.gens == tuple(gens)
        assert set(h.elements()) == set(members) and h.order() == len(members)
        assert h.elements() == tuple(closure_elements(gens, h.degree))


def test_pruned_lattice_matches_the_unpruned_search():
    # skipping x past the lcm bound and all but one x per coset Kx keeps
    # every mask, its place in the order and the first path to it
    for make in [lambda: symmetric_group(4), lambda: dihedral_group(4),
                 quaternion_group, lambda: cyclic_group(12), lambda: alternating_group(4)]:
        for bound in range(1, make().order() + 1):
            _same_search(make, [], bound)
    stage = direct_sum(cyclic_group(2), alternating_group(5)).group
    for seed in ([], [stage.gens[0]], [stage.gens[1]]):
        for bound in (2, 6, 12):
            _same_search(lambda: direct_sum(cyclic_group(2), alternating_group(5)).group,
                         seed, bound)


def _every_class_lattice(g, bound):
    """The lattice build that extends every subgroup, not one per class, as reference.

    Its masks, written out with the coset and lcm prunings and the final
    sort by (order, sorted element images).
    """
    ix = g._indexed()
    els = ix.elements
    orders = [x.order() for x in els]
    found = {1: ()}
    queue = list(found)
    full = (1 << len(els)) - 1
    for mask in queue:
        if mask == full:
            continue
        rows = [ix.row(k) for k in range(len(els)) if mask >> k & 1]
        done = mask
        for x in range(len(els)):
            if done >> x & 1:
                continue
            for row in rows:
                done |= 1 << row[x]
            if math.lcm(len(rows), orders[x]) > bound:
                continue
            gens = found[mask] + (x,)
            bigger = _closure_mask(g, gens, bound)
            if bigger and bigger not in found:
                found[bigger] = gens
                queue.append(bigger)
    return sorted(found, key=lambda m: (m.bit_count(), sorted(
        els[i].images for i in range(len(els)) if m >> i & 1)))


def _heisenberg_group():
    """G(K_2 complement, 3), order 27: (x, y) -> (x, y + 1) and (x, y) -> (x + y, y) on F_3^2."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    return PermGroup(9, [Perm([pts.index((x, (y + 1) % 3)) for x, y in pts]),
                         Perm([pts.index(((x + y) % 3, y)) for x, y in pts])])


def _stage(base):
    return direct_sum(base, alternating_group(5)).group


@pytest.mark.parametrize("base, bounds", [
    (lambda: cyclic_group(2), range(2, 13)),
    (lambda: symmetric_group(3), range(2, 13)),
    (_heisenberg_group, [12]),
    (lambda: symmetric_group(4), [12]),
], ids=["C2", "S3", "Heisenberg", "S4"])
def test_class_lattice_matches_every_class_extension(base, bounds):
    # extending one subgroup per conjugacy class and adding each new class
    # whole finds the same masks in the same order on stage 0 = A (+) Alt(5)
    for bound in bounds:
        lattice = _lattice(_stage(base()), bound)
        assert list(lattice) == _every_class_lattice(_stage(base()), bound)
        assert all(sorted(ys) == _bits(m) for m, ys in lattice.items())


def test_subgroup_class_maps_the_representative_by_conjugation():
    g = _stage(cyclic_group(2))
    els, pos = g.elements(), g._indexed().pos
    conj = [[pos[s * y * ~s] for y in els] for s in els]  # conj[s][y]: s y s^-1
    for rep in _lattice(g, 12).values():
        members = _subgroup_class(g, rep)
        assert {frozenset(zs) for zs in members.values()} == {
            frozenset(c[y] for y in rep) for c in conj}
        assert all(m == sum(1 << z for z in zs) for m, zs in members.items())
        for zs in members.values():  # one s carries rep onto zs, element by element
            assert any(all(c[y] == z for y, z in zip(rep, zs)) for c in conj)


def test_brute_iso_positive():
    c6 = cyclic_group(6)
    ds = direct_sum(cyclic_group(2), cyclic_group(3)).group
    iso = brute_iso(ds, c6)
    assert iso is not None
    assert verify_hom_table(iso) and iso.is_injective()
    assert brute_iso(symmetric_group(3), dihedral_group(3)) is not None
    assert brute_iso(trivial_group(1), trivial_group(3)) is not None


def test_brute_iso_negative():
    assert brute_iso(cyclic_group(4), klein_four_group()) is None
    assert brute_iso(dihedral_group(4), quaternion_group()) is None
    assert brute_iso(symmetric_group(3), cyclic_group(6)) is None
    name, left, right = iso_invariant_mismatch(cyclic_group(4), klein_four_group())
    assert left != right
    assert iso_invariant_mismatch(dihedral_group(4), quaternion_group()) is not None
    # same invariants everywhere we test does not imply isomorphic, but
    # different order must separate immediately
    got = iso_invariant_mismatch(cyclic_group(4), cyclic_group(5))
    assert got is not None and got[0] == "order"


def _literal_iso_search(g: PermGroup, h: PermGroup):
    """The iso search with a hom table for every candidate, kept when it is
    injective with as many rows as h has elements."""
    if iso_invariant_mismatch(g, h) is not None:
        return
    seq = _generating_sequence(g)
    size_h = {y: len(c) for c in conjugacy_classes(h) for y in c}
    size_g = {x: len(c) for c in conjugacy_classes(g) for x in c}
    pools = [[y for y in h.elements() if y.order() == x.order() and size_h[y] == size_g[x]]
             for x in seq]
    domain = PermGroup(g.degree, seq, known_order=g.order())
    for images in itertools.product(*pools):
        try:
            hom = Hom(domain, h, images).verify()
        except ValueError:
            continue
        if hom.is_injective() and len(hom.mapping) == h.order() and verify_hom_table(hom):
            yield hom


def test_iso_search_matches_the_injective_filter():
    # every catalog pair of one order, and each group against a relabelled copy
    rng = random.Random(18)
    catalog = small_groups_catalog(11)
    copies = []
    for g in catalog:
        sigma = random_perm(rng, g.degree)
        copies.append(PermGroup(g.degree, [sigma * x * ~sigma for x in g.gens]))
    pairs = [(g, h, h is g or h is c) for g, c in zip(catalog, copies)
             for h in catalog + copies if g.order() == h.order()]
    assert len(pairs) == 2 * 47
    for g, h, isomorphic in pairs:
        want = [hom.gen_images for hom in _literal_iso_search(g, h)]
        assert [hom.gen_images for hom in _iso_search(g, h)] == want, (g.label(), h.label())
        assert bool(want) == isomorphic


def test_onto_keeps_exactly_the_generating_tuples_against_sympy():
    rng = random.Random(18)
    kept = dropped = 0
    for g in small_groups_catalog(11):
        els = g.elements()
        for size in (1, 2, 2, 3):
            pools = [rng.sample(els, min(3, len(els))) for _ in range(size)]
            want = [t for t in itertools.product(*pools) if PermutationGroup(
                [Permutation(list(y.images)) for y in t]).order() == g.order()]
            got = list(_onto(g, pools))
            assert got == want, (g.label(), pools)
            kept += len(got)
            dropped += math.prod(map(len, pools)) - len(got)
    assert kept and dropped


def all_bijective_homs(g: PermGroup, h: PermGroup):
    """Literal automorphism/isomorphism oracle for tiny groups."""
    ge, he = list(g.elements()), list(h.elements())
    if len(ge) != len(he):
        return
    for images in itertools.permutations(he):
        table = dict(zip(ge, images))
        if all(
            table[a * b] == table[a] * table[b] for a in ge for b in ge
        ):
            yield table


def test_automorphism_counts_against_oracle():
    for g, expected in [
        (cyclic_group(5), 4),
        (klein_four_group(), 6),
        (symmetric_group(3), 6),
        (cyclic_group(6), 2),
        (quaternion_group(), 24),
    ]:
        auts = automorphisms(g)
        assert auts.order() == expected
        if g.order() <= 6:
            assert expected == sum(1 for _ in all_bijective_homs(g, g))


# S3 on three points, its 3-cycle given twice: the greedy generating sequence
# of the iso search is not the group's own generator list
REDUNDANT_S3 = "p group 3\ng: 1 2 0\ng: 2 0 1\ng: 1 0 2\n"


def test_iso_search_hands_back_homs_on_the_given_group():
    g = parse_group(REDUNDANT_S3)
    assert _generating_sequence(g) != list(g.gens)
    h = symmetric_group(3)
    isos = list(_iso_search(g, h))
    assert len(isos) == 6
    for iso in isos:
        assert iso.domain is g and iso.is_injective()
        assert all(iso(x * y) == iso(x) * iso(y) for x in g.elements() for y in g.elements())


def test_automorphisms_of_a_redundantly_generated_group_are_its_position_maps():
    g = parse_group(REDUNDANT_S3)
    els, pos = g.elements(), g._indexed().pos
    auts = automorphisms(g)
    assert auts.order() == 6 and len(auts.elements()) == 6
    for alpha in auts.elements():
        image = [els[i] for i in alpha.images]  # image[i] = alpha(els[i])
        assert all(image[pos[x * y]] == image[i] * image[j]
                   for i, x in enumerate(els) for j, y in enumerate(els))


def test_automorphisms_build_one_table_per_automorphism(monkeypatch):
    # S3's greedy generating sequence is its generator list, so the search runs
    # on S3 itself and hands back the hom it proved: 6 tables for 6 automorphisms
    g = symmetric_group(3)
    assert _generating_sequence(g) == list(g.gens)
    built = []
    real = Hom._build_table
    monkeypatch.setattr(Hom, "_build_table", lambda h: built.append(h) or real(h))
    auts = automorphisms(g)
    assert auts.order() == 6 and len(built) == 6
    assert all(h.domain is g for h in built)


def test_automorphism_group_has_greedy_generators_and_every_automorphism():
    for g in small_groups_catalog(11):
        pos = g._indexed().pos
        perms = sorted(Perm(tuple(pos[hom(x)] for x in g.elements()))
                       for hom in _iso_search(g, g))
        auts = automorphisms(g)
        assert auts.order() == len(perms) and sorted(auts.elements()) == perms
        # the old literal choice: each sorted automorphism not yet reached
        gens, reached = [], {perms[0]}
        for p in perms:
            if p not in reached:
                gens.append(p)
                reached = set(closure_elements(gens, len(perms[0].images)))
        assert list(auts.gens) == gens
    assert len(automorphisms(small_groups_catalog(8)[11]).gens) == 4  # C2^3: 168 auts


def test_automorphisms_form_group_on_element_indices():
    g = klein_four_group()
    auts = automorphisms(g)
    els = list(g.elements())
    for a in auts.elements():
        mapped = {els[i]: els[a(i)] for i in range(len(els))}
        for x in els:
            for y in els:
                assert mapped[x * y] == mapped[x] * mapped[y]


def test_cayley_embedding_even():
    for g in [
        cyclic_group(2),
        cyclic_group(3),
        klein_four_group(),
        symmetric_group(3),
        quaternion_group(),
    ]:
        f = cayley_embedding_even(g)
        m = g.order()
        assert f.codomain.degree == m + 2
        assert f.codomain.label() == alternating_group(m + 2).label()
        f.verify()
        assert f.is_injective()
        seen = set()
        for x in g.elements():
            img = f(x)
            assert img.is_even()
            assert img in f.codomain
            seen.add(img)
        assert len(seen) == m
        for x in g.elements():
            for y in g.elements():
                assert f(x * y) == f(x) * f(y)


def _mask(g, elements):
    """The mask of `elements` over g's positions."""
    pos = g._indexed().pos
    return sum(1 << pos[x] for x in set(elements))


def test_quotients():
    s4 = symmetric_group(4)
    v4 = [Perm((0, 1, 2, 3)), Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1)), Perm((3, 2, 1, 0))]
    q = quotient_group(s4, _mask(s4, v4))
    assert q.group.order() == 6
    assert brute_iso(q.group, symmetric_group(3)) is not None
    s3 = symmetric_group(3)
    a3 = [p for p in s3.elements() if p.is_even()]
    q2 = quotient_group(s3, _mask(s3, a3))
    assert brute_iso(q2.group, cyclic_group(2)) is not None
    with pytest.raises(ValueError):
        quotient_group(s3, _mask(s3, [Perm((0, 1, 2)), Perm((1, 0, 2))]))


def test_quotient_refuses_what_is_not_a_normal_subgroup():
    s3, s4 = symmetric_group(3), symmetric_group(4)
    three_cycles = [x for x in s3.elements() if x.order() == 3]
    double_transpositions = [x for x in s4.elements() if x.order() == 2 and x.is_even()]
    assert len(three_cycles) == 2 and len(double_transpositions) == 3
    c4 = cyclic_group(4)
    half_turn = _mask(c4, [c4.identity(), c4.gens[0] * c4.gens[0]])
    assert quotient_group(c4, half_turn).group.order() == 2
    for g, normal in [(s3, _mask(s3, three_cycles)), (s4, _mask(s4, double_transpositions)),
                      (s3, _mask(s3, [s3.identity(), Perm((1, 0, 2))])),  # a subgroup, not normal
                      (s3, 0),  # the empty set
                      (c4, half_turn | 1 << 4)]:  # a position past C4's four
        with pytest.raises(ValueError):
            quotient_group(g, normal)
    v4 = _mask(s4, double_transpositions + [s4.identity()])
    assert quotient_group(s4, v4).group.order() == 6


def test_quotient_projection_is_hom():
    s3 = symmetric_group(3)
    q = quotient_group(s3, _mask(s3, [p for p in s3.elements() if p.is_even()]))
    projection = dict(zip(s3.elements(), q.coset_of))
    reps = [s3.elements()[q.coset_of.index(j)] for j in range(q.group.degree)]

    def action(x):
        return Perm(tuple(projection[x * r] for r in reps))

    for x in s3.elements():
        assert action(x) in q.group
        for y in s3.elements():
            assert action(x * y) == action(x) * action(y)
            # cosets multiply independently of representatives
            assert projection[x * y] == projection[reps[projection[x]] * y]


def _perm_quotient(g, normal):
    """The old Perm-level coset walk: the cosets xN in first-element order, the
    Perm -> coset map, and each generator's action through least representatives."""
    nset = frozenset(normal)
    assigned, cosets = {}, []
    for x in g.elements():
        if x not in assigned:
            cosets.append(frozenset(x * k for k in nset))
            assigned.update(dict.fromkeys(cosets[-1], len(cosets) - 1))
    reps = [min(c) for c in cosets]
    gens = [Perm(tuple(assigned[s * r] for r in reps)) for s in g.gens]
    return cosets, assigned, gens


def _stage0_and_kernel(base):
    tower = make_cayley_tower(base, alternating_group(5), 0)
    stage, kernel = tower.sums[0].group, kernel_at_stage(tower, 0)
    return stage, [x for i, x in enumerate(stage.elements()) if kernel >> i & 1]


def _quotient_cases():
    s4, s3, q8 = symmetric_group(4), symmetric_group(3), quaternion_group()
    s4_redundant = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0)), Perm((1, 0, 2, 3)),
                                 Perm((0, 1, 2, 3)), Perm((2, 3, 0, 1))])
    s4xc2 = PermGroup(6, [Perm((1, 2, 3, 0, 4, 5)), Perm((1, 0, 2, 3, 4, 5)),
                          Perm((0, 1, 2, 3, 5, 4))])
    return [
        pytest.param(s4, [x for x in s4.elements() if x.order() <= 2 and x.is_even()],
                     id="S4/V4"),
        pytest.param(s3, [x for x in s3.elements() if x.is_even()], id="S3/A3"),
        pytest.param(q8, center_elements(q8), id="Q8/Z"),
        pytest.param(s4, s4.elements(), id="S4/S4"),
        pytest.param(s4, [s4.identity()], id="S4/1"),
    ] + [pytest.param(*_stage0_and_kernel(base), id=f"stage 0 over {name}")
         for name, base in [("C2", cyclic_group(2)), ("S3", s3), ("S4xC2", s4xc2),
                            ("redundant S4", s4_redundant)]]


@pytest.mark.parametrize("g, normal", _quotient_cases())
def test_quotient_matches_the_perm_coset_walk(g, normal):
    cosets, projection, gens = _perm_quotient(g, normal)
    q = quotient_group(g, _mask(g, normal))
    els = g.elements()
    assert q.coset_of == [projection[x] for x in els]
    assert [frozenset(x for x, j in zip(els, q.coset_of) if j == c)
            for c in range(len(cosets))] == cosets
    # the generators act as before, less each one that is trivial or repeats
    kept = []
    for s in gens:
        if not s.is_identity() and s not in kept:
            kept.append(s)
    assert list(q.group.gens) == kept
    assert q.group.order() == len(cosets)
    # neither trivial nor repeated generators reach a new element, so the
    # quotient lists its elements in the same order as the old one
    assert q.group.elements() == PermGroup(len(cosets), gens).elements()


def test_enumerate_homs_counts():
    # |Hom(C_m, H)| equals the number of h in H with h^m = e
    for m, h, expected in [
        (2, cyclic_group(2), 2),
        (2, symmetric_group(3), 4),
        (6, symmetric_group(3), 6),
        (4, cyclic_group(2), 2),
        (3, klein_four_group(), 1),
    ]:
        homs = enumerate_homs(cyclic_group(m), h)
        assert len(homs) == expected
        literal = [x for x in h.elements() if m % x.order() == 0]
        assert len(homs) == len(literal)
    assert len(enumerate_homs(symmetric_group(3), cyclic_group(2))) == 2
    injective = enumerate_homs(
        cyclic_group(3), symmetric_group(3), injective_only=True
    )
    assert len(injective) == 2


def _literal_generating_sequence(g):
    """The old Perm-level greedy choice, closing each prefix with closure_elements."""
    seq, current = [], {g.identity()}
    for x in g.elements():
        if x not in current:
            seq.append(x)
            current = set(closure_elements(seq, g.degree))
            if len(current) == g.order():
                break
    return seq


def test_generating_sequence_matches_the_literal_greedy_choice():
    for g in small_groups_catalog(11):
        assert _generating_sequence(g) == _literal_generating_sequence(g), g.label()
    stage = direct_sum(cyclic_group(2), alternating_group(5)).group
    assert _generating_sequence(stage) == _literal_generating_sequence(stage)
    # a candidate subset: the {e} x Alt(5) block
    els = stage.elements()
    block = [i for i, x in enumerate(els) if x.images[:2] == (0, 1)]
    gens, mask = _greedy_generators(stage, block)
    want, reached = [], {stage.identity()}
    for i in block:
        if els[i] not in reached:
            want.append(i)
            reached = set(closure_elements([els[j] for j in want], stage.degree))
    assert gens == want and mask == sum(1 << els.index(x) for x in reached)
    assert mask.bit_count() == 60


def test_catalog_complete_and_pairwise_distinct():
    cat = small_groups_catalog(11)
    per_order = Counter(g.order() for g in cat)
    assert dict(per_order) == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    }
    for a, b in itertools.combinations(cat, 2):
        if a.order() == b.order():
            assert brute_iso(a, b) is None, (a.label(), b.label())
    assert [g.order() for g in cat] == sorted(g.order() for g in cat)


def test_format_parse_group_round_trip(monkeypatch):
    for g in [symmetric_group(3), quaternion_group(), trivial_group(2)]:
        back = parse_group(format_group(g))
        assert back.degree == g.degree
        assert back.gens == g.gens
        assert set(back.elements()) == set(g.elements())
    with pytest.raises(ParseError):
        parse_group("not a group")
    with pytest.raises(ParseError, match="line 2"):
        parse_group("p group 3\ng: 0 0 1")
    # the degree is budgeted before any permutation is built
    monkeypatch.setattr("meklerkit.groups.DEFAULT_POINT_BUDGET", 4)
    with pytest.raises(ParseError, match="point budget"):
        parse_group("p group 5\n")
    assert parse_group("p group 4\n").degree == 4
