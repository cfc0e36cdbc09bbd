"""Direct systems with injective connecting maps, and the block towers.

The tower checks verify, at the enumerable truncation, every law the
construction promises: the first-coordinate projection commutes with the
connecting maps, its kernel at stage zero is exactly the injected block,
the quotient by that kernel is the base, and normal closures of elements
with a nontrivial block coordinate absorb the whole block.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

import meklerkit.groups
from meklerkit import (
    DirectSystem,
    DTower,
    EnumerationBudgetError,
    Hom,
    Perm,
    PermGroup,
    PointBudgetError,
    alternating_group,
    build_D,
    check_normal_absorption,
    cyclic_group,
    direct_sum,
    kernel_at_stage,
    make_cayley_tower,
    project_pi,
    quotient_is_A,
    symmetric_group,
    trivial_group,
)


def two_stage_system():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    inc = Hom(c2, c4, [c4.gens[0] * c4.gens[0]])
    return DirectSystem([c2, c4], [inc])


def three_stage_system():
    c3 = cyclic_group(3)
    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    i0 = Hom(c3, s3, [Perm((1, 2, 0))])
    i1 = Hom(s3, s4, [g.extend(4) for g in s3.gens])
    return DirectSystem([c3, s3, s4], [i0, i1])


def test_two_stage_push_and_eq():
    sys = two_stage_system()
    c2, c4 = sys.stages
    x = sys.element(0, c2.gens[0])
    pushed = sys.push(x, 1)
    assert pushed.stage == 1
    assert pushed.value == c4.gens[0] * c4.gens[0]
    assert sys.limit_eq(x, pushed)
    assert sys.limit_eq(x, sys.element(1, c4.gens[0] * c4.gens[0]))
    assert not sys.limit_eq(x, sys.element(1, c4.gens[0]))
    assert not sys.limit_eq(x, sys.element(0, c2.identity()))


def test_limit_algebra_properties():
    sys = three_stage_system()
    rng = random.Random(97)
    pool = [
        sys.element(i, rng.choice(sys.stages[i].elements()))
        for i in (0, 1, 2)
        for _ in range(12)
    ]
    e = sys.element(0, sys.stages[0].identity())
    for _ in range(700):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert sys.limit_eq(
            sys.limit_multiply(sys.limit_multiply(x, y), z),
            sys.limit_multiply(x, sys.limit_multiply(y, z)),
        )
        assert sys.limit_eq(sys.limit_multiply(x, sys.limit_inverse(x)), e)
        assert sys.limit_eq(sys.limit_multiply(e, x), x)
        assert sys.limit_eq(x, sys.push(x, 2))


def test_connecting_maps_must_be_injective():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    proj = Hom(c4, c2, [c2.gens[0]])
    with pytest.raises(ValueError):
        DirectSystem([c4, c2], [proj])


def test_stage_bounds():
    sys = two_stage_system()
    with pytest.raises(ValueError):
        sys.element(2, Perm.identity(4))
    with pytest.raises(ValueError):
        sys.element(-1, Perm.identity(2))
    x = sys.element(1, cyclic_group(4).gens[0])
    with pytest.raises(ValueError):
        sys.push(x, 0)  # pushes only go up


def test_tower_rejects_bad_blocks():
    c2 = cyclic_group(2)
    with pytest.raises(ValueError):
        make_cayley_tower(c2, cyclic_group(5), 0)  # abelian block
    with pytest.raises(ValueError):
        make_cayley_tower(c2, symmetric_group(4), 0)  # not simple
    # huge block with working membership but no structural simplicity flag:
    # the tower refuses rather than assuming
    real = alternating_group(9)
    unflagged = type(real)(
        9,
        real.gens,
        known_order=real.known_order,
        contains_hook=real.contains_hook,
        known_simple=False,
    )
    with pytest.raises(ValueError, match="structural"):
        make_cayley_tower(c2, unflagged, 0)


def test_tower_point_budget():
    with pytest.raises(PointBudgetError):
        make_cayley_tower(cyclic_group(2), alternating_group(5), 2)
    with pytest.raises(PointBudgetError):
        make_cayley_tower(
            cyclic_group(2), alternating_group(5), 1, point_budget=100
        )
    # stage 1 over C2 acts on |C2 (+) Alt(5)| + 2 = 122 points: a budget of
    # exactly 122 builds it, and 121 refuses
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 1, point_budget=122)
    assert tower.h_stages[1].degree == 122
    with pytest.raises(PointBudgetError):
        make_cayley_tower(cyclic_group(2), alternating_group(5), 1, point_budget=121)


def tower_laws(base):
    tower = make_cayley_tower(base, alternating_group(5), 1)
    sys = build_D(tower)
    g0 = sys.stages[0]
    assert g0 is tower.sums[0].group
    assert g0.order() == base.order() * 60
    kernel = kernel_at_stage(tower, 0)
    assert kernel.bit_count() == 60
    for x in g0.elements():
        lift = sys.element(0, x)
        assert project_pi(tower, sys.push(lift, 1)) == project_pi(tower, lift)
    q = quotient_is_A(tower, 0)
    assert q.verified
    h0 = tower.h_stages[0]
    inj_b = tower.sums[0].inject_b
    for t in h0.elements():
        if t.is_identity():
            continue
        rep = check_normal_absorption(tower, 0, inj_b(t))
        assert not rep.h_coordinate_trivial
        assert rep.contains_kernel
    return tower, sys


@pytest.mark.parametrize("base", [cyclic_group(2), symmetric_group(3)], ids=["C2", "S3"])
def test_quotient_is_A_checks_its_iso_once(monkeypatch, base):
    # the all-pairs table check runs inside brute_iso's search and nowhere else
    calls = []
    real = meklerkit.groups.verify_hom_table
    monkeypatch.setattr(meklerkit.groups, "verify_hom_table",
                        lambda h: calls.append(h) or real(h))
    q = quotient_is_A(make_cayley_tower(base, alternating_group(5), 0), 0)
    assert q.verified and q.iso.is_injective()
    assert len(calls) == 1 and calls[0] is q.iso


def test_quotient_is_A_builds_one_table_per_isomorphism(monkeypatch):
    # the quotient keeps only the A block's generators, so brute_iso searches on
    # it directly and proves one table, not one on a copy and one on the quotient
    s4xc2 = PermGroup(6, [Perm((1, 2, 3, 0, 4, 5)), Perm((1, 0, 2, 3, 4, 5)),
                          Perm((0, 1, 2, 3, 5, 4))])
    tower = make_cayley_tower(s4xc2, alternating_group(5), 0)
    kernel_at_stage(tower, 0)  # builds the H block's injection table first
    builds = []
    real = meklerkit.groups.Hom._build_table
    monkeypatch.setattr(meklerkit.groups.Hom, "_build_table",
                        lambda h: builds.append(h) or real(h))
    q = quotient_is_A(tower, 0)
    assert q.verified and q.quotient.order() == 48
    assert builds == [q.iso]


def test_tower_laws_c2():
    tower, sys = tower_laws(cyclic_group(2))
    # elements supported on the base only are inconclusive at the boundary
    s = tower.sums[0].inject_a(cyclic_group(2).gens[0])
    rep = check_normal_absorption(tower, 0, s)
    assert rep.h_coordinate_trivial
    assert not rep.contains_kernel
    assert rep.boundary_note == "inconclusive at truncation boundary"


def test_tower_laws_trivial_base():
    tower_laws(trivial_group(1))


def test_tower_laws_s3():
    tower_laws(symmetric_group(3))


def test_mixed_coordinate_elements_absorb():
    # (s, t) with t nontrivial absorbs the kernel regardless of s
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 1)
    mix = tower.sums[0].inject_a(cyclic_group(2).gens[0]) * tower.sums[
        0
    ].inject_b(alternating_group(5).gens[0])
    rep = check_normal_absorption(tower, 0, mix)
    assert not rep.h_coordinate_trivial
    assert rep.contains_kernel


def test_absorption_argument_rejects_identity():
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 1)
    with pytest.raises(ValueError):
        check_normal_absorption(tower, 0, tower.sums[0].group.identity())


def test_kernel_not_enumerable_past_truncation():
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 1)
    with pytest.raises(EnumerationBudgetError):
        kernel_at_stage(tower, 1)


def test_phi_plants_whole_stage_into_next_block():
    # phi_0(s, t) = (s, f_0(s, t)): the second coordinate remembers all of
    # (s, t), which is what the absorption argument feeds on
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 1)
    sys = build_D(tower)
    phi = sys.maps[0]
    f0 = tower.f_maps[0]
    da = cyclic_group(2).degree
    seen = set()
    for x in sys.stages[0].elements():
        y = phi(x)
        assert y.images[:da] == x.images[:da]
        tail = tuple(v - da for v in y.images[da:])
        assert tail == f0(x).images
        seen.add(tail)
    assert len(seen) == 120  # f_0 is injective on the whole stage


def test_dtower_validation():
    c2 = cyclic_group(2)
    a5 = alternating_group(5)
    sum0 = direct_sum(c2, a5)
    with pytest.raises(ValueError):
        DTower(c2, [a5, a5], [sum0], [])  # counts inconsistent
    # a depth-1 tower with one sum dropped: the f count is right, the sum count is not
    t = make_cayley_tower(c2, a5, 1)
    with pytest.raises(ValueError, match="counts are inconsistent"):
        DTower(t.base, t.h_stages, t.sums[:1], t.f_maps)


@pytest.mark.parametrize("image, message", [
    # C2's generator has order 2, and a 3-cycle image has order 3
    ("three-cycle", "do not define a homomorphism"),
    ("identity", "f_0 is not injective"),
])
def test_dtower_proves_f0(image, message):
    tower = make_cayley_tower(cyclic_group(2), alternating_group(5), 1)
    f = tower.f_maps[0]
    bad = (Perm((1, 2, 0) + tuple(range(3, f.codomain.degree))) if image == "three-cycle"
           else f.codomain.identity())
    with pytest.raises(ValueError, match=message):
        DTower(tower.base, tower.h_stages, tower.sums,
               [Hom(f.domain, f.codomain, [bad] * len(f.gen_images))])


def test_tower_keeps_no_stage_sized_table():
    # f_0 and phi_0 are proved on their orbit columns, so building the tower fills
    # neither row table, and the peak stays under a quarter of one such table
    s4xc2 = PermGroup(6, [Perm((1, 2, 3, 0, 4, 5)), Perm((1, 0, 2, 3, 4, 5)),
                          Perm((0, 1, 2, 3, 5, 4))])
    tracemalloc.start()
    try:
        tower = make_cayley_tower(s4xc2, alternating_group(5), 1)
        sys_d = build_D(tower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    phi = sys_d.maps[0]
    assert tower.f_maps[0]._mapping is None and phi._mapping is None
    assert (len(phi.domain.elements()), phi.codomain.degree) == (2880, 2888)
    assert peak < 0.25 * 2880 * 2888 * 2  # an int16 table over stage 0 and stage 1's points
