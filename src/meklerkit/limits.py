"""Direct systems of finite groups and the coordinate-preserving tower.

A direct system is a chain of groups with injective connecting homs; two
truncated-limit elements are equal when they agree after pushing forward to
a common stage.  The tower construction takes a base group A and a chain of
simple non-abelian groups H_i with injections f_i : A (+) H_i -> H_(i+1),
and builds the system of stages G_i = A (+) H_i connected by

    phi_i(s, t) = (s, f_i(s, t)),

so the first coordinate survives every stage.  The kernel of the
first-coordinate projection meets stage i in {e} x H_i, and quotienting by
it returns A; simplicity of the H_i is what lets normal closures of
kernel elements absorb the whole kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationBudgetError, PointBudgetError
from .groups import (
    DEFAULT_POINT_BUDGET,
    DirectSum,
    Hom,
    Perm,
    PermGroup,
    _normal_closure_mask,
    brute_iso,
    cayley_embedding_even,
    direct_sum,
    is_simple,
    quotient_group,
)


@dataclass(frozen=True)
class LimitElement:
    stage: int
    value: Perm


class DirectSystem:
    """Stages connected by injective homs; stage i maps into stage i+1."""

    def __init__(self, stages, maps, d_meta=None):
        self.stages = list(stages)
        self.maps = list(maps)
        self.d_meta = d_meta
        if len(self.maps) != len(self.stages) - 1:
            raise ValueError("need exactly one map between consecutive stages")
        for i, h in enumerate(self.maps):
            if h.domain is not self.stages[i] or h.codomain is not self.stages[i + 1]:
                raise ValueError(f"map {i} does not connect stage {i} to {i + 1}")
            if not h.verify().is_injective():
                raise ValueError(f"connecting map {i} is not injective")

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def element(self, stage: int, value: Perm) -> LimitElement:
        if not 0 <= stage <= self.depth:
            raise ValueError(f"no stage {stage}")
        if value not in self.stages[stage]:
            raise ValueError(f"value is not an element of stage {stage}")
        return LimitElement(stage, value)

    def push(self, x: LimitElement, to_stage: int) -> LimitElement:
        if to_stage < x.stage:
            raise ValueError("cannot push an element to an earlier stage")
        value = x.value
        for i in range(x.stage, to_stage):
            value = self.maps[i](value)
        return LimitElement(to_stage, value)

    def limit_eq(self, x: LimitElement, y: LimitElement) -> bool:
        """Equality in the truncated limit: compare at the later stage.

        The connecting maps are injective, so agreement at any common stage
        settles agreement at all of them.
        """
        stage = max(x.stage, y.stage)
        return self.push(x, stage).value == self.push(y, stage).value

    def limit_multiply(self, x: LimitElement, y: LimitElement) -> LimitElement:
        stage = max(x.stage, y.stage)
        return LimitElement(stage, self.push(x, stage).value * self.push(y, stage).value)

    def limit_inverse(self, x: LimitElement) -> LimitElement:
        return LimitElement(x.stage, ~x.value)


# ---------------------------------------------------------------------------
# towers A (+) H_i
# ---------------------------------------------------------------------------

@dataclass
class DTower:
    base: PermGroup            # A
    h_stages: list[PermGroup]  # H_0 .. H_d
    sums: list[DirectSum]      # A (+) H_i for i = 0 .. d
    f_maps: list[Hom]          # f_i : (A (+) H_i).group -> H_(i+1), i < d

    def __post_init__(self):
        d = len(self.h_stages) - 1
        if len(self.sums) != d + 1 or len(self.f_maps) != d:
            raise ValueError("stage, sum and map counts are inconsistent")
        for i, h in enumerate(self.h_stages):
            _require_simple_nonabelian(h, i)
        for i, f in enumerate(self.f_maps):
            if f.domain is not self.sums[i].group:
                raise ValueError(f"f_{i} domain is not A(+)H_{i}")
            if f.codomain is not self.h_stages[i + 1]:
                raise ValueError(f"f_{i} codomain is not H_{i + 1}")
            if not f.verify().is_injective():
                raise ValueError(f"f_{i} is not injective")

    @property
    def depth(self) -> int:
        return len(self.h_stages) - 1


def _require_simple_nonabelian(h: PermGroup, i: int) -> None:
    if h.known_simple:
        if h.is_abelian():
            raise ValueError(f"H_{i} is abelian")
        return
    try:
        report = is_simple(h)
    except EnumerationBudgetError:
        raise ValueError(
            f"H_{i} is too large to certify simple and carries no structural "
            f"simplicity guarantee"
        )
    if not report.simple:
        raise ValueError(f"H_{i} is not simple")
    if h.is_abelian():
        raise ValueError(f"H_{i} is abelian")


def make_cayley_tower(
    base: PermGroup,
    h0: PermGroup,
    depth: int,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> DTower:
    """Tower with f_i the even-parity regular embedding of A (+) H_i.

    Each step needs the full element list of A (+) H_i, and its ground set
    |A (+) H_i| + 2 must fit the point budget.  Beyond depth 1 the stage
    orders are factorial in the previous ground set, so the budgets fail
    loudly rather than pretending to represent those groups.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    h_stages = [h0]
    sums = []
    f_maps = []
    for i in range(depth):
        cur_sum = direct_sum(base, h_stages[i])
        sums.append(cur_sum)
        order = cur_sum.group.order()
        if order + 2 > point_budget:
            raise PointBudgetError(
                f"stage {i + 1} would act on {order} + 2 points, "
                f"budget is {point_budget}"
            )
        f = cayley_embedding_even(cur_sum.group)  # DTower proves its table
        f_maps.append(f)
        h_stages.append(f.codomain)
    sums.append(direct_sum(base, h_stages[depth]))
    return DTower(base, h_stages, sums, f_maps)


def build_D(tower: DTower) -> DirectSystem:
    """Stages G_i = A (+) H_i with phi_i(s, t) = (s, f_i(s, t))."""
    stages = [s.group for s in tower.sums]
    da = tower.base.degree
    maps = []
    for i in range(tower.depth):
        g_i = stages[i]
        g_next = stages[i + 1]
        f = tower.f_maps[i]
        gen_images = []
        for gen in g_i.gens:
            first = gen.images[:da]  # the A-coordinate of (s, t) is s itself
            second = tuple(x + da for x in f(gen).images)
            gen_images.append(Perm(first + second))
        maps.append(Hom(g_i, g_next, gen_images, name=f"phi_{i}"))
    return DirectSystem(stages, maps, d_meta=tower)


def _tower_meta(sys: DirectSystem) -> DTower:
    if sys.d_meta is None:
        raise ValueError("not a tower-built system: no first-coordinate data")
    return sys.d_meta


def project_pi(sys: DirectSystem, x: LimitElement) -> Perm:
    """First-coordinate projection; well defined at every stage.

    phi_i never touches the A-block, so the projection commutes with the
    connecting maps and the result is independent of the stage.
    """
    tower = _tower_meta(sys)
    da = tower.base.degree
    value = Perm(tuple(x.value.images[:da]))
    if value not in tower.base:
        raise AssertionError("projection left the base group")
    return value


def kernel_at_stage(sys: DirectSystem, stage: int) -> frozenset:
    """{e_A} x H_stage as a set of stage elements (stage must be enumerable)."""
    tower = _tower_meta(sys)
    inject = tower.sums[stage].inject_b
    return frozenset(inject(t) for t in tower.h_stages[stage].elements())


@dataclass(frozen=True)
class QuotientCheck:
    stage: int
    quotient: PermGroup
    iso: Hom | None
    verified: bool


def quotient_is_A(sys: DirectSystem, stage: int) -> QuotientCheck:
    """Quotient stage / ({e} x H_stage) with a brute-verified iso to A."""
    tower = _tower_meta(sys)
    g = sys.stages[stage]
    kernel = kernel_at_stage(sys, stage)
    quo = quotient_group(g, kernel)
    iso = brute_iso(quo.group, tower.base)
    # brute_iso yields only bijections (onto A from a group of A's order) that
    # already passed the all-pairs verify_hom_table inside _iso_search
    verified = iso is not None
    return QuotientCheck(stage, quo.group, iso, verified)


@dataclass(frozen=True)
class AbsorptionReport:
    stage: int
    element: Perm
    h_coordinate_trivial: bool
    closure_order: int
    contains_kernel: bool
    boundary_note: str | None


def check_normal_absorption(
    sys: DirectSystem, stage: int, x: Perm
) -> AbsorptionReport:
    """Does the normal closure of x at this stage contain {e} x H_stage?

    For elements with trivial H-coordinate the argument that forces
    absorption only starts one stage up (phi gives them a nontrivial
    H-coordinate), and a Cayley tower's next stage is past the element
    budget, so such a miss is marked inconclusive rather than forced.
    """
    tower = _tower_meta(sys)
    g = sys.stages[stage]
    if x.is_identity():
        raise ValueError("absorption is about nontrivial elements")
    if x not in g:
        raise ValueError("element is not in the requested stage")
    da = tower.base.degree
    h_trivial = all(x.images[i] == i for i in range(da, g.degree))
    closure = _normal_closure_mask(g, [x])[1]
    kernel = sum(1 << i for i in tower.sums[stage].inject_b.positions())
    contains = not kernel & ~closure
    note = "inconclusive at truncation boundary" if h_trivial and not contains else None
    return AbsorptionReport(
        stage, x, h_trivial, closure.bit_count(), contains, note
    )
