"""
Truncated direct limits over a small base
==========================================

"""

from meklerkit import (
    alternating_group,
    build_D,
    check_normal_absorption,
    cyclic_group,
    kernel_at_stage,
    make_cayley_tower,
    project_pi,
    quotient_is_A,
)

# stage 0 is the block sum A (+) H0; the connecting map plants the whole
# stage into the next alternating block through an even Cayley embedding
base = cyclic_group(2)
tower = make_cayley_tower(base, alternating_group(5), depth=1)
sys_d = build_D(tower)
print("stages:", [s.label() for s in sys_d.stages])
print("stage degrees:", [s.degree for s in sys_d.stages])
print("stage 0 order:", sys_d.stages[0].order())

# the first-coordinate projection ignores the alternating block and
# commutes with the connecting map
x = sys_d.element(0, sys_d.stages[0].gens[0])
print("pi(x):", project_pi(tower, x))
print("pi(pushed x):", project_pi(tower, sys_d.push(x, 1)))

# the kernel of pi at stage 0 is exactly {e} x H0, a mask over the stage's positions
kernel = kernel_at_stage(tower, 0)
print("kernel size:", kernel.bit_count())

# the quotient by that kernel is the base again, verified by brute force
check = quotient_is_A(tower, 0)
print("stage0 / kernel is the base:", check.verified)

# normal closures of kernel elements swallow the whole kernel: H0 is simple
t = next(h for h in tower.h_stages[0].elements() if not h.is_identity())
rep = check_normal_absorption(tower, 0, tower.sums[0].inject_b(t))
print("closure order:", rep.closure_order, "contains kernel:", rep.contains_kernel)

# base-block elements are a different story: deciding their absorption
# needs later stages, and the truncation boundary is reported honestly
s = tower.sums[0].inject_a(base.gens[0])
edge = check_normal_absorption(tower, 0, s)
print("base element note:", edge.boundary_note)

# depth 2 would need a Cayley embedding on 120 + 2 points, whose
# alternating group is far past any point budget
try:
    make_cayley_tower(base, alternating_group(5), depth=2)
except Exception as exc:
    print("depth 2 refused:", str(exc)[:72], "...")
