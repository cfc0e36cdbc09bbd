"""Graph towers, graph groups, and truncated direct-limit towers.

The package turns finite graphs into finite class-2 groups of exponent p,
iterates a subset extension that realizes every one-point extension type,
transports group embeddings along graph inclusions, lifts homomorphisms
through block sums, audits a bounded extension property over subgroup
lattices, and builds towers A (+) H_i whose connecting maps feed the whole
previous stage into the next simple factor.  Every algebraic law the code
relies on is re-checked by brute force in the test suite.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    EnumerationBudgetError,
    ParseError,
    PointBudgetError,
    VertexBudgetError,
)
from .graphs import (
    ExtensionAudit,
    Graph,
    GraphIso,
    NiceReport,
    SubsetVertex,
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
from .groups import (
    DirectSum,
    Hom,
    Perm,
    PermGroup,
    SimplicityReport,
    alternating_group,
    automorphisms,
    brute_iso,
    cayley_embedding_even,
    center_elements,
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
    klein_four_group,
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
from .limits import (
    AbsorptionReport,
    DirectSystem,
    DTower,
    LimitElement,
    QuotientCheck,
    build_D,
    check_normal_absorption,
    kernel_at_stage,
    make_cayley_tower,
    project_pi,
    quotient_is_A,
)
from .manifest import format_manifest, parse_manifest, sha256_hex
from .mekler import (
    CenterReport,
    PcElement,
    PcGroup,
    PcHom,
    build_mekler,
    recover_graph,
)
from .omni import (
    LiftWitness,
    OmniAuditReport,
    OmniAuditRow,
    OmniQuery,
    OmniWitness,
    lift_hom,
    omni_audit,
    omni_check,
)
