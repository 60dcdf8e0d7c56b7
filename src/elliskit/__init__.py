"""elliskit: enveloping semigroups of finite flows, their ideal and
idempotent structure, group-like quotient identification, and the
orbital/weakly-orbital theory of invariant equivalence relations, all
verified by brute-force oracles at desk scale."""

from .algebra import (
    FiniteGroup,
    GroupQuotient,
    Subgroup,
    are_isomorphic,
    direct_product,
    enumerate_subgroups,
    group_from_permutations,
    group_from_table,
    named_group,
    normal_core,
    quaternion_group,
    quotient_group,
    subgroup_generated,
)
from .caps import Caps, DEFAULT_CAPS
from .catalog import run_example
from .ellis import (
    EllisSemigroup,
    IdealGroup,
    MinimalIdeal,
    enveloping_semigroup,
    h_subgroup,
    ideal_group,
    ideal_group_isomorphism,
    induced_epimorphism,
    minimal_left_ideals,
)
from .flows import (
    Ambit,
    Flow,
    FlowMorphism,
    TransformationGenerators,
    check_morphism,
    check_tower,
    coset_flow,
    disjoint_union_flow,
    independent_translates,
    make_ambit,
    make_flow,
    natural_flow,
    product_flow,
    regular_flow,
    transformation_flow,
)
from .grouplike import (
    DominationWitness,
    GroupLikeCertificate,
    ProperWitness,
    UniformWitnessFamily,
    check_domination,
    check_group_like,
    check_proper_witness,
    check_uniform_witness,
    compute_D,
    compute_ghat,
    identify_quotient,
    orbit_map_r,
)
from .io import parse_instance, parse_obj, serialize_instance
from .relations import (
    EquivRelation,
    WitnessPair,
    equality_relation,
    free_action_correspondence,
    invariant_relations,
    is_orbital,
    is_weakly_orbital,
    kernel_group,
    make_relation,
    maximal_witnesses,
    orbit_relation,
    r_relation,
    total_relation,
)
from .report import Report, Verdict
from .structured import (
    PseudoClosedLattice,
    StructuredInstance,
    default_lattices,
    discrete_lattice,
    is_agreeable,
    make_lattice,
    product_lattice,
    verify_thm_orb,
    verify_thm_worb,
)
from .suites import run_suite

__version__ = "0.1.0"
