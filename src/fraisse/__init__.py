"""Finite relational structures: amalgamation classes, permission-set
samplers, seeded generic oracles, type and closure analysis, doubled
covers, and reduct checking."""

__version__ = "0.1.0"

from .errors import (
    AdequacyError,
    ConfigurationNotFoundError,
    ExtensionError,
    FraisseError,
    InputError,
    InvalidElementError,
    ParseError,
    SaturationError,
    VocabularyError,
)
from .structures import (
    Embedding,
    FinStructure,
    TypeId,
    Vocabulary,
    canonical_key,
    expand_with_marks,
    find_embeddings,
    graph_vocabulary,
    induced_substructure,
    is_isomorphic,
    reduct_to,
    tuple_type,
    undirected_graph,
)
from .amalgamation import (
    AdequacyReport,
    APReport,
    HPReport,
    P2Spec,
    age,
    check_1_adequate,
    check_ap,
    check_hp,
    enumerate_rp2,
    graph_p2,
    in_rp2,
    require_adequate,
)
from .textio import (
    Document,
    load_document,
    load_p2,
    load_structure,
    p2_document,
    parse_document,
    parse_typed_universe,
    save_typed_universe,
    structure_document,
)
from .generic import (
    BackAndForthReport,
    ExtensionType,
    GenericOracle,
    ProbeReport,
    SaturationReport,
    back_and_forth,
    extend_one_point,
    extension_at,
    find_realization,
    graph_extension,
    grow_random,
    homogeneity_probe,
    mix64,
    new_generic,
    one_point_extensions,
    saturate,
    saturate_until_stable,
    verify_saturation,
)
from .types_orbits import (
    AclReport,
    DegeneracyReport,
    TrivialityReport,
    TypeCensus,
    acl_approx,
    check_degenerate_dependence,
    check_triviality,
    enumerate_types,
    link_between,
    types_determined_by_pairs,
)
from .doubled_cover import (
    DoubledAclSource,
    DoubledStructure,
    QuotientGeometry,
    build_double,
    build_expansion_star,
    e_definability_check,
    quotient,
    three_type_separation,
    verify_claim1,
    verify_claim2,
    verify_claim3,
)
from .zero_one import (
    AxiomSpec,
    ConvergenceReport,
    ProbEstimate,
    axiom_holds,
    convergence_report,
    estimate_probability,
    full_extension_axioms,
    parse_axiom,
    sample_uniform,
    wilson_interval,
)
from .reduct import (
    TypedUniverse,
    definable_as_union,
    from_quotient,
    from_structure,
    is_reduct,
    pair_family_universe,
    partition_refines,
)
