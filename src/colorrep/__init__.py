"""Desk-scale calculus for Z2^n-graded color Lie algebras and their unitary
representations, including the GNS-style reconstruction from positive definite
functions on the associated transformation monoid."""

from .colorlie import (
    BracketDecomposition,
    BracketTerm,
    ColorLieAlgebra,
    ad_operator,
    bracket,
    check_axioms,
    check_perfectness,
    decompose_odd,
    glV,
)
from .enveloping import (
    DEFAULT_LEVEL_CAP,
    EnvElement,
    MonoidElement,
    env_ad,
    env_mul,
    env_star,
    is_normal_word,
    normal_form,
    s_mul,
    s_star,
    word_degree,
)
from .errors import (
    AxiomError,
    ColorrepError,
    EquivalenceError,
    ExtensionError,
    LevelCapError,
    PerfectnessError,
    PositivityError,
    RankMismatchError,
    SchemaError,
    StabilizationError,
)
from .fileio import (
    load_algebra,
    load_rep,
    load_table,
    save_algebra,
    save_rep,
    save_table,
)
from .generators import (
    character_generator,
    clifford_algebra,
    clifford_parity_generator,
    clifford_rep,
    conjugated_rep,
    counterexample_algebra,
    counterexample_prerep,
    random_color_algebra,
    skew_matrix_algebra,
)
from .gns import (
    GNSResult,
    PDFunction,
    SampleSet,
    build_sample_set,
    check_cyclic,
    check_positive_definite,
    default_group_samples,
    gns_construct,
    gns_roundtrip,
    normal_words,
    sample_gram,
    unitary_equivalence,
)
from .grading import (
    Character,
    Degree,
    Parity,
    Phase,
    all_degrees,
    alpha,
    beta,
    bform,
    even_like_degrees,
    is_even_like,
    lex_compare,
    odd_like_degrees,
    parity,
    ucount,
    verify_alpha_cocycle,
    verify_lifting_relation,
)
from .hcpair import (
    GroupElement,
    HCPair,
    check_ad_map,
    check_pair,
)
from .report import CheckResult, Report
from .reps import (
    PartialRep,
    UnitaryRep,
    check_pre_rep,
    check_unitary_rep,
    exp_group_element,
    matrix_coefficient,
    monoid_operator,
    restrict,
    rho_env,
    stability_extend,
    twist_rep,
)
from .spaces import (
    GammaInnerSpace,
    GradedSpace,
    HomogeneousMap,
    dagger_adjoint,
    gamma_inner,
    split_homogeneous,
    star_adjoint,
    tensor_inner,
    tensor_map,
    tensor_space,
)

__version__ = "0.1.0"
