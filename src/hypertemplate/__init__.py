"""Finite hypergraph templates: construction, tree theories, decision
procedures, signature functions, and a saturation simulator."""

from .errors import (
    HypertemplateError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
)
from .hypergraph import (
    ExtensionCheck,
    Hypergraph,
    complete_hypergraph,
    random_hypergraph,
)
from .template import (
    LevelProblem,
    TailPolicy,
    Template,
    ValidationReport,
    complete_template,
    corrupt_level,
    max_extension_arity,
    random_template,
    validate,
)
from .tree import (
    Stem,
    TypeDecision,
    complete_to_leaf,
    einfty_prefix,
    enumerate_edge_partners,
    extend_canonically,
    in_tree,
    require_in_tree,
)
from .typecheck import (
    PositiveTypeSpec,
    QfFormulaSpec,
    TransferCounterexample,
    TransferReport,
    decide_positive_type,
    decide_qf_formula,
    transfer_check,
)
from .theory import (
    ClosureResult,
    FiniteModel,
    Violation,
    all_level_stems,
    amalgamate,
    build_random_model,
    check_model,
    close_existentially,
    holds_Q,
)
from .signature import (
    FEstimate,
    F_estimate,
    GEstimate,
    G_estimate,
    INFINITE,
    OplusCounterexample,
    OplusResult,
    ParamType,
    SignatureFunction,
    analytic_f_bound,
    analytic_g_lower,
    analytic_g_table,
    coverage_level,
    equality_patterns,
    f_signature,
    family_consistent,
    oplus_test,
    pattern_index,
    predicate_count,
    predicate_enumeration,
)
from .satsim import (
    Distribution,
    IndexOutcome,
    Infeasible,
    Instance,
    RealizationReport,
    Scenario,
    agreement_level,
    build_distribution,
    capacity,
    validate_scenario,
    verify_realization,
)
from .oracle import (
    SearchBudget,
    brute_force_positive_type,
    naive_edge_partners,
    naive_extension_property,
    naive_extension_witness,
    naive_f_signature,
    naive_oplus_test,
    naive_transfer_check,
)
from . import serialization

m_star = Template.stabilization_level  # m*(t, count); bench/ and demos/ call it by this name

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
