"""Conditional term rewriting toolkit.

Unravels deterministic conditional systems into (context-sensitive)
unconditional ones, rewrites under replacement maps with bounded fuel,
checks the simulation and commutation properties the transformation relies
on, and proves or refutes quasi-decreasingness with checkable certificates.
"""

from importlib import resources

from .checker import (
    BoundsExhausted,
    CommutationError,
    LoopCert,
    ObligationResult,
    PrecedenceCert,
    ProofAlarm,
    ProofOutcome,
    SimulationAlarm,
    SimulationResult,
    WitnessOrderReport,
    check_commutation,
    check_simulation,
    prove_quasi_decreasing,
    validate_witness_order,
)
from .csrewrite import (
    MuEngine,
    MuVerdict,
    ReductionGraph,
    enumerate_original_terms,
    explore,
    mu_terminating_on_seeds,
    plain_steps,
)
from .ctrs import (
    DEFAULT_FUEL,
    ConditionalEngine,
    ConditionalRule,
    Dctrs,
    Fuel,
    Reduction,
    ReductionStep,
    Violation,
    validate_dctrs,
)
from .fmt import (
    Diagnostic,
    ParseError,
    ProblemFile,
    ValidationError,
    parse_ctrs,
    parse_problem,
    parse_term,
    print_csrs,
    print_ctrs,
    print_trs,
)
from .lpo import (
    Precedence,
    SignatureTooLargeError,
    UnknownSymbolError,
    lpo_greater,
    orients,
    search_precedence,
)
from .terms import (
    App,
    FunSym,
    InvalidPositionError,
    MissingReplacementError,
    Position,
    ReplacementMap,
    Term,
    Var,
    active_positions,
    apply_subst,
    app,
    format_position,
    fun_syms,
    is_original,
    match,
    mu_proper_subterms,
    positions,
    pretty,
    replace_at,
    subterm_at,
    term_size,
    term_to_str,
    vars_of,
)
from .unravel import (
    Csrs,
    Rule,
    Trs,
    default_u_symbol,
    evar_sequence,
    standard_mu_shape_problems,
    unravel,
    unravel_cs,
    unravel_rule,
)

__version__ = "0.1.0"


def corpus_dir() -> str:
    """Path of the bundled example systems (a directory of .ctrs files)."""
    return str(resources.files(__name__) / "corpus")
