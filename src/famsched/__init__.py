"""Exact solvers and MILP compilers for single-machine family scheduling
with sequence-dependent batch setups, compressible processing times, and
slot-based (generalized) due dates.

The MILP compilers are imported as ``famsched.milp``, the one module that
loads numpy; the package itself loads neither.
"""

from .instance import (
    ClassParams,
    Instance,
    ParseError,
    SchemaError,
    Violation,
    horizon_upper_bound,
    load_instance,
    save_instance,
    start_window,
    validate_instance,
)
from .pwl import DomainError, Pwl
from .schedule import (
    CompressionPlan,
    PlanBoundsError,
    Schedule,
    Sequence,
    SequenceError,
    Timeline,
    build_timeline,
    optimize_compressions,
    solve_sequence,
)
from .dp import (
    DiscreteState,
    PolicyDecision,
    StateGraph,
    ValueTable,
    backward_induction,
    build_state_graph,
    count_states,
    extract_open_loop,
    initial_state,
    query_policy,
)
from .bench import (
    GenParams,
    brute_force_solve,
    count_sequences,
    generate,
)

__all__ = [
    "ClassParams", "Instance", "ParseError", "SchemaError", "Violation",
    "horizon_upper_bound", "load_instance", "save_instance", "start_window",
    "validate_instance",
    "DomainError", "Pwl",
    "CompressionPlan", "PlanBoundsError", "Schedule", "Sequence", "SequenceError",
    "Timeline", "build_timeline", "optimize_compressions", "solve_sequence",
    "DiscreteState", "PolicyDecision", "StateGraph", "ValueTable",
    "backward_induction", "build_state_graph", "count_states", "extract_open_loop",
    "initial_state", "query_policy",
    "GenParams", "brute_force_solve", "count_sequences", "generate",
]

__version__ = "0.1.0"

