"""Exact solvers and MILP compilers for single-machine family scheduling
with sequence-dependent batch setups, compressible processing times, and
slot-based (generalized) due dates.

The MILP names (``build_model``, ``emit_lp`` and the rest of ``milp``'s
exports) resolve on first access, so importing the package for the DP, the
oracle, the generator, validation or counting loads neither ``famsched.milp``
nor numpy.
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

# resolved on first access by __getattr__
_MILP_NAMES = (
    "CheckReport", "MilpModel", "SizeReport", "build_model", "build_model1",
    "build_model2", "build_model3", "check_assignment", "emit_lp", "encode_schedule",
    "parse_lp", "size_report",
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
    *_MILP_NAMES,
    "GenParams", "brute_force_solve", "count_sequences", "generate",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MILP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import milp

    value = globals()[name] = getattr(milp, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(_MILP_NAMES))
