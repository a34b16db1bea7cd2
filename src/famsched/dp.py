"""Exact solver by backward induction over the stage-based state space.

The discrete state is (completed jobs per class, last-served class); the
current time enters as the argument of a piecewise-linear cost-to-go stored
per discrete state.  Stage j holds the states with j completed jobs, so the
backward pass walks stages from the terminal one to the initial state, and
the value at the initial state evaluated at time 0 is the global optimum.

A state is a plain ``(counts, last)`` tuple in the library's 0-based class
convention: ``last`` is the class served last, or ``None`` before any
service, exactly the ``prev`` that ``Instance.setup_time`` takes.  States
are not checked on construction; ``ValueTable`` raises ``KeyError`` for any
state the solver did not build.  Only ``ValueTable.dump_csv`` writes
``last`` 1-based, with 0 for ``None``, like every file and report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

from .instance import Instance
from .pwl import Pwl, envelope
from .schedule import (
    TIE,
    CompressionPlan,
    Schedule,
    Sequence,
    build_timeline,
    serve,
    stage_cost,
    stage_objective,
    stage_part,
)


class DiscreteState(NamedTuple):
    """Per-class completion counts plus the last-served class (None before any)."""

    counts: tuple[int, ...]
    last: int | None


def initial_state(inst: Instance) -> DiscreteState:
    return DiscreteState((0,) * inst.n_classes, None)


def start_window(inst: Instance, state: DiscreteState) -> tuple[float, float]:
    """Times [lo, hi] at which the next job can start from ``state``.

    From t = 0, after n >= 1 completions with counts c, the next start lies
    in [sum c_k pt_low_k, sum c_k pt_nom_k + (n - 1) max st]: the first job
    has no setup and every later one at most the largest.  The initial
    state's window is [0, 0].  For every t in a state's window, the decision
    window [t + st + pt_low, t + st + pt_nom] of each move lies inside the
    child's window.
    """
    n = sum(state.counts)
    if n == 0:
        return 0.0, 0.0
    lo = hi = 0.0
    for c, cp in zip(state.counts, inst.classes):
        lo += c * cp.pt_low
        hi += c * cp.pt_nom
    return lo, hi + (n - 1) * max(map(max, inst.st))


def _child(state: DiscreteState, k: int) -> DiscreteState:
    """Successor state after serving one class-k job."""
    counts = state.counts
    return DiscreteState(counts[:k] + (counts[k] + 1,) + counts[k + 1:], k)


def admissible_classes(inst: Instance, state: DiscreteState) -> list[int]:
    """Classes that still have jobs to serve from this state."""
    return [k for k in range(inst.n_classes) if state.counts[k] < inst.classes[k].n_jobs]


@dataclass(frozen=True)
class StateGraph:
    """States grouped by stage; edges are (state, class served) -> child."""

    stages: tuple[tuple[DiscreteState, ...], ...]


def build_state_graph(inst: Instance) -> StateGraph:
    """All states reachable from the initial one, stage by stage."""
    n = inst.total_jobs
    stages: list[tuple[DiscreteState, ...]] = [(initial_state(inst),)]
    for _ in range(n):
        nxt: dict[DiscreteState, None] = {}
        for state in stages[-1]:
            for k in admissible_classes(inst, state):
                nxt[_child(state, k)] = None
        stages.append(tuple(nxt))
    return StateGraph(tuple(stages))


def count_states(inst: Instance) -> int:
    """Closed-form node count of the state graph.

    One initial state, plus one state per (last class k, positive count of k,
    arbitrary counts of the others).
    """
    jobs = inst.jobs_per_class
    return 1 + sum(
        jobs[k] * prod(jobs[m] + 1 for m in range(len(jobs)) if m != k)
        for k in range(len(jobs))
    )


class ValueTable:
    """Cost-to-go per discrete state, as a function of the next start time,
    each defined on its state's ``start_window``."""

    def __init__(self, inst: Instance, graph: StateGraph, values: dict[DiscreteState, Pwl]):
        self._inst = inst
        self.graph = graph
        self._values = values

    def __getitem__(self, state: DiscreteState) -> Pwl:
        try:
            return self._values[state]
        except KeyError:
            raise KeyError(f"state {state} not in the graph") from None

    def __len__(self) -> int:
        return len(self._values)

    def states(self) -> list[DiscreteState]:
        return list(self._values)

    def cost_to_go(self, state: DiscreteState, t: float) -> float:
        """Optimal remaining cost when the next job from ``state`` starts at t.

        t must lie in the state's ``start_window``, the stored function's
        domain; ``value_at`` raises ``DomainError``, a ``ValueError``, otherwise.
        """
        return self[state].value_at(t)

    def optimal_cost(self) -> float:
        return self.cost_to_go(initial_state(self._inst), 0.0)

    def dump_csv(self) -> str:
        """One ``counts;last;breakpoint;value`` row per stored breakpoint;
        ``last`` is 1-based, 0 before any service, as in every file."""
        lines = ["counts;last;breakpoint;value"]
        for (counts, last), f in self._values.items():
            tag = ",".join(str(c) for c in counts)
            last_1based = 0 if last is None else last + 1
            for x, y in zip(f.xs, f.ys):
                lines.append(f"{tag};{last_1based};{x!r};{y!r}")
        return "\n".join(lines)


def _child_objective(inst: Instance, values: dict[DiscreteState, Pwl],
                     child: DiscreteState) -> Pwl:
    """Stage objective F(s) of the job whose service leads into child.

    That job is the last-served class's latest one, so F depends on the
    child alone, not on the state it was served from.
    """
    k = child.last
    cp = inst.classes[k]
    i = child.counts[k] - 1
    return stage_objective(values[child], cp.alpha[i], cp.dd[i], cp.beta)


def backward_induction(inst: Instance) -> ValueTable:
    """Compute every state's cost-to-go; terminal states map to zero.

    States within one stage are independent given the next stage, so the
    loop is a stage barrier; the table is immutable afterwards.  The window
    minimum of a stage objective depends only on the child state (its served
    job and that job's cost-to-go), while the setup depends on the edge, that
    is on the parent's last class.  So each state of the next stage is
    windowed once, and every edge into it only shifts and offsets the result;
    windowing per edge would repeat the costliest op once per parent.  A
    state's function is the minimum over its edges of ``stage_value``, built
    by one ``envelope`` of the edges' ``stage_part``s.

    Each state's function is built on its ``start_window`` only: every
    decision window from a parent's window lies inside the child's, so each
    value read is exact, and no breakpoint is built where no start time
    reaches.
    """
    graph = build_state_graph(inst)
    values: dict[DiscreteState, Pwl] = {}
    for state in graph.stages[-1]:
        values[state] = Pwl.zero(*start_window(inst, state))
    for j in range(len(graph.stages) - 2, -1, -1):
        windowed: dict[DiscreteState, Pwl] = {}
        for child in graph.stages[j + 1]:
            cp = inst.classes[child.last]
            windowed[child] = _child_objective(inst, values, child).window_min(cp.pt_nom - cp.pt_low)
        for state in graph.stages[j]:
            parts = []
            for k in admissible_classes(inst, state):
                cp = inst.classes[k]
                parts.append(stage_part(windowed[_child(state, k)], cp.beta, cp.pt_low, cp.pt_nom,
                                        inst.setup_time(state.last, k),
                                        inst.setup_cost(state.last, k)))
            values[state] = envelope(parts, *start_window(inst, state))
    return ValueTable(inst, graph, values)


@dataclass(frozen=True)
class PolicyDecision:
    """Best next move from a state at a given time.

    ``cls`` is the class to serve next; ``tau`` is the chosen processing
    time and ``u`` the equivalent resource amount.
    """

    cls: int
    tau: float
    u: float
    cost_to_go: float


def query_policy(inst: Instance, vt: ValueTable, state: DiscreteState, t: float) -> PolicyDecision:
    """Optimal decision at (state, t); ties go to the smallest class index,
    then to ``serve``'s processing-time choice.

    Raises ``KeyError`` for a state outside the graph and ``ValueError`` for
    a t that ``ValueTable.cost_to_go`` rejects.
    """
    value = vt.cost_to_go(state, t)
    best = None  # (cost, class, stage objective, setup time)
    for k in admissible_classes(inst, state):
        st = inst.setup_time(state.last, k)
        obj = _child_objective(inst, vt._values, _child(state, k))
        cost = stage_cost(obj, inst.classes[k], t, st, inst.setup_cost(state.last, k))
        if best is None or cost < best[0] - TIE:
            best = (cost, k, obj, st)
    if best is None:
        raise ValueError("terminal state has no decision")
    _, k, obj, st = best
    cp = inst.classes[k]
    _, u = serve(obj, cp, t, st)
    return PolicyDecision(cls=k, tau=cp.pt_nom - cp.gamma * u, u=u, cost_to_go=value)


def extract_open_loop(inst: Instance, vt: ValueTable) -> Schedule:
    """Greedy descent from the initial state at t = 0, following the policy."""
    state = initial_state(inst)
    t = 0.0
    order: list[int] = []
    u = [[0.0] * cp.n_jobs for cp in inst.classes]
    for _ in range(inst.total_jobs):
        dec = query_policy(inst, vt, state, t)
        k = dec.cls
        u[k][state.counts[k]] = dec.u
        order.append(k)
        t = t + inst.setup_time(state.last, k) + dec.tau
        state = _child(state, k)
    seq = Sequence(tuple(order))
    plan = CompressionPlan(tuple(tuple(r) for r in u))
    return Schedule(sequence=seq, plan=plan, timeline=build_timeline(inst, seq, plan))
