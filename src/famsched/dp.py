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

from .instance import Instance, start_window
from .pwl import Pwl, envelope, window_min_of
from .schedule import (
    TIE,
    CompressionPlan,
    Schedule,
    Sequence,
    build_timeline,
    objective_lists,
    serve,
    stage_objective,
    stage_part,
)


class DiscreteState(NamedTuple):
    """Per-class completion counts plus the last-served class (None before any)."""

    counts: tuple[int, ...]
    last: int | None


def initial_state(inst: Instance) -> DiscreteState:
    return DiscreteState((0,) * inst.n_classes, None)


def _child(state: DiscreteState, k: int) -> DiscreteState:
    """Successor state after serving one class-k job."""
    counts = state.counts
    return DiscreteState(counts[:k] + (counts[k] + 1,) + counts[k + 1:], k)


def admissible_classes(inst: Instance, state: DiscreteState) -> list[int]:
    """Classes that still have jobs to serve from this state."""
    return [k for k in range(inst.n_classes) if state.counts[k] < inst.classes[k].n_jobs]


@dataclass(frozen=True)
class StateGraph:
    """States grouped by stage, and the edges between consecutive stages.

    ``edges[j][i]`` lists one ``(k, c)`` per class k that the i-th state of
    stage j can serve, in increasing k, where c is the index of the child
    ``_child(stages[j][i], k)`` in stage j + 1.
    """

    stages: tuple[tuple[DiscreteState, ...], ...]
    edges: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def build_state_graph(inst: Instance) -> StateGraph:
    """All states reachable from the initial one, stage by stage, with their
    edges recorded in the same walk."""
    n = inst.total_jobs
    stages: list[tuple[DiscreteState, ...]] = [(initial_state(inst),)]
    edges = []
    for _ in range(n):
        nxt: dict[DiscreteState, int] = {}  # child -> its index in the next stage
        out = []
        for state in stages[-1]:
            out.append(tuple([(k, nxt.setdefault(_child(state, k), len(nxt)))
                              for k in admissible_classes(inst, state)]))
        stages.append(tuple(nxt))
        edges.append(tuple(out))
    return StateGraph(tuple(stages), tuple(edges))


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
    each defined on the ``instance.start_window`` of its state's counts."""

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


def backward_induction(inst: Instance) -> ValueTable:
    """Compute every state's cost-to-go; terminal states map to zero.

    States within one stage are independent given the next stage, so the
    loop is a stage barrier; the table is immutable afterwards.  The window
    minimum of a stage objective depends only on the child state (its served
    job and that job's cost-to-go), while the setup depends on the edge, that
    is on the parent's last class.  So each state of the next stage is
    windowed once, by ``window_min_of`` of its ``objective_lists`` in one
    construction, and every edge into it only shifts and offsets the result;
    windowing per edge would repeat the costliest op once per parent.  A
    state's function is the minimum over its edges of ``stage_value``, built
    by one ``envelope`` of the edges' parts: the child's window minimum in
    front of the edge's ``stage_part`` constants.  A stage's functions are
    kept in lists by position and read along ``StateGraph.edges``, with
    ``stage_part``'s constants taken once per (last class, class) pair.

    Each state's function is built on the ``start_window`` of its counts
    (computed once per counts vector): every decision window from a parent's
    window lies inside the child's, so each value read is exact, and no
    breakpoint is built where no start time reaches.
    """
    graph = build_state_graph(inst)
    stages = graph.stages
    # stage_part's (delta, slope, intercept) after each last class h, per class k
    moves = {
        h: [stage_part(cp, inst.setup_time(h, k), inst.setup_cost(h, k)) for k, cp in enumerate(inst.classes)]
        for h in (None, *range(inst.n_classes))
    }
    vals = [Pwl.zero(*start_window(inst, inst.jobs_per_class))] * len(stages[-1])
    values: dict[DiscreteState, Pwl] = dict(zip(stages[-1], vals))
    for j in range(len(stages) - 2, -1, -1):
        windowed = []
        for (counts, k), f in zip(stages[j + 1], vals):  # the served job is class k's latest
            cp = inst.classes[k]
            xs, ys = objective_lists(list(f.xs), list(f.ys), cp, counts[k] - 1)
            windowed.append(window_min_of(xs, ys, cp.pt_nom - cp.pt_low))
        spans = {counts: start_window(inst, counts) for counts in {s.counts for s in stages[j]}}
        vals = []
        for state, out in zip(stages[j], graph.edges[j]):
            row = moves[state.last]
            vals.append(envelope([(windowed[c], *row[k]) for k, c in out], *spans[state.counts]))
        values.update(zip(stages[j], vals))
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

    A move costs ``intercept + slope * t`` by its ``stage_part`` plus its
    stage objective's minimum over the move's decision window.

    Raises ``KeyError`` for a state outside the graph and ``ValueError`` for
    a t that ``ValueTable.cost_to_go`` rejects.
    """
    value = vt.cost_to_go(state, t)
    best = None  # (cost, class, its ClassParams, stage objective, setup time)
    for k in admissible_classes(inst, state):
        cp, st = inst.classes[k], inst.setup_time(state.last, k)
        obj = stage_objective(vt[_child(state, k)], cp, state.counts[k])
        _, slope, intercept = stage_part(cp, st, inst.setup_cost(state.last, k))
        cost = intercept + slope * t + obj.min_over(t + st + cp.pt_low, t + st + cp.pt_nom)
        if best is None or cost < best[0] - TIE:
            best = (cost, k, cp, obj, st)
    if best is None:
        raise ValueError("terminal state has no decision")
    _, k, cp, obj, st = best
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
