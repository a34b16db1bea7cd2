"""Exact solver by backward induction over the stage-based state space.

The discrete state is (completed jobs per class, last-served class); the
current time enters as the argument of a piecewise-linear cost-to-go stored
per discrete state.  Stage j holds the states with j completed jobs, so the
backward pass walks stages from the terminal one to the initial state, and
the value at the initial state evaluated at time 0 is the global optimum.

The ``last`` component of a state is 1-based with 0 meaning "nothing served
yet", matching the usual state-vector convention; everything else in the
library is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .instance import Instance, horizon_upper_bound
from .pwl import Pwl
from .schedule import (
    CompressionPlan,
    Schedule,
    Sequence,
    build_timeline,
    select_completion,
    snap_u,
    stage_objective,
    stage_value,
)


@dataclass(frozen=True)
class DiscreteState:
    """Per-class completion counts plus the last-served class (1-based, 0 = none)."""

    counts: tuple[int, ...]
    last: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("completion counts must be non-negative")
        stage = sum(self.counts)
        if self.last == 0:
            if stage != 0:
                raise ValueError("last=0 is only valid before any service")
        else:
            if not 1 <= self.last <= len(self.counts):
                raise ValueError(f"last class {self.last} out of range")
            if self.counts[self.last - 1] < 1:
                raise ValueError("last-served class must have at least one completion")

    @property
    def stage(self) -> int:
        return sum(self.counts)


def initial_state(inst: Instance) -> DiscreteState:
    return DiscreteState((0,) * inst.n_classes, 0)


def _padded_horizon(inst: Instance) -> float:
    """Domain end for stored cost-to-go functions.

    Padding by one worst-case setup plus one nominal processing time keeps
    every decision window [t + st + pt_low, t + st + pt_nom] with t <= H
    inside the stored domain, so policy queries never read clamped values.
    """
    max_st = max((v for row in inst.st for v in row), default=0.0)
    max_pt = max(cp.pt_nom for cp in inst.classes)
    return horizon_upper_bound(inst) + max_st + max_pt


def _child(state: DiscreteState, k: int) -> DiscreteState:
    """Successor state after serving one class-k job (k 0-based)."""
    counts = list(state.counts)
    counts[k] += 1
    return DiscreteState(tuple(counts), k + 1)


def admissible_classes(inst: Instance, state: DiscreteState) -> list[int]:
    """0-based classes that still have jobs to serve from this state."""
    return [k for k in range(inst.n_classes) if state.counts[k] < inst.classes[k].n_jobs]


@dataclass(frozen=True)
class StateGraph:
    """States grouped by stage; edges are (state, class served) -> child."""

    stages: tuple[tuple[DiscreteState, ...], ...]

    @property
    def node_count(self) -> int:
        return sum(len(s) for s in self.stages)

    def nodes(self) -> list[DiscreteState]:
        return [s for stage in self.stages for s in stage]

    def __contains__(self, state: DiscreteState) -> bool:
        return state.stage < len(self.stages) and state in self.stages[state.stage]


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
    """Cost-to-go per discrete state, each a Pwl over start times [0, H]."""

    def __init__(self, inst: Instance, graph: StateGraph, values: dict[DiscreteState, Pwl]):
        self._inst = inst
        self.graph = graph
        self.horizon = horizon_upper_bound(inst)
        self._values = values

    def __getitem__(self, state: DiscreteState) -> Pwl:
        try:
            return self._values[state]
        except KeyError:
            raise KeyError(f"state {state} not in the graph") from None

    def __contains__(self, state: DiscreteState) -> bool:
        return state in self._values

    def __len__(self) -> int:
        return len(self._values)

    def states(self) -> list[DiscreteState]:
        return list(self._values)

    def cost_to_go(self, state: DiscreteState, t: float) -> float:
        return self[state].value_at(t)

    def optimal_cost(self) -> float:
        return self.cost_to_go(initial_state(self._inst), 0.0)

    def dump_csv(self) -> str:
        """One ``counts;last;breakpoint;value`` row per stored breakpoint."""
        lines = ["counts;last;breakpoint;value"]
        for state, f in self._values.items():
            tag = ",".join(str(c) for c in state.counts)
            for x, y in zip(f.xs, f.ys):
                lines.append(f"{tag};{state.last};{x!r};{y!r}")
        return "\n".join(lines)


def _child_objective(inst: Instance, values: dict[DiscreteState, Pwl],
                     child: DiscreteState) -> Pwl:
    """Stage objective F(s) of the job whose service leads into child.

    That job is the last-served class's latest one, so F depends on the
    child alone, not on the state it was served from.
    """
    k = child.last - 1
    cp = inst.classes[k]
    i = child.counts[k] - 1
    return stage_objective(values[child], cp.alpha[i], cp.dd[i], cp.beta)


def _edge_setup(inst: Instance, state: DiscreteState, k: int) -> tuple[float, float]:
    prev = None if state.last == 0 else state.last - 1
    return inst.setup_time(prev, k), inst.setup_cost(prev, k)


def backward_induction(inst: Instance) -> ValueTable:
    """Compute every state's cost-to-go; terminal states map to zero.

    States within one stage are independent given the next stage, so the
    loop is a stage barrier; the table is immutable afterwards.  The window
    minimum of a stage objective depends only on the child state (its served
    job and that job's cost-to-go), while the setup depends on the edge, that
    is on the parent's last class.  So each state of the next stage is
    windowed once, and every edge into it only shifts and offsets the result;
    windowing per edge would repeat the costliest op once per parent.
    """
    graph = build_state_graph(inst)
    high = _padded_horizon(inst)
    values: dict[DiscreteState, Pwl] = {}
    zero = Pwl.zero(high)
    for state in graph.stages[-1]:
        values[state] = zero
    for j in range(len(graph.stages) - 2, -1, -1):
        windowed: dict[DiscreteState, Pwl] = {}
        for child in graph.stages[j + 1]:
            cp = inst.classes[child.last - 1]
            windowed[child] = _child_objective(inst, values, child).window_min(cp.pt_nom - cp.pt_low)
        for state in graph.stages[j]:
            best: Pwl | None = None
            for k in admissible_classes(inst, state):
                cp = inst.classes[k]
                st, sc = _edge_setup(inst, state, k)
                w = stage_value(windowed[_child(state, k)], cp.beta, cp.pt_low, cp.pt_nom,
                                st, sc, high)
                best = w if best is None else best.pointwise_min(w)
            values[state] = best if best is not None else zero
    return ValueTable(inst, graph, values)


@dataclass(frozen=True)
class PolicyDecision:
    """Best next move from a state at a given time.

    ``next_class`` is 1-based to match the state convention; ``tau`` is the
    chosen processing time and ``u`` the equivalent resource amount.
    """

    next_class: int
    tau: float
    u: float
    cost_to_go: float


def _decide(inst: Instance, vt: ValueTable, state: DiscreteState, t: float) -> PolicyDecision:
    best_k = None
    best_val = None
    best_obj = None
    for k in admissible_classes(inst, state):
        cp = inst.classes[k]
        st, sc = _edge_setup(inst, state, k)
        obj = _child_objective(inst, vt._values, _child(state, k))
        lo = t + st + cp.pt_low
        hi = t + st + cp.pt_nom
        val = sc + cp.beta * (cp.pt_nom + st) + cp.beta * t + obj.min_over(lo, hi)
        if best_val is None or val < best_val - 1e-9:
            best_k, best_val, best_obj = k, val, obj
    if best_k is None:
        raise ValueError("terminal state has no decision")
    cp = inst.classes[best_k]
    st, _ = _edge_setup(inst, state, best_k)
    s = select_completion(best_obj, t + st + cp.pt_low, t + st + cp.pt_nom)
    u = snap_u((cp.pt_nom - (s - t - st)) / cp.gamma, cp.u_max)
    return PolicyDecision(
        next_class=best_k + 1,
        tau=cp.pt_nom - cp.gamma * u,
        u=u,
        cost_to_go=vt.cost_to_go(state, t),
    )


def query_policy(inst: Instance, vt: ValueTable, state: DiscreteState, t: float) -> PolicyDecision:
    """Optimal decision at (state, t); ties go to the smallest class index,
    then to select_completion's processing-time choice."""
    if state not in vt:
        raise KeyError(f"state {state} not in the graph")
    if t < -1e-9 or t > vt.horizon + 1e-9:
        raise ValueError(f"time {t} outside [0, {vt.horizon}]")
    return _decide(inst, vt, state, t)


def extract_open_loop(inst: Instance, vt: ValueTable) -> Schedule:
    """Greedy descent from the initial state at t = 0, following the policy."""
    state = initial_state(inst)
    t = 0.0
    order: list[int] = []
    u = [[0.0] * cp.n_jobs for cp in inst.classes]
    for _ in range(inst.total_jobs):
        dec = _decide(inst, vt, state, t)
        k = dec.next_class - 1
        st, _ = _edge_setup(inst, state, k)
        u[k][state.counts[k]] = dec.u
        order.append(k)
        t = t + st + dec.tau
        state = _child(state, k)
    seq = Sequence(tuple(order))
    plan = CompressionPlan(tuple(tuple(r) for r in u))
    return Schedule(sequence=seq, plan=plan, timeline=build_timeline(inst, seq, plan))
