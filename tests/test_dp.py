"""State graph, backward induction, policy extraction."""

import itertools
import random

import numpy as np
import pytest

from famsched.bench import GenParams, brute_force_solve, generate
from famsched.dp import (
    DiscreteState,
    backward_induction,
    build_state_graph,
    count_states,
    extract_open_loop,
    initial_state,
    query_policy,
)
from famsched.instance import ClassParams, Instance
from famsched.pwl import Pwl
from famsched.schedule import (
    CompressionPlan,
    Sequence,
    build_timeline,
    stage_objective,
    stage_value,
)
from tests.conftest import EX1_COST, EX1_ORDER_1BASED, EX1_U


def toy_instance(jobs):
    classes = tuple(
        ClassParams(8.0, 4.0, 1.0, 1.0, (1.0,) * n, tuple(10.0 + 2 * i for i in range(n)))
        for n in jobs
    )
    k = len(jobs)
    st = tuple(tuple(0.0 if h == m else 1.0 for m in range(k)) for h in range(k))
    return Instance(classes, st, st)


# -- graph and counts -----------------------------------------------------

@pytest.mark.parametrize(
    "jobs,expected",
    [
        ((5, 5), 61),
        ((10, 10), 221),
        ((15, 15), 481),
        ((20, 20), 841),
        ((5, 5, 5), 541),
        ((10, 10, 10), 3631),
        ((5, 5, 5, 5), 4321),
        ((4, 3), 32),
    ],
)
def test_count_states_published_sizes(jobs, expected):
    assert count_states(toy_instance(jobs)) == expected


def test_two_singleton_classes_graph():
    graph = build_state_graph(toy_instance((1, 1)))
    assert graph.node_count == 5
    nodes = set(graph.nodes())
    assert nodes == {
        DiscreteState((0, 0), 0),
        DiscreteState((1, 0), 1),
        DiscreteState((0, 1), 2),
        DiscreteState((1, 1), 1),
        DiscreteState((1, 1), 2),
    }


def test_count_formula_matches_graph_exhaustively():
    # every composition of at most 12 jobs into 2..4 classes, plus a
    # six-singleton spot check
    shapes = [
        shape
        for k in (2, 3, 4)
        for shape in itertools.product(range(1, 13), repeat=k)
        if sum(shape) <= 12
    ]
    shapes.append((1,) * 6)
    for jobs in shapes:
        inst = toy_instance(jobs)
        assert build_state_graph(inst).node_count == count_states(inst), jobs


def test_stage_partition_property():
    graph = build_state_graph(toy_instance((3, 2)))
    for j, stage in enumerate(graph.stages):
        for state in stage:
            assert state.stage == j


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        DiscreteState((1, 0), 0)  # served something but last = none
    with pytest.raises(ValueError):
        DiscreteState((0, 1), 1)  # last class has no completions
    with pytest.raises(ValueError):
        DiscreteState((0, 0), 3)


# -- backward induction ---------------------------------------------------

def test_ex1_optimal_cost(ex1):
    vt = backward_induction(ex1)
    assert vt.optimal_cost() == pytest.approx(EX1_COST, abs=1e-9)


def test_zero_cost_instance():
    inst = toy_instance((2, 2))
    free = Instance(
        classes=tuple(
            ClassParams(cp.pt_nom, cp.pt_low, cp.beta, cp.gamma, (0.0,) * cp.n_jobs, cp.dd)
            for cp in inst.classes
        ),
        st=inst.st,
        sc=tuple(tuple(0.0 for _ in row) for row in inst.sc),
    )
    vt = backward_induction(free)
    assert vt.optimal_cost() == pytest.approx(0.0, abs=1e-12)


def test_breakpoints_stay_bounded_on_blowup_instance():
    # float noise once grew this instance's cost-to-go functions to 7,091
    # breakpoints; merging within tolerance keeps them near the real kinks
    vt = backward_induction(generate(GenParams(jobs=(4, 4, 4), seed=14)))
    assert max(len(vt[s]) for s in vt.states()) <= 100
    assert vt.optimal_cost() == pytest.approx(148.8887961063331, rel=1e-9)


def per_edge_values(inst: Instance, high: float) -> dict[DiscreteState, Pwl]:
    """Cost-to-go tables built edge by edge: every (state, class) pair forms
    its own stage objective and window minimum, then the edges of a state
    are folded with ``pointwise_min`` in class order."""
    stages = build_state_graph(inst).stages
    values = {s: Pwl.zero(high) for s in stages[-1]}
    for stage in reversed(stages[:-1]):
        for state in stage:
            best = None
            for k, cp in enumerate(inst.classes):
                i = state.counts[k]
                if i == cp.n_jobs:
                    continue
                child = DiscreteState(state.counts[:k] + (i + 1,) + state.counts[k + 1:], k + 1)
                prev = None if state.last == 0 else state.last - 1
                obj = stage_objective(values[child], cp.alpha[i], cp.dd[i], cp.beta)
                w = stage_value(obj.window_min(cp.pt_nom - cp.pt_low), cp.beta, cp.pt_low,
                                cp.pt_nom, inst.setup_time(prev, k), inst.setup_cost(prev, k), high)
                best = w if best is None else best.pointwise_min(w)
            values[state] = best
    return values


@pytest.mark.parametrize("jobs,seed", [(None, None), ((2, 2, 2, 2), 1), ((4, 4, 3), 14)],
                         ids=["ex1", "2,2,2,2/1", "4,4,3/14"])
def test_per_child_windowing_matches_per_edge_tables(ex1, jobs, seed):
    inst = ex1 if jobs is None else generate(GenParams(jobs=jobs, seed=seed))
    vt = backward_induction(inst)
    ref = per_edge_values(inst, vt[initial_state(inst)].high)
    assert len(ref) == len(vt)
    for state, f in ref.items():
        assert vt[state] == f, state


def test_dp_equals_enumeration_on_random_instances():
    for seed in range(12):
        inst = generate(GenParams(jobs=(2, 2), seed=seed))
        vt = backward_induction(inst)
        oracle = brute_force_solve(inst)
        assert vt.optimal_cost() == pytest.approx(oracle.cost, abs=1e-6)


def test_terminal_values_are_zero(ex1):
    vt = backward_induction(ex1)
    for state in vt.graph.stages[-1]:
        f = vt[state]
        assert all(y == 0.0 for y in f.ys)


def test_cost_to_go_monotone_in_time(ex1):
    vt = backward_induction(ex1)
    grid = np.linspace(0.0, vt.horizon, 250)
    for state in vt.states():
        f = vt[state]
        vals = [f.value_at(t) for t in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), state


def test_dp_is_lower_bound_over_random_schedules(ex1):
    rng = random.Random(13)
    vt = backward_induction(ex1)
    best = vt.optimal_cost()
    order = list(EX1_ORDER_1BASED)
    for _ in range(1000):
        rng.shuffle(order)
        seq = Sequence.from_1based(order)
        u = tuple(
            tuple(rng.uniform(0.0, cp.u_max) for _ in range(cp.n_jobs))
            for cp in ex1.classes
        )
        tl = build_timeline(ex1, seq, CompressionPlan(u))
        assert tl.total_cost >= best - 1e-9


# -- extraction and policy -------------------------------------------------

def test_extract_open_loop_ex1(ex1):
    vt = backward_induction(ex1)
    sched = extract_open_loop(ex1, vt)
    assert sched.sequence.to_1based() == EX1_ORDER_1BASED
    for got, want in zip(sched.plan.u, EX1_U):
        assert got == pytest.approx(want, abs=1e-9)
    assert sched.cost == pytest.approx(vt.optimal_cost(), abs=1e-9)


def test_extraction_reproduces_value_on_randoms():
    for seed in range(8):
        inst = generate(GenParams(jobs=(2, 1, 2), seed=100 + seed))
        vt = backward_induction(inst)
        sched = extract_open_loop(inst, vt)
        assert sched.cost == pytest.approx(vt.optimal_cost(), abs=1e-9)


def test_label_swap_symmetry():
    base = generate(GenParams(jobs=(2, 2), seed=77))
    swapped = Instance(
        classes=(base.classes[1], base.classes[0]),
        st=((base.st[1][1], base.st[1][0]), (base.st[0][1], base.st[0][0])),
        sc=((base.sc[1][1], base.sc[1][0]), (base.sc[0][1], base.sc[0][0])),
    )
    a = backward_induction(base).optimal_cost()
    b = backward_induction(swapped).optimal_cost()
    assert a == pytest.approx(b, abs=1e-9)


def test_query_policy_initial_state(ex1):
    vt = backward_induction(ex1)
    dec = query_policy(ex1, vt, initial_state(ex1), 0.0)
    assert dec.next_class == 2
    assert dec.cost_to_go == pytest.approx(EX1_COST, abs=1e-9)


def test_query_policy_forced_move(ex1):
    vt = backward_induction(ex1)
    dec = query_policy(ex1, vt, DiscreteState((4, 2), 1), 30.0)
    assert dec.next_class == 2  # only class 2 has a job left


def test_query_policy_published_state(ex1):
    vt = backward_induction(ex1)
    dec = query_policy(ex1, vt, DiscreteState((3, 3), 2), 36.0)
    assert dec.next_class == 1
    assert dec.tau == pytest.approx(8.0, abs=1e-9)
    assert dec.u == pytest.approx(0.0, abs=1e-9)


def test_query_policy_rejects_unknown_state(ex1):
    vt = backward_induction(ex1)
    with pytest.raises(KeyError):
        query_policy(ex1, vt, DiscreteState((5, 3), 1), 0.0)
    with pytest.raises(ValueError):
        query_policy(ex1, vt, initial_state(ex1), vt.horizon + 1.0)


def test_value_table_csv_dump(ex1):
    vt = backward_induction(ex1)
    text = vt.dump_csv()
    lines = text.splitlines()
    assert lines[0] == "counts;last;breakpoint;value"
    assert len(lines) > len(vt)
