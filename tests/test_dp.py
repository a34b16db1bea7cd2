"""State graph, backward induction, policy extraction."""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from famsched import pwl
from famsched.bench import GenParams, brute_force_solve, generate
from famsched.dp import (
    DiscreteState,
    ValueTable,
    backward_induction,
    build_state_graph,
    count_states,
    extract_open_loop,
    initial_state,
    query_policy,
)
from famsched.instance import ClassParams, Instance, horizon_upper_bound, start_window
from famsched.milp import build_model, check_assignment, encode_schedule
from famsched.pwl import TOL, Pwl, envelope
from famsched.schedule import (
    CompressionPlan,
    Sequence,
    build_timeline,
    solve_sequence,
    stage_objective,
    stage_part,
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
    assert sum(map(len, graph.stages)) == 5
    nodes = {s for stage in graph.stages for s in stage}
    assert nodes == {
        DiscreteState((0, 0), None),
        DiscreteState((1, 0), 0),
        DiscreteState((0, 1), 1),
        DiscreteState((1, 1), 0),
        DiscreteState((1, 1), 1),
    }


def count_shapes():
    """Every composition of at most 12 jobs into 2..4 classes, plus a
    six-singleton spot check."""
    shapes = [
        shape
        for k in (2, 3, 4)
        for shape in itertools.product(range(1, 13), repeat=k)
        if sum(shape) <= 12
    ]
    shapes.append((1,) * 6)
    return shapes


def test_count_formula_matches_graph_exhaustively():
    shapes = count_shapes()
    assert len(shapes) == 782
    for jobs in shapes:
        # one initial state, plus one per nonzero count vector and class served last
        direct = 1 + sum(
            sum(c >= 1 for c in counts) for counts in itertools.product(*(range(n + 1) for n in jobs))
        )
        inst = toy_instance(jobs)
        assert count_states(inst) == direct, jobs
        if sum(jobs) <= 8:  # 155 shapes keep the graph comparison affordable
            assert sum(map(len, build_state_graph(inst).stages)) == direct, jobs


def test_graph_edges_lead_to_their_children_exhaustively():
    """Every edge ``(k, c)`` of a state leads to the child of serving class k,
    at index c of the next stage, one edge per class with jobs left; the
    edge count is the benchmark tracer's census formula."""
    for jobs in count_shapes():
        if sum(jobs) > 8:
            continue
        graph = build_state_graph(toy_instance(jobs))
        assert len(graph.edges) == len(graph.stages) - 1, jobs
        for j, (stage, out) in enumerate(zip(graph.stages, graph.edges)):
            assert len(out) == len(stage), (jobs, j)
            for state, edges in zip(stage, out):
                assert [k for k, _ in edges] == [k for k, n in enumerate(jobs)
                                                 if state.counts[k] < n], state
                for k, c in edges:
                    counts = state.counts[:k] + (state.counts[k] + 1,) + state.counts[k + 1:]
                    assert graph.stages[j + 1][c] == DiscreteState(counts, k), (state, k)
        census = sum(c < n for stage in graph.stages for s in stage
                     for c, n in zip(s.counts, jobs))
        assert sum(len(e) for out in graph.edges for e in out) == census, jobs


def test_stage_partition_property():
    graph = build_state_graph(toy_instance((3, 2)))
    for j, stage in enumerate(graph.stages):
        for state in stage:
            assert sum(state.counts) == j


def test_states_outside_the_graph_rejected(ex1):
    vt = backward_induction(ex1)
    for state in (
        DiscreteState((1, 0), None),  # served something but last = none
        DiscreteState((0, 1), 0),  # last class has no completions
        DiscreteState((0, 0), 2),  # no such class
        DiscreteState((5, 3), 0),  # more jobs than class 0 has
    ):
        with pytest.raises(KeyError, match="not in the graph"):
            vt.cost_to_go(state, 0.0)
        with pytest.raises(KeyError, match="not in the graph"):
            query_policy(ex1, vt, state, 0.0)


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


# optimal_cost() and the open-loop sequence (0-based) of the published size
# ladder at seed 1, recorded from tables whose edges were folded pairwise
# (a shift per edge, then pointwise_min in class order)
PINNED_OPTIMA = {
    (5, 5): (62.807620114672744, (1, 1, 0, 0, 0, 0, 0, 1, 1, 1)),
    (10, 10): (842.6670845720182, (0,) + (1,) * 10 + (0,) * 9),
    (15, 15): (1014.0449786875712, (0,) * 6 + (1,) * 15 + (0,) * 9),
    (20, 20): (1876.1112807088705, (1,) * 4 + (0,) * 6 + (1,) * 15 + (0,) * 14 + (1,)),
    (5, 5, 5): (251.3854395468568, (0, 0, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 0, 0, 0)),
    (10, 10, 10): (2389.0444262811743, (0,) * 4 + (2,) * 10 + (1,) * 10 + (0,) * 6),
}


@pytest.mark.parametrize("jobs", list(PINNED_OPTIMA), ids=lambda jobs: ",".join(map(str, jobs)))
def test_published_ladder_optima_pinned(jobs):
    inst = generate(GenParams(jobs=jobs, seed=1))
    vt = backward_induction(inst)
    cost, order = PINNED_OPTIMA[jobs]
    assert vt.optimal_cost() == pytest.approx(cost, rel=1e-12)
    assert extract_open_loop(inst, vt).sequence.order == order


def per_edge_values(inst: Instance) -> dict[DiscreteState, Pwl]:
    """Cost-to-go tables built edge by edge: every (state, class) pair forms
    its own stage objective and window minimum, and the edges of a state,
    in class order, are shifted onto its start window and minimized by
    ``envelope``; the fold itself is checked in ``tests/test_pwl.py``."""
    stages = build_state_graph(inst).stages
    values = {s: Pwl.zero(*start_window(inst, s.counts)) for s in stages[-1]}
    for stage in reversed(stages[:-1]):
        for state in stage:
            parts = []
            for k, cp in enumerate(inst.classes):
                i = state.counts[k]
                if i == cp.n_jobs:
                    continue
                child = DiscreteState(state.counts[:k] + (i + 1,) + state.counts[k + 1:], k)
                obj = stage_objective(values[child], cp, i)
                parts.append((obj.window_min(cp.pt_nom - cp.pt_low),
                              *stage_part(cp, inst.setup_time(state.last, k), inst.setup_cost(state.last, k))))
            values[state] = envelope(parts, *start_window(inst, state.counts))
    return values


@pytest.mark.parametrize("jobs,seed", [(None, None), ((2, 2, 2, 2), 1), ((4, 4, 3), 14)],
                         ids=["ex1", "2,2,2,2/1", "4,4,3/14"])
def test_per_child_windowing_matches_per_edge_tables(ex1, jobs, seed):
    inst = ex1 if jobs is None else generate(GenParams(jobs=jobs, seed=seed))
    vt = backward_induction(inst)
    ref = per_edge_values(inst)
    assert len(ref) == len(vt)
    for state, f in ref.items():
        assert vt[state] == f, state


def full_domain_table(inst: Instance, high: float) -> ValueTable:
    """Backward induction without start windows: every cost-to-go is built
    and kept over the whole domain [0, high], as the solver once did."""
    graph = build_state_graph(inst)
    values = {s: Pwl.zero(0.0, high) for s in graph.stages[-1]}
    for j in range(len(graph.stages) - 2, -1, -1):
        windowed = {}
        for child in graph.stages[j + 1]:
            cp = inst.classes[child.last]
            obj = stage_objective(values[child], cp, child.counts[child.last] - 1)
            windowed[child] = obj.window_min(cp.pt_nom - cp.pt_low)
        for state in graph.stages[j]:
            best = None
            for k, cp in enumerate(inst.classes):
                i = state.counts[k]
                if i == cp.n_jobs:
                    continue
                child = DiscreteState(state.counts[:k] + (i + 1,) + state.counts[k + 1:], k)
                w = stage_value(windowed[child], cp, inst.setup_time(state.last, k),
                                inst.setup_cost(state.last, k), 0.0, high)
                best = w if best is None else best.pointwise_min(w)
            values[state] = best
    return ValueTable(inst, graph, values)


WINDOW_CASES = [((5, 5), 1), ((8, 8), 1), ((10, 10), 1), ((3, 3, 2), 1), ((2, 2, 2, 2), 1),
                ((4, 4, 3), 14)]


@pytest.mark.parametrize("jobs,seed", WINDOW_CASES,
                         ids=[",".join(map(str, jobs)) + f"/{seed}" for jobs, seed in WINDOW_CASES])
def test_windowed_tables_match_full_domain_reference(jobs, seed):
    inst = generate(GenParams(jobs=jobs, seed=seed))
    vt = backward_induction(inst)
    # one worst-case setup and nominal processing time past the horizon bound:
    # every decision window from a start time up to the bound fits inside
    high = (horizon_upper_bound(inst) + max(map(max, inst.st))
            + max(cp.pt_nom for cp in inst.classes))
    ref = full_domain_table(inst, high)
    got, want = extract_open_loop(inst, vt), extract_open_loop(inst, ref)
    assert repr(got.cost) == repr(want.cost)
    assert got.sequence == want.sequence
    assert repr(got.plan.u) == repr(want.plan.u)
    assert vt.optimal_cost() == pytest.approx(ref.optimal_cost(), rel=1e-12)
    for state in ref.states():
        lo, hi = start_window(inst, state.counts)
        f, g = vt[state], ref[state]
        for x, y in zip(g.xs, g.ys):
            if lo <= x <= hi:
                assert abs(f.value_at(x) - y) <= TOL * max(1.0, abs(y)), (state, x)


def test_dp_equals_enumeration_on_random_instances():
    for seed in range(12):
        inst = generate(GenParams(jobs=(2, 2), seed=seed))
        vt = backward_induction(inst)
        oracle = brute_force_solve(inst)
        assert vt.optimal_cost() == pytest.approx(oracle.cost, abs=1e-6)


def test_dp_equals_enumeration_with_compression_rates_off_one():
    # the generator fixes gamma = 1; rates 0.5, 2 and 3 move u_max and the
    # compression cost per unit of processing time saved
    rng = random.Random(31)
    for jobs in ((2, 2), (3, 2), (2, 2, 2)):
        for seed in range(10):
            base = generate(GenParams(jobs=jobs, seed=seed))
            inst = Instance(tuple(replace(cp, gamma=rng.choice((0.5, 2.0, 3.0)))
                                  for cp in base.classes), base.st, base.sc)
            vt = backward_induction(inst)
            sched = extract_open_loop(inst, vt)
            assert sched.cost == pytest.approx(brute_force_solve(inst).cost, abs=1e-6), (jobs, seed)
            for which in (1, 2, 3):
                model = build_model(inst, which)
                report = check_assignment(model, encode_schedule(inst, sched, model))
                assert report.ok, (jobs, seed, which)
                assert report.objective == pytest.approx(sched.cost, abs=1e-6), (jobs, seed, which)


@pytest.mark.parametrize("jobs,seed", [(None, None), ((2, 2, 2), 0), ((3, 2), 1), ((1, 6), 2)],
                         ids=["ex1", "2,2,2/0", "3,2/1", "1,6/2"])
def test_window_closed_form_matches_sweep_in_the_solvers(ex1, jobs, seed, monkeypatch):
    """``window_min``'s closed form for quasiconvex stage objectives changes
    no solve: with the closed form off, every window of the DP, the oracle's
    winner and the fixed-sequence chain is taken by the per-interval scan, the
    table has the same states and breakpoint counts and values within 1e-12
    relative, and all three return the same schedules."""
    inst = ex1 if jobs is None else generate(GenParams(jobs=jobs, seed=seed))
    vt = backward_induction(inst)
    sched, oracle = extract_open_loop(inst, vt), brute_force_solve(inst)
    chain = solve_sequence(inst, oracle.sequence)

    swept = []
    sweep = Pwl._window_sweep
    monkeypatch.setattr(pwl, "_quasiconvex_window", lambda xs, ys, w: None)
    monkeypatch.setattr(Pwl, "_window_sweep", lambda f, w: swept.append(w) or sweep(f, w))
    swept_vt = backward_induction(inst)
    in_dp = len(swept)
    swept_sched = extract_open_loop(inst, swept_vt)
    swept_oracle = brute_force_solve(inst)  # ends with the chain of its winner
    in_oracle = len(swept) - in_dp
    swept_chain = solve_sequence(inst, oracle.sequence)
    in_chain = len(swept) - in_dp - in_oracle
    # the oracle's search takes no window: it windows only in its winner's chain
    assert in_dp > 0 and in_chain > 0 and in_oracle == in_chain, (in_dp, in_oracle, in_chain)

    assert vt.states() == swept_vt.states()
    for state in vt.states():
        f, g = vt[state], swept_vt[state]
        assert len(f) == len(g), state
        for a, b in zip(f.xs + f.ys, g.xs + g.ys):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), state
    assert repr(sched) == repr(swept_sched)
    assert repr(oracle) == repr(swept_oracle)
    assert repr(chain) == repr(swept_chain)


@pytest.mark.parametrize("jobs,seed", [(None, None), ((4, 4, 3), 14)], ids=["ex1", "4,4,3/14"])
def test_stored_domains_are_start_windows(ex1, jobs, seed):
    inst = ex1 if jobs is None else generate(GenParams(jobs=jobs, seed=seed))
    vt = backward_induction(inst)
    for state in vt.states():
        lo, hi = start_window(inst, state.counts)
        f = vt[state]
        assert abs(f.low - lo) <= TOL * max(1.0, hi), state
        assert abs(f.high - hi) <= TOL * max(1.0, hi), state


def test_terminal_values_are_zero(ex1):
    vt = backward_induction(ex1)
    for state in vt.graph.stages[-1]:
        f = vt[state]
        assert all(y == 0.0 for y in f.ys)


def test_cost_to_go_monotone_in_time(ex1):
    vt = backward_induction(ex1)
    for state in vt.states():
        f = vt[state]
        vals = [f.value_at(t) for t in np.linspace(*start_window(ex1, state.counts), 250)]
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
    assert dec.cls == 1
    assert dec.cost_to_go == pytest.approx(EX1_COST, abs=1e-9)


def test_query_policy_forced_move(ex1):
    vt = backward_induction(ex1)
    dec = query_policy(ex1, vt, DiscreteState((4, 2), 0), 30.0)
    assert dec.cls == 1  # only class 1 has a job left


def test_query_policy_published_state(ex1):
    vt = backward_induction(ex1)
    dec = query_policy(ex1, vt, DiscreteState((3, 3), 1), 36.0)
    assert dec.cls == 0
    assert dec.tau == pytest.approx(8.0, abs=1e-9)
    assert dec.u == pytest.approx(0.0, abs=1e-9)


def test_query_policy_rejects_time_outside_start_window(ex1):
    vt = backward_induction(ex1)
    state = DiscreteState((4, 2), 0)
    assert start_window(ex1, state.counts) == (24.0, 49.0)
    for t in (24.0, 49.0):
        assert query_policy(ex1, vt, state, t).cls == 1
    for t in (24.0 - 1e-6, 49.0 + 1e-6, math.nan):
        with pytest.raises(ValueError, match="outside domain"):
            query_policy(ex1, vt, state, t)


def test_query_policy_rejects_terminal_state(ex1):
    vt = backward_induction(ex1)
    for state in vt.graph.stages[-1]:
        for t in start_window(ex1, state.counts):  # inside the window: the time is fine
            with pytest.raises(ValueError, match="^terminal state has no decision$"):
                query_policy(ex1, vt, state, t)


def test_cost_to_go_only_inside_start_window(ex1):
    vt = backward_induction(ex1)
    state = DiscreteState((4, 2), 0)
    assert vt.cost_to_go(state, 49.0) == 18.5
    for t in (55.0, math.nan):
        with pytest.raises(ValueError, match="outside domain"):
            vt.cost_to_go(state, t)
    with pytest.raises(ValueError, match="outside domain"):
        vt.cost_to_go(initial_state(ex1), math.nan)


def test_query_policy_rejects_unknown_state(ex1):
    vt = backward_induction(ex1)
    with pytest.raises(KeyError):
        query_policy(ex1, vt, DiscreteState((5, 3), 0), 0.0)
    with pytest.raises(ValueError):
        query_policy(ex1, vt, initial_state(ex1), horizon_upper_bound(ex1) + 1.0)


def test_value_table_csv_dump(ex1):
    vt = backward_induction(ex1)
    text = vt.dump_csv()
    lines = text.splitlines()
    assert lines[0] == "counts;last;breakpoint;value"
    assert len(lines) > len(vt)
