"""The DP and the per-sequence compression optimizer against an LP reference."""

import random
from dataclasses import replace

import pytest

from famsched.bench import GenParams, brute_force_solve, generate
from famsched.dp import DiscreteState, backward_induction, extract_open_loop, query_policy
from famsched.instance import start_window, validate_instance
from famsched.schedule import Sequence, optimize_compressions
from tests.lp_reference import block_costs, interleavings, optimal_cost


def test_dp_matches_lp_reference_on_criterion_5_stream():
    # the instance stream of acceptance criterion 5: 100 instances of at most 8 jobs
    rng = random.Random(777)
    done = 0
    seed = 50_000
    while done < 100:
        k = rng.choice((2, 3))
        jobs = tuple(rng.randint(1, 4) for _ in range(k))
        if sum(jobs) > 8:
            continue
        inst = generate(GenParams(jobs=jobs, seed=seed))
        seed += 1
        dp_cost = backward_induction(inst).optimal_cost()
        assert abs(dp_cost - optimal_cost(inst)) <= 1e-6, (jobs, seed - 1)
        done += 1


def test_optimize_compressions_matches_lp_block():
    rng = random.Random(2024)
    for seed in range(30):
        jobs = tuple(rng.randint(1, 6) for _ in range(rng.choice((2, 3, 4))))
        inst = generate(GenParams(jobs=jobs, seed=seed))
        classes = [k for k, n_k in enumerate(jobs) for _ in range(n_k)]
        orders = [tuple(rng.sample(classes, len(classes))) for _ in range(5)]
        for order, lp_cost in zip(orders, block_costs(inst, orders)):
            _, total = optimize_compressions(inst, Sequence(order))
            assert abs(total - lp_cost) <= 1e-6 * max(1.0, abs(lp_cost)), (jobs, seed, order)


def test_every_solver_on_point_start_windows():
    # pt_low == pt_nom and no setup time: every start time is fixed, so every
    # start window, every stored cost-to-go and every window minimum is a point
    base = generate(GenParams(jobs=(2, 2, 1), seed=3))
    inst = replace(base, classes=tuple(replace(cp, pt_low=cp.pt_nom) for cp in base.classes),
                   st=tuple((0.0,) * 3 for _ in range(3)))
    assert validate_instance(inst) == []
    lo, hi = start_window(inst, (1, 1, 0))
    assert lo == hi == pytest.approx(12.9816, abs=1e-4)
    vt = backward_induction(inst)
    assert all(len(vt[state]) == 1 for state in vt.states())
    want = optimal_cost(inst)
    for got in (vt.optimal_cost(), extract_open_loop(inst, vt).cost, brute_force_solve(inst).cost):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


def _policy_cost(inst, vt, state, t):
    """Cost of the rest of the schedule when every move from (state, t) on is ``query_policy``'s."""
    total = 0.0
    while sum(state.counts) < inst.total_jobs:
        dec = query_policy(inst, vt, state, t)
        k, cp = dec.cls, inst.classes[dec.cls]
        i = state.counts[k]
        t += inst.setup_time(state.last, k) + dec.tau
        total += (inst.setup_cost(state.last, k) + cp.alpha[i] * max(t - cp.dd[i], 0.0)
                  + cp.beta * cp.gamma * dec.u)
        state = DiscreteState(state.counts[:k] + (i + 1,) + state.counts[k + 1:], k)
    return total


@pytest.mark.parametrize("jobs,seed", [(None, None), ((2, 2, 2), 0), ((3, 2), 1), ((2, 1, 2), 2)],
                         ids=["ex1", "2,2,2/0", "3,2/1", "2,1,2/2"])
def test_value_table_and_policy_match_lp_reference(ex1, jobs, seed):
    # every non-terminal state, at the ends and the midpoint of its start
    # window: the stored cost-to-go is the LP minimum over the remaining
    # interleavings, and following the policy from there costs exactly that
    inst = ex1 if jobs is None else generate(GenParams(jobs=jobs, seed=seed))
    vt = backward_induction(inst)
    for state in vt.states():
        left = tuple(cp.n_jobs - c for cp, c in zip(inst.classes, state.counts))
        if not any(left):
            continue
        orders = list(interleavings(left))
        lo, hi = start_window(inst, state.counts)
        for t in sorted({lo, (lo + hi) / 2, hi}):
            want = min(block_costs(inst, orders, (state.counts, state.last, t)))
            tol = 1e-6 * max(1.0, abs(want))
            assert abs(vt.cost_to_go(state, t) - want) <= tol, (state, t)
            assert abs(_policy_cost(inst, vt, state, t) - want) <= tol, (state, t)
