"""The DP and the per-sequence compression optimizer against an LP reference."""

import random

from famsched.bench import GenParams, generate
from famsched.dp import backward_induction
from famsched.schedule import Sequence, optimize_compressions
from tests.lp_reference import block_costs, optimal_cost


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
