"""Instance generator conformance and the enumeration oracle."""

import inspect
import math
import random
import sys
from dataclasses import replace
from itertools import permutations

import pytest

from famsched.bench import ENUM_CAP, GenParams, brute_force_solve, count_sequences, generate
from famsched.dp import backward_induction
from famsched.instance import ClassParams, Instance, validate_instance
from famsched.schedule import Sequence, solve_sequence
from tests.conftest import EX1_COST, EX1_ORDER_1BASED, EX1_U


def test_generation_deterministic():
    params = GenParams(jobs=(3, 4), seed=42)
    assert generate(params) == generate(params)


def test_generated_ranges_hold():
    for seed in range(120):
        inst = generate(GenParams(jobs=(3, 3), seed=seed))
        assert validate_instance(inst) == []
        for cp in inst.classes:
            assert 6.0 <= cp.pt_nom <= 10.0
            assert 2.0 <= cp.pt_low <= 6.0
            assert cp.pt_low <= cp.pt_nom
            assert 0.5 <= cp.beta <= 2.5
            assert cp.gamma == 1.0
            assert all(0.5 <= a <= 2.5 for a in cp.alpha)
            prev = 10.0
            for d in cp.dd:
                step = d - prev
                assert 0.5 <= step <= 12.0
                prev = d
        for h in range(2):
            for k in range(2):
                if h == k:
                    assert inst.st[h][k] == 0.0
                    assert inst.sc[h][k] == 0.0
                else:
                    assert 1.0 <= inst.st[h][k] <= 3.0
                    assert 0.5 <= inst.sc[h][k] <= 2.5


def test_param_validation():
    with pytest.raises(ValueError):
        GenParams(jobs=(3,))
    with pytest.raises(ValueError):
        GenParams(jobs=(3, 0))
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        GenParams(jobs=(3, 3), seed=-1)


@pytest.mark.parametrize("jobs,count", [((4, 3), 35), ((5, 5), 252), ((1, 1, 1), 6)])
def test_count_sequences(jobs, count):
    classes = tuple(
        ClassParams(8.0, 4.0, 1.0, 1.0, (1.0,) * n, tuple(float(10 + i) for i in range(n)))
        for n in jobs
    )
    k = len(jobs)
    st = tuple(tuple(0.0 for _ in range(k)) for _ in range(k))
    inst = Instance(classes, st, st)
    assert count_sequences(inst) == count


def test_count_sequences_exact_beyond_int64():
    classes = tuple(
        ClassParams(8.0, 4.0, 1.0, 1.0, (1.0,) * 35, tuple(float(10 + i) for i in range(35)))
        for _ in range(2)
    )
    inst = Instance(classes, ((0.0, 1.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 0.0)))
    assert count_sequences(inst) == math.comb(70, 35) > 2**63


def _reference_oracle(inst):
    """The per-sequence oracle: solve_sequence on every distinct permutation
    of the class list, in sorted order, keeping only improvements by more
    than 1e-9."""
    classes = [k for k, n_k in enumerate(inst.jobs_per_class) for _ in range(n_k)]
    best = None
    for order in sorted(set(permutations(classes))):
        sched = solve_sequence(inst, Sequence(order))
        if best is None or sched.cost < best.cost - 1e-9:
            best = sched
    return best


ORACLE_SHAPES = ((2, 2), (3, 2), (1, 4), (2, 2, 1), (2, 1, 2), (1, 1, 1, 2), (2, 1, 1, 1))


@pytest.mark.parametrize("case", range(10))
def test_brute_force_matches_per_sequence_reference(case):
    jobs = ORACLE_SHAPES[case % len(ORACLE_SHAPES)]
    rng = random.Random(case)
    base = generate(GenParams(jobs=jobs, seed=400 + case))
    classes = [replace(cp, gamma=rng.choice((0.5, 2.0, 3.0))) for cp in base.classes]
    st, sc = base.st, base.sc
    if case == 0:  # an incompressible class: u_max = 0
        classes[0] = replace(classes[0], pt_low=classes[0].pt_nom)
    if case == 1:  # no setups at all
        st = sc = tuple((0.0,) * len(jobs) for _ in jobs)
    inst = Instance(tuple(classes), st, sc)
    assert validate_instance(inst) == []
    want = _reference_oracle(inst)
    got = brute_force_solve(inst)
    assert repr(got.cost) == repr(want.cost)
    assert got.sequence == want.sequence
    assert got.plan.u == want.plan.u


def test_brute_force_mirrored_tie_goes_to_class_1():
    # two identical classes with symmetric setups: every sequence ties
    # exactly with its mirror, so the winner must start with class 1
    cp = ClassParams(8.0, 4.0, 1.0, 1.0, (1.5, 1.0), (12.0, 20.0))
    setups = ((0.0, 2.0), (2.0, 0.0))
    inst = Instance((cp, cp), setups, setups)
    sched = brute_force_solve(inst)
    mirror = Sequence(tuple(1 - k for k in sched.sequence.order))
    assert solve_sequence(inst, mirror).cost == sched.cost
    assert sched.sequence.to_1based()[0] == 1
    assert sched.sequence == _reference_oracle(inst).sequence


def test_brute_force_near_tie_goes_to_first_class_list():
    # orders 1 3 2 and 3 1 2 both cost 2.2 by their timelines, while the
    # oracle's cost-to-go values for them differ by float rounding
    a = ClassParams(8.0, 4.0, 0.1, 1.0, (0.7,), (15.0,))
    b = ClassParams(8.0, 4.0, 0.7, 1.0, (0.1,), (10.0,))
    st = ((0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (1.0, 1.0, 0.0))
    sc = ((0.0, 0.6, 0.2), (0.4, 0.0, 0.6), (0.1, 0.4, 0.0))
    inst = Instance((a, b, a), st, sc)
    sched = brute_force_solve(inst)
    assert sched.sequence.to_1based() == [1, 3, 2]
    rival = solve_sequence(inst, Sequence.from_1based([3, 1, 2]))
    assert rival.cost == pytest.approx(sched.cost, abs=1e-9)
    assert sched.sequence == _reference_oracle(inst).sequence


def test_brute_force_ex1(ex1):
    sched = brute_force_solve(ex1)
    assert sched.cost == pytest.approx(EX1_COST, abs=1e-9)
    assert sched.sequence.to_1based() == EX1_ORDER_1BASED
    for got, want in zip(sched.plan.u, EX1_U):
        assert got == pytest.approx(want, abs=1e-9)


def test_brute_force_costless_instance():
    classes = (
        ClassParams(8.0, 4.0, 1.0, 1.0, (0.0, 0.0), (10.0, 12.0)),
        ClassParams(6.0, 4.0, 1.5, 1.0, (0.0,), (11.0,)),
    )
    zeros = ((0.0, 0.0), (0.0, 0.0))
    inst = Instance(classes, zeros, zeros)
    sched = brute_force_solve(inst)
    assert sched.cost == pytest.approx(0.0, abs=1e-12)
    # all three sequences cost 0: the lexicographically first one wins
    assert sched.sequence.to_1based() == [1, 1, 2]


def test_brute_force_cap():
    # 21! / (7!)^3 = 399,072,960 sequences: the guard raises before any work
    inst = generate(GenParams(jobs=(7, 7, 7), seed=0))
    with pytest.raises(ValueError, match=f"sequence count 399072960 exceeds the enumeration cap {ENUM_CAP}$"):
        brute_force_solve(inst)


def test_brute_force_stack_depth_does_not_grow_with_jobs():
    # 40 stages against a recursion limit 25 frames above the caller's depth
    inst = generate(GenParams(jobs=(1, 39), seed=0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        sched = brute_force_solve(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert sched.cost == pytest.approx(backward_induction(inst).optimal_cost(), abs=1e-6)


def test_brute_force_matches_dp_on_randoms():
    shapes = [(2, 2), (3, 2), (1, 3), (3, 3), (2, 1)]
    for trial in range(20):
        inst = generate(GenParams(jobs=shapes[trial % len(shapes)], seed=500 + trial))
        dp_cost = backward_induction(inst).optimal_cost()
        assert brute_force_solve(inst).cost == pytest.approx(dp_cost, abs=1e-6)


def test_sample_means_near_range_midpoints():
    # sanity over many samples: observed means near (a+b)/2
    pts, sts, alphas = [], [], []
    for seed in range(400):
        inst = generate(GenParams(jobs=(2, 2), seed=7000 + seed))
        for cp in inst.classes:
            pts.append(cp.pt_nom)
            alphas.extend(cp.alpha)
        sts.append(inst.st[0][1])
        sts.append(inst.st[1][0])
    for values, lo, hi in ((pts, 6.0, 10.0), (sts, 1.0, 3.0), (alphas, 0.5, 2.5)):
        mid = (lo + hi) / 2
        mean = sum(values) / len(values)
        assert abs(mean - mid) <= 0.05 * mid
