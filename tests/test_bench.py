"""Instance generator conformance and the enumeration oracle."""

import ast
import hashlib
import inspect
import json
import math
import random
import sys
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from famsched import bench
from famsched.bench import ENUM_CAP, GenParams, brute_force_solve, count_sequences, generate
from famsched.cli import main
from famsched.dp import backward_induction, extract_open_loop
from famsched.instance import ClassParams, Instance, horizon_upper_bound, save_instance, validate_instance
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
    for jobs, seed, message in [
        ((3, 3), True, "seed must be an integer, got True"),
        ((3, 3), 3.0, "seed must be an integer, got 3.0"),
        ((3, 3), "3", "seed must be an integer, got '3'"),
        ((True, 2), 0, "jobs[0] must be an integer, got True"),
        ((3, 2.0), 0, "jobs[1] must be an integer, got 2.0"),
        (("3", 2), 0, "jobs[0] must be an integer, got '3'"),
    ]:
        with pytest.raises(ValueError) as err:
            GenParams(jobs=jobs, seed=seed)
        assert str(err.value) == message


def test_param_integers_stored_as_python_ints():
    # a numpy integer is read by its value, so the metadata serializes
    params = GenParams(jobs=[np.int64(3), np.int32(2)], seed=np.int64(3))
    assert params == GenParams(jobs=(3, 2), seed=3)
    assert type(params.seed) is int and all(type(n) is int for n in params.jobs)
    inst = generate(params)
    assert inst == generate(GenParams(jobs=(3, 2), seed=3))
    doc = json.loads(save_instance(inst, metadata=params.metadata()))
    assert doc["metadata"] == {"generator": "numpy-default_rng", "seed": 3, "jobs": [3, 2]}


DRAW_RANGES = (bench.PT_NOM_RANGE, bench.PT_LOW_RANGE, bench.DD_STEP_RANGE, bench.ST_RANGE,
               bench.SC_RANGE, bench.ALPHA_RANGE, bench.BETA_RANGE)


@pytest.mark.parametrize("seeds", [range(200), [2**32 - 1, 2**32, 2**40 + 5, 2**64 + 7, 10**30]],
                         ids=["small", "large"])
def test_stream_matches_numpy(seeds):
    # generate's pure-Python stream is numpy's default_rng(seed).uniform,
    # draw for draw, over every range generate draws from
    for seed in seeds:
        ours, theirs = bench._uniform(seed), np.random.default_rng(seed)
        for i in range(70):
            a, b = DRAW_RANGES[i % len(DRAW_RANGES)]
            want = theirs.uniform(a, b)
            assert ours(a, b) == want, (seed, i)


# sha256 of ``famsched generate --jobs JOBS --seed SEED`` stdout, recorded
# while generate still drew from numpy itself.
GENERATE_SHA256 = {
    ("5,5", 42): "304b6d43b22fa5a45e1dc85a6fc76e0ee18524e08ff0fd289b09ec7229a96e90",
    ("1,39", 0): "7d2bbbacad0177288f48bfe3a4b21523321c00e93f119311cb22b1e22a310c71",
    ("4,4,3", 14): "a5b0596c36edcc211df387afee7c701d23a77e383c571c9c4ce20cbf2c2f8d0d",
    ("10,10,10", 1): "48444ca16eaceaebc19567a48a4bc0e7e9e0c12914f5460518481244b987139f",
    ("2,2,2,2", 2**40): "e14acc2fb36764cf1b4ad82d2626b4b3f8954f2fbd5ee027309b66843c5e501f",
}


@pytest.mark.parametrize("jobs,seed", sorted(GENERATE_SHA256))
def test_generate_output_unchanged(capsys, jobs, seed):
    assert main(["generate", "--jobs", jobs, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATE_SHA256[(jobs, seed)]


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


def _degenerate(case):
    """A small generated instance with degenerate classes, setups and scales:
    every case has gamma in {0.5, 1, 2, 3}, and one of an incompressible
    class, beta = 0 with an alpha of 0, due dates of 0, due dates past the
    horizon, zero setups, or none; a quarter of the cases each scale costs by
    2^10, time by 2^-10, or costs by 2^-10 and time by 2^10."""
    rng = random.Random(case)
    inst = generate(GenParams(jobs=((2, 2), (3, 2), (2, 2, 1), (1, 4))[case % 4], seed=900 + case))
    classes = [replace(cp, gamma=rng.choice((0.5, 1.0, 2.0, 3.0))) for cp in inst.classes]
    st, sc = inst.st, inst.sc
    k = rng.randrange(len(classes))
    cp = classes[k]
    kind = case % 6
    if kind == 0:
        classes[k] = replace(cp, pt_low=cp.pt_nom)
    elif kind == 1:
        classes[k] = replace(cp, beta=0.0, alpha=(0.0, *cp.alpha[1:]))
    elif kind == 2:
        classes[k] = replace(cp, dd=(0.0,) * cp.n_jobs)
    elif kind == 3:
        classes[k] = replace(cp, dd=tuple(d + horizon_upper_bound(inst) for d in cp.dd))
    elif kind == 4:
        st = sc = tuple((0.0,) * len(classes) for _ in classes)
    cost, time = ((1.0, 1.0), (2.0**10, 1.0), (1.0, 2.0**-10), (2.0**-10, 2.0**10))[case // 24 % 4]
    classes = [replace(cp, pt_nom=cp.pt_nom * time, pt_low=cp.pt_low * time, dd=tuple(d * time for d in cp.dd),
                       alpha=tuple(a * cost for a in cp.alpha), beta=cp.beta * cost) for cp in classes]
    return Instance(tuple(classes), tuple(tuple(v * time for v in row) for row in st),
                    tuple(tuple(v * cost for v in row) for row in sc))


def exact_sequence_cost(inst: Instance, order) -> float:
    """The oracle's exact pass, ``bench._append`` folded over a class list:
    its cost at X = 0 plus its negative-slope segments."""
    prefix = ((), 0.0, 0.0, [])
    for k in order:
        prefix = bench._append(inst, prefix, k)
    assert prefix[0] == tuple(order)
    return prefix[2] + sum(slope * length for slope, length in prefix[3] if slope < 0.0)


def test_prefix_step_matches_the_chain_on_every_class_list():
    # the oracle's exact pass, folded over a whole class list, gives the
    # cost of the fixed-sequence Pwl chain's plan
    lists = 0
    for case in range(96):
        inst = _degenerate(case)
        assert validate_instance(inst) == [], case
        classes = [k for k, n_k in enumerate(inst.jobs_per_class) for _ in range(n_k)]
        for order in sorted(set(permutations(classes))):
            got = exact_sequence_cost(inst, order)
            want = solve_sequence(inst, Sequence(order)).cost
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (case, order, got, want)
            lists += 1
    assert lists == 24 * (6 + 10 + 30 + 5)


def test_oracle_imports_no_solver_stage_code():
    # the oracle must not share the DP's Pwl layer or its stage transforms
    tree = ast.parse(Path(bench.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module or "" for node in imports if isinstance(node, ast.ImportFrom)}
    names = {alias.name for node in imports for alias in node.names}
    assert not {m for m in modules if m.split(".")[-1] == "pwl"}, modules
    assert "pwl" not in names
    stage_code = {"objective_lists", "stage_part", "stage_cost", "stage_objective", "stage_value", "serve",
                  "select_completion", "shift_table", "window_min_of", "envelope", "start_window"}
    assert not names & stage_code, names & stage_code


def _on_grid(inst: Instance, g: float) -> Instance:
    """``inst`` with every parameter rounded to a multiple of g."""
    def r(v: float) -> float:
        return round(v / g) * g

    classes = tuple(replace(cp, pt_nom=r(cp.pt_nom), pt_low=r(cp.pt_low), beta=r(cp.beta), gamma=r(cp.gamma),
                            alpha=tuple(map(r, cp.alpha)), dd=tuple(map(r, cp.dd))) for cp in inst.classes)
    return Instance(classes, tuple(tuple(map(r, row)) for row in inst.st),
                    tuple(tuple(map(r, row)) for row in inst.sc))


def _cost_scaled(inst: Instance, f: float) -> Instance:
    """``inst`` with alpha, beta and the setup costs times f."""
    classes = tuple(replace(cp, beta=cp.beta * f, alpha=tuple(a * f for a in cp.alpha)) for cp in inst.classes)
    return Instance(classes, inst.st, tuple(tuple(v * f for v in row) for row in inst.sc))


@pytest.mark.parametrize("s", [40, pytest.param(-30, marks=pytest.mark.xfail(
    strict=True, reason="the absolute TIE picks a worse list or plan at small cost scales (ROADMAP item 13)"))])
def test_oracle_and_dp_keep_the_optimum_at_cost_scale(s):
    # costs times 2^s scale the optimum by 2^s; one check over all 60
    # instances, since most of them pass at either scale
    insts = [_on_grid(generate(GenParams(jobs=shape, seed=seed)), g)
             for shape in ((2, 2), (3, 2), (2, 2, 2), (3, 3), (2, 1, 2)) for seed in range(6) for g in (1.0, 0.25)]
    missed = []
    for n, inst in enumerate(insts):
        assert validate_instance(inst) == [], n
        want = 2.0**s * brute_force_solve(inst).cost
        scaled = _cost_scaled(inst, 2.0**s)
        got = {"oracle": brute_force_solve(scaled).cost,
               "dp": extract_open_loop(scaled, backward_induction(scaled)).cost}
        missed += [(n, solver) for solver, cost in got.items() if abs(cost - want) > 1e-9 * abs(want)]
    assert missed == []


def test_brute_force_rejects_a_non_finite_cost(ex1):
    # validation rejects a NaN setup time; the oracle, called without it,
    # raises instead of ranking a NaN cost
    st = ((ex1.st[0][0], math.nan), ex1.st[1])
    with pytest.raises(ValueError):
        brute_force_solve(replace(ex1, st=st))


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
