"""Timelines and exact fixed-sequence compression optimization."""

import random

import numpy as np
import pytest

from famsched.bench import GenParams, generate
from famsched.instance import ClassParams, Instance
from famsched.pwl import TOL, Pwl, shift_table
from famsched.schedule import (
    CompressionPlan,
    PlanBoundsError,
    Sequence,
    SequenceError,
    build_timeline,
    optimize_compressions,
    part_objective,
    schedule_from_dict,
    schedule_to_dict,
    solve_sequence,
    stage_cost,
    stage_objective,
    stage_value,
)
from tests.conftest import (
    EX1_COST,
    EX1_LA,
    EX1_OM,
    EX1_ORDER_1BASED,
    EX1_PT,
    EX1_S,
    EX1_T,
    EX1_U,
)
from tests.pwl_helpers import dump_csv, hinge
from tests.test_pwl import random_convex_pwl, random_pwl

EX1_SEQ = Sequence.from_1based(EX1_ORDER_1BASED)


def assert_table(got, want, tol=1e-9):
    for g_row, w_row in zip(got, want):
        assert g_row == pytest.approx(w_row, abs=tol)


def test_ex1_golden_timeline(ex1):
    tl = build_timeline(ex1, EX1_SEQ, CompressionPlan(EX1_U))
    assert_table(tl.start, EX1_S)
    assert_table(tl.proc, EX1_PT)
    assert_table(tl.tardiness, EX1_T)
    assert_table(tl.setup_cost, EX1_OM)
    assert_table(tl.setup_time, EX1_LA)
    assert tl.total_cost == pytest.approx(EX1_COST, abs=1e-9)


def test_single_job_timeline():
    inst = Instance(
        classes=(
            ClassParams(5.0, 3.0, 1.0, 1.0, (2.0,), (4.0,)),
            ClassParams(6.0, 4.0, 1.0, 1.0, (1.0,), (30.0,)),
        ),
        st=((0.0, 1.0), (1.0, 0.0)),
        sc=((0.0, 1.0), (1.0, 0.0)),
    )
    tl = build_timeline(inst, Sequence((0, 1)), CompressionPlan.zero(inst))
    assert tl.start[0][0] == 0.0
    assert tl.setup_time[0][0] == 0.0
    assert tl.proc[0][0] == 5.0
    assert tl.tardiness[0][0] == pytest.approx(1.0)  # max(5 - 4, 0)


def test_ex1_uncompressed_hand_recursion(ex1):
    # forward recursion with u = 0 recomputed by hand:
    # completions 6, 12, 20.5, 28.5, 36.5, 43.5, 52 and tardiness
    # 1.5, 4.5, 7.5 (class 1 jobs 1-3), 11 (job 4), 5.5 (job (2,3));
    # cost = 0.75*1.5 + 0.5*4.5 + 1.5*7.5 + 0.5*11 + 1*5.5 + setups 2.5
    tl = build_timeline(ex1, EX1_SEQ, CompressionPlan.zero(ex1))
    assert_table(tl.start, ((12.0, 20.5, 28.5, 43.5), (0.0, 6.0, 36.5)))
    assert tl.total_cost == pytest.approx(28.125, abs=1e-9)


def test_plan_bounds_reported(ex1):
    bad = CompressionPlan(((0.0, 0.0, 0.0, 4.5), (0.0, 0.0, 0.0)))
    with pytest.raises(PlanBoundsError, match=r"u\[1\]\[4\]"):
        build_timeline(ex1, EX1_SEQ, bad)


def test_sequence_multiplicity_checked(ex1):
    with pytest.raises(SequenceError):
        build_timeline(ex1, Sequence((0, 0, 0, 0, 1, 1, 1, 1)), CompressionPlan.zero(ex1))


def test_optimize_ex1_reproduces_published_plan(ex1):
    plan, cost = optimize_compressions(ex1, EX1_SEQ)
    assert cost == pytest.approx(EX1_COST, abs=1e-9)
    assert_table(plan.u, EX1_U)
    tl = build_timeline(ex1, EX1_SEQ, plan)
    assert tl.total_cost == pytest.approx(cost, abs=1e-9)


def test_optimize_no_pressure_single_job():
    inst = Instance(
        classes=(
            ClassParams(5.0, 3.0, 1.0, 1.0, (2.0,), (5.0,)),
            ClassParams(6.0, 4.0, 2.0, 1.0, (1.0,), (40.0,)),
        ),
        st=((0.0, 1.0), (1.0, 0.0)),
        sc=((0.0, 0.0), (0.0, 0.0)),
    )
    plan, cost = optimize_compressions(inst, Sequence((0, 1)))
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert plan.u == ((0.0,), (0.0,))


def lattice_cost(inst, seq, grids):
    """Vectorized cost over a full lattice of compression plans."""
    jobs = seq.stages(inst)
    shape = tuple(len(g) for g in grids)
    mesh = np.meshgrid(*grids, indexing="ij")
    t = np.zeros(shape)
    cost = np.zeros(shape)
    for job, u in zip(jobs, mesh):
        cp = inst.classes[job.cls]
        c = t + job.st + cp.pt_nom - cp.gamma * u
        cost += cp.alpha[job.idx] * np.maximum(c - cp.dd[job.idx], 0.0)
        cost += cp.beta * cp.gamma * u
        cost += job.sc
        t = c
    return cost.min()


def test_optimize_matches_lattice_oracle():
    # one-decimal data keeps the optimum on the 0.05 lattice
    inst = Instance(
        classes=(
            ClassParams(4.0, 3.0, 0.6, 1.0, (1.2, 0.8), (3.5, 8.0)),
            ClassParams(5.0, 4.0, 0.5, 1.0, (0.9, 1.1), (7.0, 12.5)),
        ),
        st=((0.0, 0.5), (0.7, 0.0)),
        sc=((0.0, 0.4), (0.3, 0.0)),
    )
    seq = Sequence((0, 1, 0, 1))
    plan, cost = optimize_compressions(inst, seq)
    grids = [np.linspace(0.0, 1.0, 21)] * 4
    best = lattice_cost(inst, seq, grids)
    assert cost == pytest.approx(best, abs=1e-6)
    assert cost <= best + 1e-9


def test_optimize_matches_fine_lattice_two_jobs():
    inst = Instance(
        classes=(
            ClassParams(6.0, 4.0, 0.3, 1.0, (1.5,), (5.0,)),
            ClassParams(5.0, 3.0, 0.8, 1.0, (0.7,), (9.0,)),
        ),
        st=((0.0, 1.0), (1.0, 0.0)),
        sc=((0.0, 0.2), (0.2, 0.0)),
    )
    seq = Sequence((0, 1))
    plan, cost = optimize_compressions(inst, seq)
    grids = [np.linspace(0.0, 2.0, 201)] * 2
    assert cost == pytest.approx(lattice_cost(inst, seq, grids), abs=1e-6)


def test_optimum_is_lower_bound_over_sampled_plans():
    rng = random.Random(11)
    inst = generate(GenParams(jobs=(2, 2), seed=21))
    seq = Sequence((0, 1, 1, 0))
    _, cost = optimize_compressions(inst, seq)
    for _ in range(300):
        u = tuple(
            tuple(rng.uniform(0.0, cp.u_max) for _ in range(cp.n_jobs))
            for cp in inst.classes
        )
        tl = build_timeline(inst, seq, CompressionPlan(u))
        assert tl.total_cost >= cost - 1e-9


def test_round_trip_cost_identity():
    for seed in range(8):
        inst = generate(GenParams(jobs=(2, 3), seed=seed))
        seq = Sequence((1, 0, 1, 1, 0))
        plan, cost = optimize_compressions(inst, seq)
        tl = build_timeline(inst, seq, plan)
        assert tl.total_cost == pytest.approx(cost, abs=1e-9)


def test_edd_forcing_within_class(ex1):
    tl = build_timeline(ex1, EX1_SEQ, CompressionPlan(EX1_U))
    for starts in tl.start:
        assert all(a < b for a, b in zip(starts, starts[1:]))


def test_no_headroom_means_no_compression():
    inst = generate(GenParams(jobs=(2, 2), seed=3))
    rigid = Instance(
        classes=tuple(
            ClassParams(cp.pt_nom, cp.pt_nom, cp.beta, cp.gamma, cp.alpha, cp.dd)
            for cp in inst.classes
        ),
        st=inst.st,
        sc=inst.sc,
    )
    plan, _ = optimize_compressions(rigid, Sequence((0, 1, 0, 1)))
    assert all(v == 0.0 for row in plan.u for v in row)


def test_schedule_json_round_trip(ex1):
    sched = solve_sequence(ex1, EX1_SEQ)
    doc = schedule_to_dict(ex1, sched)
    assert doc["order"] == EX1_ORDER_1BASED
    assert doc["timeline"]["total_cost"] == pytest.approx(EX1_COST)
    again = schedule_from_dict(ex1, {"order": doc["order"], "u": doc["u"]})
    assert again.plan == sched.plan
    assert again.timeline.total_cost == pytest.approx(sched.timeline.total_cost)


def random_stage_function(rng: random.Random, n: int, high: float) -> Pwl:
    """Convex, random, or {-0.0, 0.0, 1.0}-valued function on [0, high]."""
    segments = rng.randint(2, 30)
    if n % 3 == 0:
        return random_convex_pwl(rng, high, segments)
    f = random_pwl(rng, high, segments)
    if n % 3 == 1:
        return f
    return Pwl(f.xs, [rng.choice((-0.0, 0.0, 1.0)) for _ in f.xs])


def assert_same_bits(got: Pwl, want: Pwl):
    assert got.xs == want.xs and got.ys == want.ys
    assert dump_csv(got) == dump_csv(want)  # repr-level: tells -0.0 from 0.0


def test_fused_stage_transforms_match_two_step():
    """One construction per transform gives the breakpoints and values of
    building the sum first and adding the affine term second."""
    rng = random.Random(15)
    for n in range(300):
        high = rng.choice((7.5, 30.0, 500.0))
        beta = 0.0 if n % 4 == 0 else rng.uniform(0.5, 2.5)
        f = random_stage_function(rng, n, high)
        alpha = rng.choice((0.0, rng.uniform(0.5, 2.5)))
        dd = rng.uniform(0.0, 1.2 * high)
        tardiness = hinge(alpha, dd, 0.0, high)
        grid = sorted(set(f.xs) | set(tardiness.xs))
        summed = Pwl(grid, [f.value_at(x) + tardiness.value_at(x) for x in grid])
        pt_low = rng.uniform(0.5, 3.0)
        pt_nom = pt_low + rng.uniform(0.0, 3.0)
        cp = ClassParams(pt_nom=pt_nom, pt_low=pt_low, beta=beta, gamma=1.0, alpha=(alpha,), dd=(dd,))
        obj = stage_objective(f, cp, 0)
        assert_same_bits(obj, summed.add_affine(-beta, 0.0))

        st = rng.choice((0.0, rng.uniform(0.5, 3.0)))
        sc = rng.choice((0.0, rng.uniform(0.5, 3.0)))
        windowed = random_stage_function(rng, n, high - (pt_nom - pt_low))
        shifted = windowed.shift(st + pt_low, 0.0, high)
        want = shifted.add_affine(beta, sc + beta * (pt_nom + st))
        assert_same_bits(stage_value(windowed, cp, st, sc, 0.0, high), want)

        # the point form: stage_cost at t is the stage value of obj's window minimum at t
        top = high - st - pt_nom  # latest start whose decision window fits in [0, high]
        if top <= 0.0:
            continue
        value = stage_value(obj.window_min(pt_nom - pt_low), cp, st, sc, 0.0, top)
        for t in [0.0, top] + [rng.uniform(0.0, top) for _ in range(5)]:
            v = value.value_at(t)
            assert abs(stage_cost(obj, cp, t, st, sc) - v) <= TOL * max(1.0, abs(v)), (n, t)


def test_part_objective_matches_two_step():
    """The stage objective built from the successor's part in one construction
    gives the bits of shifting first and adding the hinge second wherever the
    shift's merge keeps every breakpoint, and agrees within the ordinate
    tolerance elsewhere."""
    rng = random.Random(18)
    kept = merged = 0
    for n in range(600):
        high = rng.choice((7.5, 30.0, 500.0))
        low = 0.0 if n % 2 else rng.uniform(0.0, high / 4)
        span = rng.uniform(0.3, 1.2) * (high - low)
        f = random_stage_function(rng, n, span)
        if n % 5 == 0:  # clamped at both ends (a flat shift if f's domain is too wide)
            delta = rng.uniform(span - high, -low) if span < high - low else -low - 1.0
        else:
            delta = rng.uniform(-0.5 * high, 0.5 * high)
        beta = 0.0 if n % 4 == 0 else rng.uniform(0.5, 2.5)
        part = (f, delta, beta, rng.choice((0.0, rng.uniform(0.5, 9.0))))
        grid, _ = shift_table((part,), low, high)
        alpha = 0.0 if n % 6 == 0 else rng.uniform(0.5, 2.5)
        dd = {
            1: rng.choice((low, rng.uniform(0.0, low))),  # at or before the domain's start
            2: rng.choice((high, high + rng.uniform(0.0, high))),  # at or after its end
            3: rng.choice(grid),  # on a grid point, the ends included
        }.get(n % 6, rng.uniform(low, high))
        cp = ClassParams(pt_nom=3.0, pt_low=1.0, beta=beta, gamma=1.0, alpha=(alpha,), dd=(dd,))
        shifted = f.shift(delta, low, high, part[2], part[3])
        got = part_objective(part, cp, 0, low, high)
        want = stage_objective(shifted, cp, 0)
        if list(shifted.xs) == grid:
            assert_same_bits(got, want)
            kept += 1
        else:
            for x in sorted(set(got.xs) | set(want.xs)):
                y = want.value_at(x)
                assert abs(got.value_at(x) - y) <= TOL * max(1.0, abs(y)), (n, x)
            merged += 1
    assert kept > 300 and merged > 50, (kept, merged)
