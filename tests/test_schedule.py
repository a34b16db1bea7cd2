"""Timelines and exact fixed-sequence compression optimization."""

import itertools
import math
import random

import numpy as np
import pytest

from famsched.bench import GenParams, generate
from famsched.instance import ClassParams, Instance, start_window
from famsched.pwl import TOL, Pwl, shift_table, window_min_of
from famsched.schedule import (
    CompressionPlan,
    PlanBoundsError,
    Sequence,
    SequenceError,
    build_timeline,
    objective_lists,
    optimize_compressions,
    schedule_from_dict,
    schedule_to_dict,
    solve_sequence,
    stage_objective,
    stage_part,
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
from tests.pwl_helpers import dump_csv, hinge, slopes
from tests.test_bench import exact_sequence_cost
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


@pytest.mark.parametrize("order", [(0, 5), (0, -1)])
def test_sequence_class_range_checked(ex1, order):
    with pytest.raises(SequenceError, match="^stage 1: class index -?[0-9]+ out of range$"):
        Sequence(order).check(ex1)


@pytest.mark.parametrize("u", [((0.0,) * 4,), ((0.0,) * 4, (0.0,) * 2)], ids=["one-class", "short-row"])
def test_plan_shape_checked(ex1, u):
    with pytest.raises(PlanBoundsError, match="^plan shape does not match the instance$"):
        CompressionPlan(u).check(ex1)


@pytest.mark.parametrize("doc", [{}, {"order": [1]}, {"u": {}}, []])
def test_schedule_document_needs_order_and_u(ex1, doc):
    with pytest.raises(ValueError, match="^schedule document needs 'order' and 'u'$"):
        schedule_from_dict(ex1, doc)


def test_optimize_ex1_reproduces_published_plan(ex1):
    plan = optimize_compressions(ex1, EX1_SEQ)
    assert_table(plan.u, EX1_U)
    assert build_timeline(ex1, EX1_SEQ, plan).total_cost == pytest.approx(EX1_COST, abs=1e-9)


def test_optimize_no_pressure_single_job():
    inst = Instance(
        classes=(
            ClassParams(5.0, 3.0, 1.0, 1.0, (2.0,), (5.0,)),
            ClassParams(6.0, 4.0, 2.0, 1.0, (1.0,), (40.0,)),
        ),
        st=((0.0, 1.0), (1.0, 0.0)),
        sc=((0.0, 0.0), (0.0, 0.0)),
    )
    plan = optimize_compressions(inst, Sequence((0, 1)))
    assert build_timeline(inst, Sequence((0, 1)), plan).total_cost == pytest.approx(0.0, abs=1e-12)
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
    cost = solve_sequence(inst, seq).cost
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
    cost = solve_sequence(inst, seq).cost
    grids = [np.linspace(0.0, 2.0, 201)] * 2
    assert cost == pytest.approx(lattice_cost(inst, seq, grids), abs=1e-6)


def test_optimum_is_lower_bound_over_sampled_plans():
    rng = random.Random(11)
    inst = generate(GenParams(jobs=(2, 2), seed=21))
    seq = Sequence((0, 1, 1, 0))
    cost = solve_sequence(inst, seq).cost
    for _ in range(300):
        u = tuple(
            tuple(rng.uniform(0.0, cp.u_max) for _ in range(cp.n_jobs))
            for cp in inst.classes
        )
        tl = build_timeline(inst, seq, CompressionPlan(u))
        assert tl.total_cost >= cost - 1e-9


def test_every_start_lies_in_its_window():
    # any sequence and any plan, not only optimal ones: the time at which the
    # job after counts c starts (the last completion once every job is done)
    # lies in start_window(inst, c), the domain on which the chain, the oracle
    # and the DP build their stage functions
    rng = random.Random(23)
    for jobs in ((3, 2), (2, 2, 2), (4, 1, 3), (1, 5), (2, 2, 1, 2)):
        for seed in range(4):
            inst = generate(GenParams(jobs=jobs, seed=seed))
            for _ in range(25):
                order = [k for k, n in enumerate(jobs) for _ in range(n)]
                rng.shuffle(order)
                seq = Sequence(tuple(order))
                u = tuple(tuple(rng.choice((0.0, cp.u_max, rng.uniform(0.0, cp.u_max)))
                                for _ in range(cp.n_jobs)) for cp in inst.classes)
                tl = build_timeline(inst, seq, CompressionPlan(u))
                counts = [0] * len(jobs)
                times = []
                for job in seq.stages(inst):
                    times.append((tuple(counts), tl.start[job.cls][job.idx]))
                    counts[job.cls] += 1
                times.append((tuple(counts), tl.completion[job.cls][job.idx]))
                for c, t in times:
                    lo, hi = start_window(inst, c)
                    slack = TOL * max(1.0, hi)
                    assert lo - slack <= t <= hi + slack, (jobs, seed, order, c)


def test_round_trip_cost_identity():
    for seed in range(8):
        inst = generate(GenParams(jobs=(2, 3), seed=seed))
        seq = Sequence((1, 0, 1, 1, 0))
        want = exact_sequence_cost(inst, seq.order)
        got = build_timeline(inst, seq, optimize_compressions(inst, seq)).total_cost
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (seed, got, want)


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
    plan = optimize_compressions(rigid, Sequence((0, 1, 0, 1)))
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

        # the point form: stage_part's constants plus obj's minimum over the
        # decision window give the stage value at t
        top = high - st - pt_nom  # latest start whose decision window fits in [0, high]
        if top <= 0.0:
            continue
        value = stage_value(obj.window_min(pt_nom - pt_low), cp, st, sc, 0.0, top)
        for t in [0.0, top] + [rng.uniform(0.0, top) for _ in range(5)]:
            v = value.value_at(t)
            _, slope, intercept = stage_part(cp, st, sc)
            got = intercept + slope * t + obj.min_over(t + st + pt_low, t + st + pt_nom)
            assert abs(got - v) <= TOL * max(1.0, abs(v)), (n, t)


def test_part_objective_matches_two_step():
    """The stage objective of the successor's part, built in one construction
    from ``objective_lists`` of the part's ``shift_table``, gives the bits of
    shifting first and adding the hinge second wherever the shift's merge
    keeps every breakpoint, and agrees within the ordinate tolerance
    elsewhere."""
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
        grid, (vals,) = shift_table((part,), low, high)
        alpha = 0.0 if n % 6 == 0 else rng.uniform(0.5, 2.5)
        dd = {
            1: rng.choice((low, rng.uniform(0.0, low))),  # at or before the domain's start
            2: rng.choice((high, high + rng.uniform(0.0, high))),  # at or after its end
            3: rng.choice(grid),  # on a grid point, the ends included
        }.get(n % 6, rng.uniform(low, high))
        cp = ClassParams(pt_nom=3.0, pt_low=1.0, beta=beta, gamma=1.0, alpha=(alpha,), dd=(dd,))
        shifted = f.shift(delta, low, high, part[2], part[3])
        got = Pwl(*objective_lists(list(grid), vals, cp, 0))
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


def with_near_collinear_point(rng: random.Random, f: Pwl) -> Pwl:
    """f with one more breakpoint inside a segment, off it by a few times the
    ordinate tolerance: f keeps it, and a merge at larger ordinates drops it."""
    k = rng.randrange(len(f.xs) - 1)
    x = (f.xs[k] + f.xs[k + 1]) / 2
    y = f.value_at(x)
    y += rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 20.0) * TOL * max(1.0, abs(y))
    g = Pwl(f.xs[:k + 1] + (x,) + f.xs[k + 1:], f.ys[:k + 1] + (y,) + f.ys[k + 1:])
    assert len(g) == len(f) + 1
    return g


def with_one_ulp_bump(rng: random.Random, high: float) -> Pwl:
    """Down to a minimum and up again, but one ulp up on the way down: not
    quasiconvex, by less than any tolerance."""
    xs = [0.0, *sorted({rng.uniform(0.0, high) for _ in range(rng.randint(4, 12))}), high]
    i = rng.randint(2, len(xs) - 2)  # the minimum
    ys = sorted((rng.uniform(-5.0, 10.0) for _ in range(i)), reverse=True) + [-6.0]
    ys += sorted(rng.uniform(-5.0, 10.0) for _ in range(len(xs) - i - 1))
    j = rng.randrange(i - 1)
    ys[j + 1] = math.nextafter(ys[j], math.inf)
    f = Pwl(xs, ys)
    assert list(f.ys) == ys
    return f


def test_windowed_transforms_match_two_step(monkeypatch):
    """``window_min_of`` windows a stage objective's ``objective_lists``
    before the merge, from a stored cost-to-go as the DP does and from a
    part's ``shift_table`` as the chain and the oracle do.  It gives the bits
    of building the objective and then windowing it wherever the merge drops
    nothing, including every list that takes the scan.  Where the merge drops
    a near-collinear point or a knee within the abscissa tolerance of a
    breakpoint, it has the same breakpoint count, and breakpoints within
    the objective's tolerances: TOL * max(1, b) apart, and values TOL *
    max(1, |y|) apart for y the objective's largest ordinate, plus the
    slope times the abscissa difference."""
    swept = []
    sweep = Pwl._window_sweep
    monkeypatch.setattr(Pwl, "_window_sweep", lambda f, w: swept.append(w) or sweep(f, w))

    def compare(raw, w) -> str:
        n = len(swept)
        got = window_min_of(*raw, w)
        fused_sweeps = len(swept) - n
        built = Pwl(*raw)
        want = built.window_min(w)
        if fused_sweeps:  # the fallback constructs the lists and windows them as they are
            assert len(swept) - n == 2 * fused_sweeps == 2
            assert_same_bits(got, want)
            return "swept"
        if list(built.xs) == raw[0] and list(built.ys) == raw[1]:
            assert_same_bits(got, want)
            return "kept"
        # the merge moves a breakpoint by at most the objective's abscissa
        # tolerance, and a value by at most its ordinate tolerance, which the
        # window minimum carries over from the objective's largest ordinates;
        # a breakpoint moved along a segment moves its value by the slope too
        xtol = TOL * max(1.0, raw[0][-1])
        ytol = TOL * max(1.0, max(map(abs, raw[1])))
        steep = max(map(abs, slopes(want)), default=0.0)
        assert len(got) == len(want)
        for x, y, rx, ry in zip(got.xs, got.ys, want.xs, want.ys):
            assert abs(x - rx) <= xtol, (x, rx)
            assert abs(y - ry) <= ytol + steep * abs(x - rx), (x, y, ry)
        return "merged"

    rng = random.Random(25)
    seen = {"swept": 0, "kept": 0, "merged": 0}
    for n in range(800):
        high = rng.choice((7.5, 30.0, 500.0))
        case = n % 5
        if case == 0:
            f = random_convex_pwl(rng, high, rng.randint(2, 30))
        elif case == 1:
            f = with_near_collinear_point(rng, random_convex_pwl(rng, high, rng.randint(2, 30)))
        elif case == 2:
            f = random_stage_function(rng, n, high)
        else:
            f = with_one_ulp_bump(rng, high) if case == 3 else random_convex_pwl(rng, high, 8)
        bumped = case == 3  # zero alpha, beta and shift keep the bump in the lists
        alpha = 0.0 if bumped or n % 7 == 0 else rng.uniform(0.5, 2.5)
        beta = 0.0 if bumped or n % 4 == 0 else rng.uniform(0.5, 2.5)
        if case == 4:  # a knee within the abscissa tolerance of a breakpoint, the ends included
            dd = rng.choice(f.xs) + rng.uniform(-1.0, 1.0) * TOL * max(1.0, high)
        else:
            dd = rng.uniform(0.0, 1.2 * high)
        pt_low = rng.uniform(0.5, 3.0)
        w = 0.0 if n % 50 == 0 else rng.uniform(0.02, 0.95) * high
        cp = ClassParams(pt_nom=pt_low + w, pt_low=pt_low, beta=beta, gamma=1.0,
                         alpha=(alpha,), dd=(dd,))
        w = cp.pt_nom - cp.pt_low
        raw = objective_lists(list(f.xs), list(f.ys), cp, 0)
        assert_same_bits(Pwl(*raw), stage_objective(f, cp, 0))
        seen[compare(raw, w)] += 1

        # a chain or oracle stage: the same draws, shifted into a stage's start window
        if bumped:
            part, low, top = (f, 0.0, 0.0, 0.0), 0.0, high
        else:
            low = rng.uniform(0.0, high / 4)
            top = low + high
            part = (f, rng.uniform(-0.5 * high, 0.5 * high), beta, rng.choice((0.0, 9.0, 4e3)))
        if w > top - low:
            continue
        xs, (ys,) = shift_table((part,), low, top)
        seen[compare(objective_lists(xs, ys, cp, 0), w)] += 1
    assert seen["swept"] > 300 and seen["kept"] > 300 and seen["merged"] > 100, seen


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_windowed_transforms_reject_non_finite_input(bad):
    # with w = 1.5 the closed form on [0, 1, 2] reads only the minimum and
    # the end it reaches, so a value it skips must still be rejected
    for i, w in itertools.product(range(3), (0.5, 1.5)):
        xs, ys = [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]
        xs[i] = bad
        with pytest.raises(ValueError):
            window_min_of(xs, [1.0, 0.0, 1.0], w)
        ys[i] = bad
        with pytest.raises(ValueError):
            window_min_of([0.0, 1.0, 2.0], ys, w)
    # a non-finite weight, or a successor part with a non-finite intercept,
    # reaches window_min_of through objective_lists
    cp = ClassParams(pt_nom=1.5, pt_low=1.0, beta=1.0, gamma=1.0, alpha=(bad,), dd=(0.5,))
    with pytest.raises(ValueError):
        window_min_of(*objective_lists([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], cp, 0), 0.5)
    cp = ClassParams(pt_nom=1.5, pt_low=1.0, beta=1.0, gamma=1.0, alpha=(1.0,), dd=(0.5,))
    f = Pwl((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
    xs, (ys,) = shift_table(((f, 0.0, 0.0, bad),), 0.0, 2.0)
    with pytest.raises(ValueError):
        window_min_of(*objective_lists(xs, ys, cp, 0), 0.5)
