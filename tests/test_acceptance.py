"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time

import numpy as np
import pytest

from famsched.bench import GenParams, brute_force_solve, generate
from famsched.dp import backward_induction, count_states, extract_open_loop
from famsched.instance import ClassParams, Instance
from famsched.milp import build_model, build_model1, check_assignment, encode_schedule, size_report
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
from tests.pwl_helpers import is_convex
from tests.test_pwl import random_convex_pwl, random_pwl, window_min_oracle


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {text}")
                raise
            print(f"\nACCEPTANCE {num}: PASS - {text}")
            return result

        return wrapper

    return deco


def uniform_instance(jobs):
    classes = tuple(
        ClassParams(8.0, 4.0, 1.0, 1.0, (1.0,) * n, tuple(10.0 + i for i in range(n)))
        for n in jobs
    )
    k = len(jobs)
    st = tuple(tuple(0.0 if h == m else 1.0 for m in range(k)) for h in range(k))
    return Instance(classes, st, st)


@criterion(1, "golden worked example: cost, sequence, compressions, timeline, < 1 s")
def test_criterion_1_golden_example(ex1):
    t0 = time.perf_counter()
    vt = backward_induction(ex1)
    dp_sched = extract_open_loop(ex1, vt)
    enum_sched = brute_force_solve(ex1)
    elapsed = time.perf_counter() - t0

    for sched in (dp_sched, enum_sched):
        assert abs(sched.cost - EX1_COST) <= 1e-6
        assert sched.sequence.to_1based() == EX1_ORDER_1BASED
        for got, want in zip(sched.plan.u, EX1_U):
            assert got == pytest.approx(want, abs=1e-6)
    assert abs(vt.optimal_cost() - EX1_COST) <= 1e-6

    tl = dp_sched.timeline
    for got, want in (
        (tl.start, EX1_S),
        (tl.proc, EX1_PT),
        (tl.tardiness, EX1_T),
        (tl.setup_cost, EX1_OM),
        (tl.setup_time, EX1_LA),
    ):
        for g_row, w_row in zip(got, want):
            assert g_row == pytest.approx(w_row, abs=1e-9)
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(2, "state-space node counts match the published tables exactly")
def test_criterion_2_state_counts():
    expected = {
        (5, 5): 61,
        (10, 10): 221,
        (15, 15): 481,
        (20, 20): 841,
        (5, 5, 5): 541,
        (10, 10, 10): 3631,
        (5, 5, 5, 5): 4321,
    }
    for jobs, want in expected.items():
        assert count_states(uniform_instance(jobs)) == want, jobs


@criterion(3, "model sizes: binaries and other-variables exact, constraints within 1%")
def test_criterion_3_model_sizes():
    table = {
        (5, 5): (200, 61, 1227),
        (10, 10): (800, 121, 8757),
        (15, 15): (1800, 181, 28587),
        (5, 5, 5): (450, 91, 3790),
    }
    for jobs, (binaries, others, constraints) in table.items():
        inst = uniform_instance(jobs)
        rep = size_report(build_model1(inst))
        assert rep.binary_count == binaries, jobs
        assert rep.other_count == others, jobs
        assert abs(rep.constraint_count - constraints) <= 0.01 * constraints, jobs
        assert rep.constraint_count == constraints, jobs  # exact under the documented convention
        assert "objective auxiliary" in rep.convention
        n = sum(jobs)
        assert size_report(build_model(inst, 2)).binary_count == n * n
        assert size_report(build_model(inst, 3)).binary_count == n * n


@criterion(4, "cross-model certificates on the example and 50 seeded instances, < 30 s")
def test_criterion_4_cross_model_certificates(ex1):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    cases = [ex1]
    while len(cases) < 51:
        k = rng.choice((2, 3))
        jobs = tuple(rng.randint(1, 3) for _ in range(k))
        cases.append(generate(GenParams(jobs=jobs, seed=40_000 + len(cases))))
    for idx, inst in enumerate(cases):
        vt = backward_induction(inst)
        sched = extract_open_loop(inst, vt)
        for which in (1, 2, 3):
            model = build_model(inst, which)
            report = check_assignment(model, encode_schedule(inst, sched, model))
            assert report.ok, (idx, which, report.violations[:3])
            assert abs(report.objective - vt.optimal_cost()) <= 1e-6, (idx, which)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(5, "oracle equivalence on 100 seeded instances with at most 8 jobs, < 60 s")
def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
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
        enum_cost = brute_force_solve(inst).cost
        assert abs(dp_cost - enum_cost) <= 1e-6, (jobs, inst)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@criterion(6, "piecewise-linear ops agree with grid oracles on 200 random functions")
def test_criterion_6_pwl_properties():
    rng = random.Random(31337)
    grid_n = 1000
    for trial in range(200):
        high = rng.uniform(10.0, 40.0)
        f = random_pwl(rng, high, rng.randint(3, 7))
        g = random_pwl(rng, high, rng.randint(3, 7))
        added = f.add(g)
        mined = f.pointwise_min(g)
        w = rng.uniform(0.0, high / 3)
        wm = f.window_min(w)
        for i in range(0, grid_n, 7):  # ~143 probe points per function pair
            t = high * i / (grid_n - 1)
            assert abs(added.value_at(t) - (f.value_at(t) + g.value_at(t))) <= 1e-6
            assert abs(mined.value_at(t) - min(f.value_at(t), g.value_at(t))) <= 1e-6
            x = wm.high * i / (grid_n - 1)
            assert abs(wm.value_at(x) - window_min_oracle(f, x, w)) <= 1e-6
        # monotone in window width
        w2 = w + rng.uniform(0.0, high / 3)
        wm2 = f.window_min(w2)
        for i in range(0, grid_n, 19):
            x = wm2.high * i / (grid_n - 1)
            assert wm2.value_at(x) <= wm.value_at(x) + 1e-9
        # window_min preserves convexity
        cf = random_convex_pwl(rng, high, rng.randint(3, 6))
        assert is_convex(cf.window_min(w))


@criterion(7, "generator conformance: 10^4 samples per parameter inside stated ranges")
def test_criterion_7_generator_conformance():
    pt_nom, pt_low, beta = [], [], []
    alpha, dd_steps, st_off, sc_off = [], [], [], []
    seed = 90_000
    # the scarcest bucket gets 4 samples per instance
    while len(pt_nom) < 10_000:
        inst = generate(GenParams(jobs=(3, 3, 3, 3), seed=seed))
        seed += 1
        for cp in inst.classes:
            pt_nom.append(cp.pt_nom)
            pt_low.append(cp.pt_low)
            beta.append(cp.beta)
            alpha.extend(cp.alpha)
            prev = 10.0
            for d in cp.dd:
                dd_steps.append(d - prev)
                prev = d
        for h in range(4):
            for k in range(4):
                if h == k:
                    assert inst.st[h][k] == 0.0
                    assert inst.sc[h][k] == 0.0
                else:
                    st_off.append(inst.st[h][k])
                    sc_off.append(inst.sc[h][k])
    for values, lo, hi in (
        (pt_nom, 6.0, 10.0),
        (pt_low, 2.0, 6.0),
        (beta, 0.5, 2.5),
        (alpha, 0.5, 2.5),
        (dd_steps, 0.5, 12.0),
        (st_off, 1.0, 3.0),
        (sc_off, 0.5, 2.5),
    ):
        arr = np.asarray(values)
        assert len(arr) >= 10_000
        assert arr.min() >= lo and arr.max() <= hi
    assert np.all(np.asarray(pt_low) <= np.asarray(pt_nom) + 1e-12)


@criterion(8, "wall-clock timing tables and solver node counts are out of scope")
def test_criterion_8_exclusions_documented():
    # Hardware- and solver-bound measurements (solver wall-clock tables and
    # branch-and-bound node counts) are explicitly excluded deliverables;
    # elapsed-time fields in reports are informational only.
    readme = open("README.md", encoding="utf-8").read()
    assert "wall-clock" in readme.lower()
