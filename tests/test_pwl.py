"""Piecewise-linear algebra: frozen examples plus grid-oracle properties."""

import math
import random

import pytest

from famsched.pwl import TOL, DomainError, Pwl


def random_pwl(rng: random.Random, high: float, segments: int) -> Pwl:
    xs = sorted(rng.uniform(0.0, high) for _ in range(segments - 1))
    xs = [0.0] + xs + [high]
    ys = [rng.uniform(-10.0, 10.0) for _ in xs]
    return Pwl(xs, ys)


def random_convex_pwl(rng: random.Random, high: float, segments: int) -> Pwl:
    xs = sorted(set(round(rng.uniform(0.1, high - 0.1), 4) for _ in range(segments - 1)))
    xs = [0.0] + xs + [high]
    slopes = sorted(rng.uniform(-5.0, 5.0) for _ in range(len(xs) - 1))
    ys = [rng.uniform(-3.0, 3.0)]
    for i, s in enumerate(slopes):
        ys.append(ys[-1] + s * (xs[i + 1] - xs[i]))
    return Pwl(xs, ys)


# -- eval ----------------------------------------------------------------

def test_eval_hinge_tardiness_value():
    f = Pwl.hinge(0.5, 41.0, 56.0)
    assert f.value_at(44.5) == pytest.approx(1.75, abs=1e-12)


def test_eval_zero_function():
    z = Pwl.zero(10.0)
    for t in (0.0, 3.3, 10.0):
        assert z.value_at(t) == 0.0


def test_eval_flat_segment():
    f = Pwl((0.0, 10.0, 20.0), (0.0, 5.0, 5.0))
    assert f.value_at(15.0) == 5.0


def test_eval_outside_domain_rejected():
    f = Pwl.zero(10.0)
    with pytest.raises(DomainError):
        f.value_at(-1.0)
    with pytest.raises(DomainError):
        f.value_at(10.5)


# -- hinge ---------------------------------------------------------------

def test_hinge_definition():
    f = Pwl.hinge(2.0, 21.0, 56.0)
    assert f.value_at(21.0) == 0.0
    assert f.value_at(22.0) == pytest.approx(2.0)


def test_hinge_beyond_horizon_is_zero():
    f = Pwl.hinge(1.0, 100.0, 56.0)
    assert f == Pwl.zero(56.0)


def test_hinge_convex_nonnegative():
    f = Pwl.hinge(0.5, 41.0, 56.0)
    assert f.is_convex()
    assert all(y >= 0 for y in f.ys)
    assert f.value_at(10.0) == 0.0


# -- add / add_affine / shift ---------------------------------------------

def test_add_two_hinges():
    a = Pwl.hinge(1.0, 5.0, 10.0)
    assert a.add(a) == Pwl.hinge(2.0, 5.0, 10.0)


def test_add_affine():
    f = Pwl.zero(10.0).add_affine(2.0, 3.0)
    assert f.value_at(4.0) == pytest.approx(11.0)


def test_shift_translates_and_clamps():
    f = Pwl.hinge(1.0, 5.0, 10.0)
    g = f.shift(2.0)
    assert g.value_at(3.0) == 0.0
    assert g.value_at(4.0) == pytest.approx(1.0)
    assert g.value_at(9.0) == pytest.approx(f.value_at(10.0))  # clamped tail


def test_add_domain_mismatch():
    with pytest.raises(DomainError):
        Pwl.zero(10.0).add(Pwl.zero(12.0))


def test_add_grid_oracle():
    rng = random.Random(1)
    for _ in range(50):
        f = random_pwl(rng, 20.0, 5)
        g = random_pwl(rng, 20.0, 5)
        s = f.add(g)
        for i in range(200):
            t = 20.0 * i / 199
            assert s.value_at(t) == pytest.approx(f.value_at(t) + g.value_at(t), abs=1e-9)
        assert len(s) <= len(f) + len(g)


# -- pointwise_min ---------------------------------------------------------

def test_pointwise_min_idempotent():
    rng = random.Random(2)
    f = random_pwl(rng, 10.0, 6)
    assert f.pointwise_min(f) == f


def test_pointwise_min_crossing_lines():
    up = Pwl((0.0, 10.0), (0.0, 10.0))
    down = Pwl((0.0, 10.0), (10.0, 0.0))
    vee = up.pointwise_min(down)
    assert vee.xs == (0.0, 5.0, 10.0)
    assert vee.value_at(5.0) == pytest.approx(5.0)


def test_pointwise_min_grid_oracle():
    rng = random.Random(3)
    for _ in range(60):
        f = random_pwl(rng, 15.0, 5)
        g = random_pwl(rng, 15.0, 5)
        m = f.pointwise_min(g)
        for i in range(1000):
            t = 15.0 * i / 999
            assert m.value_at(t) == pytest.approx(min(f.value_at(t), g.value_at(t)), abs=1e-9)
        # breakpoint budget: union plus one per sign change of f - g
        grid = sorted(set(f.xs) | set(g.xs))
        diffs = [f.value_at(x) - g.value_at(x) for x in grid]
        crossings = sum(
            1 for a, b in zip(diffs, diffs[1:]) if (a > 0 > b) or (a < 0 < b)
        )
        assert len(m) <= len(f) + len(g) + crossings


# -- window_min -------------------------------------------------------------

def window_min_oracle(f: Pwl, x: float, w: float) -> float:
    """Brute-force window minimum: window edges, interior breakpoints, grid."""
    cand = [x, x + w] + [b for b in f.xs if x < b < x + w]
    cand += [x + w * i / 200 for i in range(201)]
    return min(f.value_at(min(c, f.high)) for c in cand)


def test_window_min_zero_width_is_identity():
    rng = random.Random(4)
    f = random_pwl(rng, 12.0, 6)
    assert f.window_min(0.0) == f


def test_window_min_vee_flat_valley():
    f = Pwl((0.0, 5.0, 10.0), (5.0, 0.0, 5.0))  # |s - 5|
    g = f.window_min(2.0)
    assert g.high == pytest.approx(8.0)
    for x, want in ((0.0, 3.0), (2.0, 1.0), (3.0, 0.0), (4.0, 0.0), (5.0, 0.0), (6.0, 1.0), (8.0, 3.0)):
        assert g.value_at(x) == pytest.approx(want, abs=1e-12)


def test_window_min_grid_oracle():
    rng = random.Random(5)
    for _ in range(40):
        f = random_pwl(rng, 30.0, 6)
        w = 1.7
        g = f.window_min(w)
        for i in range(500):
            x = (30.0 - w) * i / 499
            assert g.value_at(x) == pytest.approx(window_min_oracle(f, x, w), abs=1e-6)


def test_window_min_monotone_in_width():
    rng = random.Random(6)
    for _ in range(30):
        f = random_pwl(rng, 20.0, 7)
        w1, w2 = sorted((rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)))
        g1 = f.window_min(w1)
        g2 = f.window_min(w2)
        for i in range(300):
            x = g2.high * i / 299
            assert g2.value_at(x) <= g1.value_at(x) + 1e-9


def test_window_min_rejects_oversized_window():
    with pytest.raises(DomainError):
        Pwl.zero(5.0).window_min(6.0)


def test_window_min_convexity_preserved():
    rng = random.Random(7)
    for _ in range(40):
        f = random_convex_pwl(rng, 25.0, 6)
        assert f.window_min(3.0).is_convex()


def test_affine_ops_preserve_convexity():
    rng = random.Random(8)
    for _ in range(20):
        f = random_convex_pwl(rng, 25.0, 6)
        g = random_convex_pwl(rng, 25.0, 5)
        assert f.add(g).is_convex()
        assert f.add_affine(-2.0, 7.0).is_convex()
        # translation preserves convexity away from the clamped tail
        shifted = f.shift(3.0)
        inside = Pwl(
            [x for x in shifted.xs if x <= 22.0] + [22.0],
            [y for x, y in zip(shifted.xs, shifted.ys) if x <= 22.0] + [shifted.value_at(22.0)],
        )
        assert inside.is_convex()


# -- argmin -------------------------------------------------------------

def test_argmin_flat_right_valley():
    f = Pwl((0.0, 5.0, 10.0), (5.0, 0.0, 5.0))
    assert f.argmin_over(3.0, 5.0) == pytest.approx(5.0)


def test_argmin_constant_prefers_window_start():
    f = Pwl.constant(2.0, 10.0)
    assert f.argmin_over(3.5, 7.5) == pytest.approx(3.5)


def test_argmin_interior_minimum():
    f = Pwl((0.0, 5.0, 10.0), (5.0, 0.0, 5.0))
    assert f.argmin_over(4.0, 8.0) == pytest.approx(5.0)


def test_argmin_consistent_with_window_min():
    rng = random.Random(9)
    for _ in range(40):
        f = random_pwl(rng, 20.0, 6)
        w = rng.uniform(0.5, 5.0)
        g = f.window_min(w)
        x = rng.uniform(0.0, 20.0 - w)
        s = f.argmin_over(x, x + w)
        assert x - 1e-9 <= s <= x + w + 1e-9
        assert f.value_at(s) == pytest.approx(g.value_at(x), abs=1e-9)


def test_argmin_window_outside_domain():
    with pytest.raises(DomainError):
        Pwl.zero(5.0).argmin_over(3.0, 7.0)


# -- representation invariants -------------------------------------------

def test_collinear_segments_merge():
    f = Pwl((0.0, 5.0, 10.0), (0.0, 5.0, 10.0))
    assert f.xs == (0.0, 10.0)


def test_jittered_line_collapses():
    rng = random.Random(10)
    xs = [50.0 * i / 9999 for i in range(10000)]
    ys = [(3.0 * x + 7.0) * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0)) for x in xs]
    f = Pwl(xs, ys)
    assert len(f) == 2
    assert f.value_at(25.0) == pytest.approx(82.0, rel=1e-12)


def test_merge_error_bounded_on_fine_parabola():
    xs = [i * 1e-5 for i in range(100001)]
    ys = [x * x for x in xs]
    f = Pwl(xs, ys)
    assert len(f) < len(xs)
    assert max(abs(f.value_at(x) - y) / max(1.0, abs(y)) for x, y in zip(xs, ys)) <= TOL


def test_small_real_kink_survives():
    f = Pwl((0.0, 5.0, 10.0), (0.0, 5.0, 5.0 + 5.0 * (1.0 + 1e-6)))
    assert f.xs == (0.0, 5.0, 10.0)


def test_breakpoints_strictly_increasing_after_build():
    f = Pwl((0.0, 5.0, 5.0, 10.0), (0.0, 1.0, 1.0, 3.0))
    assert all(b > a for a, b in zip(f.xs, f.xs[1:]))


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        Pwl((0.0, 1.0), (0.0, math.inf))


def test_dump_csv_lines():
    f = Pwl((0.0, 5.0, 10.0), (1.0, 0.0, 5.0))
    lines = f.dump_csv().splitlines()
    assert len(lines) == 3
    assert lines[0] == "0.0,1.0"
