"""Piecewise-linear algebra: frozen examples plus grid-oracle properties."""

import math
import random

import numpy as np
import pytest

from famsched.pwl import TOL, DomainError, Pwl, envelope, window_min_of
from tests.pwl_helpers import dump_csv, hinge, is_convex


def random_pwl(rng: random.Random, high: float, segments: int, low: float = 0.0) -> Pwl:
    xs = sorted(rng.uniform(low, high) for _ in range(segments - 1))
    xs = [low] + xs + [high]
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
    f = hinge(0.5, 41.0, 0.0, 56.0)
    assert f.value_at(44.5) == pytest.approx(1.75, abs=1e-12)


def test_eval_zero_function():
    z = Pwl.zero(0.0, 10.0)
    for t in (0.0, 3.3, 10.0):
        assert z.value_at(t) == 0.0


def test_eval_flat_segment():
    f = Pwl((0.0, 10.0, 20.0), (0.0, 5.0, 5.0))
    assert f.value_at(15.0) == 5.0


def test_eval_outside_domain_rejected():
    for f, below in ((Pwl.zero(0.0, 10.0), -1.0), (Pwl.zero(4.0, 10.0), 3.5)):
        with pytest.raises(DomainError):
            f.value_at(below)
        with pytest.raises(DomainError):
            f.value_at(10.5)


def test_nan_arguments_rejected():
    """NaN fails every domain and width check, which are written so that a
    comparison with NaN, always false, rejects."""
    nan = math.nan
    f = Pwl((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
    calls = [lambda: f.value_at(nan), lambda: f.min_over(nan, 1.0), lambda: f.min_over(0.0, nan),
             lambda: f.argmin_over(nan, 1.0), lambda: f.shift(nan, 0.0, 2.0)]
    for g in (f, Pwl((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 1.0, 0.0))):  # closed form, scan
        calls += [lambda g=g: g.window_min(nan), lambda g=g: window_min_of(list(g.xs), list(g.ys), nan)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


# -- hinge ---------------------------------------------------------------

def test_hinge_definition():
    f = hinge(2.0, 21.0, 0.0, 56.0)
    assert f.value_at(21.0) == 0.0
    assert f.value_at(22.0) == pytest.approx(2.0)
    late = hinge(2.0, 21.0, 30.0, 56.0)  # the knee lies before the domain
    assert late.xs == (30.0, 56.0) and late.ys == (18.0, 70.0)


def test_hinge_beyond_horizon_is_zero():
    f = hinge(1.0, 100.0, 0.0, 56.0)
    assert f == Pwl.zero(0.0, 56.0)


def test_hinge_convex_nonnegative():
    f = hinge(0.5, 41.0, 0.0, 56.0)
    assert is_convex(f)
    assert all(y >= 0 for y in f.ys)
    assert f.value_at(10.0) == 0.0


# -- add / add_affine / shift ---------------------------------------------

def test_add_two_hinges():
    a = hinge(1.0, 5.0, 0.0, 10.0)
    assert a.add(a) == hinge(2.0, 5.0, 0.0, 10.0)


def test_add_affine():
    f = Pwl.zero(0.0, 10.0).add_affine(2.0, 3.0)
    assert f.value_at(4.0) == pytest.approx(11.0)


def test_affine_term_matches_add_affine():
    rng = random.Random(16)
    for _ in range(100):
        f = random_pwl(rng, 20.0, rng.randint(2, 12))
        slope, intercept, delta = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        fused = f.shift(delta, 0.0, 25.0, slope, intercept)
        two_step = f.shift(delta, 0.0, 25.0).add_affine(slope, intercept)
        assert fused.xs == two_step.xs and fused.ys == two_step.ys


def test_shift_translates_and_clamps():
    f = hinge(1.0, 5.0, 0.0, 10.0)
    g = f.shift(2.0, 0.0, 10.0)
    assert g.value_at(3.0) == 0.0
    assert g.value_at(4.0) == pytest.approx(1.0)
    assert g.value_at(9.0) == pytest.approx(f.value_at(10.0))  # clamped tail


@pytest.mark.parametrize(
    "delta,low,high,message",
    [(0.0, 2.0, 1.0, "needs low <= high"), (0.0, math.nan, 2.0, "needs low <= high"),
     (math.inf, 0.0, 2.0, "not finite"), (-math.inf, 0.0, 2.0, "not finite")],
    ids=["reversed", "nan-low", "inf-shift", "minus-inf-shift"],
)
def test_shift_rejects_a_reversed_domain_or_infinite_shift(delta, low, high, message):
    f = Pwl((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
    with pytest.raises(DomainError, match=message):
        f.shift(delta, low, high)
    with pytest.raises(DomainError, match=message):
        envelope([(f, 0.0, 0.0, 0.0), (f, delta, 0.0, 0.0)], low, high)


def test_add_domain_mismatch():
    with pytest.raises(DomainError):
        Pwl.zero(0.0, 10.0).add(Pwl.zero(0.0, 12.0))
    early, late = Pwl.zero(0.0, 10.0), Pwl.zero(1.0, 10.0)
    for f, g in ((early, late), (late, early)):
        with pytest.raises(DomainError, match="domain mismatch"):
            f.add(g)
        with pytest.raises(DomainError, match="domain mismatch"):
            f.pointwise_min(g)


# operands on [0, b] and on [a, b] with a > 0
LOWS = (0.0, 6.5)


def test_add_grid_oracle():
    rng = random.Random(1)
    for low in LOWS:
        for _ in range(50):
            f = random_pwl(rng, 20.0, 5, low)
            g = random_pwl(rng, 20.0, 5, low)
            s = f.add(g)
            assert (s.low, s.high) == (low, 20.0)
            for i in range(200):
                t = low + (20.0 - low) * i / 199
                assert s.value_at(t) == pytest.approx(f.value_at(t) + g.value_at(t), abs=1e-9)
            assert len(s) <= len(f) + len(g)
            with pytest.raises(DomainError):
                s.value_at(low - 1e-6)


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
    for low in LOWS:
        for _ in range(60):
            f = random_pwl(rng, 15.0, 5, low)
            g = random_pwl(rng, 15.0, 5, low)
            m = f.pointwise_min(g)
            assert (m.low, m.high) == (low, 15.0)
            for i in range(1000):
                t = low + (15.0 - low) * i / 999
                assert m.value_at(t) == pytest.approx(min(f.value_at(t), g.value_at(t)), abs=1e-9)
            # breakpoint budget: union plus one per sign change of f - g
            grid = sorted(set(f.xs) | set(g.xs))
            diffs = [f.value_at(x) - g.value_at(x) for x in grid]
            crossings = sum(
                1 for a, b in zip(diffs, diffs[1:]) if (a > 0 > b) or (a < 0 < b)
            )
            assert len(m) <= len(f) + len(g) + crossings
            with pytest.raises(DomainError):
                m.value_at(low - 1e-6)


# -- window_min -------------------------------------------------------------

def window_min_oracle(f: Pwl, x: float, w: float) -> float:
    """Brute-force window minimum: window edges, interior breakpoints, grid,
    evaluated by numpy's interpolation rather than ``Pwl``'s own."""
    cand = [x, x + w] + [b for b in f.xs if x < b < x + w]
    cand += [x + w * i / 200 for i in range(201)]
    return float(np.interp(np.minimum(cand, f.high), f.xs, f.ys).min())


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
    w = 1.7
    for low in LOWS:
        for _ in range(40):
            f = random_pwl(rng, 30.0, 6, low)
            g = f.window_min(w)
            assert g.low == low and g.high == pytest.approx(30.0 - w, abs=1e-12)
            for i in range(500):
                x = low + (30.0 - w - low) * i / 499
                assert g.value_at(x) == pytest.approx(window_min_oracle(f, x, w), abs=1e-6)
            with pytest.raises(DomainError):
                g.value_at(low - 1e-6)


def test_window_min_grid_oracle_at_traffic_scale(monkeypatch):
    """Functions that are not quasiconvex, with 40 to 120 breakpoints as the
    solvers' general windows have, take the per-interval scan and match the
    brute-force window minimum; widths run from twice the abscissa tolerance
    to all but twice of the domain."""
    swept = []
    sweep = Pwl._window_sweep
    monkeypatch.setattr(Pwl, "_window_sweep", lambda f, w: swept.append(w) or sweep(f, w))
    rng = random.Random(24)
    for breakpoints, high in ((40, 30.0), (80, 500.0), (120, 30.0)):
        for low in LOWS:
            f = random_pwl(rng, high, breakpoints - 1, low)
            assert len(f) == breakpoints
            xtol = TOL * max(1.0, high)
            widths = (2.0 * xtol, high - low - 2.0 * xtol, rng.uniform(0.0, high - low))
            for w in widths:
                g = f.window_min(w)
                assert g.low == f.low and abs(g.high - (f.high - w)) <= xtol
                for k in range(200):
                    x = g.low + (g.high - g.low) * k / 199
                    assert g.value_at(x) == pytest.approx(window_min_oracle(f, x, w), abs=1e-6)
    assert len(swept) == 18


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
        Pwl.zero(0.0, 5.0).window_min(6.0)
    with pytest.raises(DomainError):
        Pwl.zero(2.0, 5.0).window_min(4.0)


def test_window_min_convexity_preserved():
    rng = random.Random(7)
    for _ in range(40):
        f = random_convex_pwl(rng, 25.0, 6)
        assert is_convex(f.window_min(3.0))


def test_affine_ops_preserve_convexity():
    rng = random.Random(8)
    for _ in range(20):
        f = random_convex_pwl(rng, 25.0, 6)
        g = random_convex_pwl(rng, 25.0, 5)
        assert is_convex(f.add(g))
        assert is_convex(f.add_affine(-2.0, 7.0))
        # translation preserves convexity away from the clamped tail
        shifted = f.shift(3.0, 0.0, 25.0)
        inside = Pwl(
            [x for x in shifted.xs if x <= 22.0] + [22.0],
            [y for x, y in zip(shifted.xs, shifted.ys) if x <= 22.0] + [shifted.value_at(22.0)],
        )
        assert is_convex(inside)


# -- window_min against the quadratic algorithm ----------------------------

def window_min_reference(f: Pwl, w: float) -> Pwl:
    """The window minimum by the direct algorithm: for each pair of
    consecutive events, evaluate both window edges with ``value_at`` and
    rescan every breakpoint for the best one covered by the whole interval."""
    xtol = TOL * max(1.0, f.high)
    if w <= xtol:
        return f
    out_high = f.high - w
    if out_high - f.low <= xtol:
        return Pwl((f.low,), (min(f.ys),))
    events = {f.low, out_high}
    for b in f.xs:
        for e in (b, b - w):
            if f.low < e < out_high:
                events.add(e)
    grid = sorted(events)
    pts = []
    for e1, e2 in zip(grid, grid[1:]):
        pts.extend(window_piece_reference(f, e1, e2, w, xtol))
    return Pwl([p[0] for p in pts], [p[1] for p in pts])


def window_piece_reference(f: Pwl, e1: float, e2: float, w: float, xtol: float):
    width = e2 - e1
    lines = []
    for y1, y2 in ((f.value_at(e1), f.value_at(e2)), (f.value_at(e1 + w), f.value_at(e2 + w))):
        lines.append(((y2 - y1) / width, y1))
    inner = [y for x, y in zip(f.xs, f.ys) if e2 - xtol <= x <= e1 + w + xtol]
    if inner:
        lines.append((0.0, min(inner)))
    offsets = {0.0, width}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1 = lines[i]
            a2, b2 = lines[j]
            if a1 != a2:
                dx = (b2 - b1) / (a1 - a2)
                if xtol < dx < width - xtol:
                    offsets.add(dx)
    return [(e1 + dx, min(a * dx + b for a, b in lines)) for dx in sorted(offsets)]


def reference_cases(seed: int):
    """(function, width) pairs: random and convex functions over domains from
    1 to 500 with 2 to 40 segments; ordinates drawn from {-0.0, 0.0, 1.0}
    (ties, and zeros of both signs); and breakpoints placed within a few
    abscissa tolerances of other breakpoints shifted by the width."""
    rng = random.Random(seed)
    for n in range(300):
        high = rng.choice((1.0, 7.5, 30.0, 500.0))
        xtol = TOL * max(1.0, high)
        segments = rng.randint(2, 40)
        widths = [0.0, xtol, high / 3, rng.uniform(0.0, high), high * (1.0 - 1e-12), high]
        kind = n % 4
        if kind == 0:
            f = random_convex_pwl(rng, high, segments)
        elif kind == 1:
            f = random_pwl(rng, high, segments)
        elif kind == 2:
            f = random_pwl(rng, high, segments)
            f = Pwl(f.xs, [rng.choice((-0.0, 0.0, 1.0)) for _ in f.xs])
        else:
            w = widths[2]
            base = sorted(rng.uniform(0.0, high - w) for _ in range(segments // 2))
            near = [b + w + rng.choice((-2.0, -0.5, 0.5, 2.0)) * xtol for b in base]
            xs = sorted({0.0, high, *base, *near})
            f = Pwl(xs, [rng.uniform(-10.0, 10.0) for _ in xs])
        for w in widths:
            yield f, w


def test_window_min_matches_reference_bit_for_bit():
    """``_window_sweep``, the same per-interval algorithm with its reads
    batched, is the reference bit for bit; ``window_min``, which
    takes the closed form on quasiconvex functions, has the reference's
    breakpoint count, abscissae within the abscissa tolerance, and at equal
    abscissae ordinates within 1e-12 relative."""
    for f, w in reference_cases(11):
        moved = Pwl([x + 0.25 * f.high for x in f.xs], f.ys)  # on [H/4, 5H/4]
        for h in (f, moved):
            ref = window_min_reference(h, w)
            swept = h._window_sweep(w)
            assert swept.xs == ref.xs and swept.ys == ref.ys
            assert dump_csv(swept) == dump_csv(ref)  # repr-level: tells -0.0 from 0.0
            g = h.window_min(w)
            xtol = TOL * max(1.0, h.high)
            assert len(g) == len(ref)
            for x, y, rx, ry in zip(g.xs, g.ys, ref.xs, ref.ys):
                assert abs(x - rx) <= xtol
                assert x != rx or abs(y - ry) <= 1e-12 * max(1.0, abs(ry))
            with pytest.raises(DomainError):
                g.value_at(h.low - 2 * TOL * max(1.0, h.high))


def random_quasiconvex_pwl(rng: random.Random, low: float, high: float, shape: str,
                           levels=None) -> Pwl:
    """Non-increasing to a run of minima, then non-decreasing.  ``shape``
    puts the run: "up" at the left end (f non-decreasing), "down" at the
    right end (f non-increasing), "vee" inside, one breakpoint or a flat
    valley of several.  ``levels`` draws the ordinates from a finite set,
    so that ties and zeros of both signs occur."""
    xs = [low, *sorted(rng.uniform(low, high) for _ in range(rng.randint(1, 10))), high]
    n = len(xs)
    if shape == "up":
        i, j = 0, rng.randint(0, n - 2)
    elif shape == "down":
        i, j = rng.randint(1, n - 1), n - 1
    else:
        i = rng.randint(1, n - 2)
        j = rng.randint(i, n - 2)
    draw = (lambda: rng.choice(levels)) if levels else (lambda: rng.uniform(-5.0, 10.0))
    m = min(levels) if levels else rng.uniform(-10.0, -5.0)
    left = sorted((draw() for _ in range(i)), reverse=True)
    right = sorted(draw() for _ in range(n - 1 - j))
    return Pwl(xs, left + [m] * (j - i + 1) + right)


def test_window_min_quasiconvex_closed_form_matches_oracle(monkeypatch):
    """Quasiconvex functions take the closed form, never the scan, and it
    matches the brute-force window minimum; widths run from twice the
    abscissa tolerance to all but twice of the domain."""
    swept = []
    sweep = Pwl._window_sweep
    monkeypatch.setattr(Pwl, "_window_sweep", lambda f, w: swept.append(w) or sweep(f, w))
    rng = random.Random(19)
    for shape in ("up", "down", "vee"):
        for low in (0.0, 6.5, 1000.0):
            for levels in (None, (-0.0, 0.0, 1.0)):
                for span in (rng.choice((1.0, 30.0)), 500.0):
                    f = random_quasiconvex_pwl(rng, low, low + span, shape, levels)
                    xtol = TOL * max(1.0, f.high)
                    for w in (2.0 * xtol, span - 2.0 * xtol, rng.uniform(0.0, span)):
                        g = f.window_min(w)
                        assert g.low == f.low and abs(g.high - (f.high - w)) <= xtol
                        for k in range(500):
                            x = g.low + (g.high - g.low) * k / 499
                            assert g.value_at(x) == pytest.approx(window_min_oracle(f, x, w),
                                                                  abs=1e-6)
    assert swept == []


@pytest.mark.parametrize("ys", [
    (5.0, 0.0, 4.0, -1.0, 6.0),  # two valleys
    (5.0, 3.0, math.nextafter(3.0, math.inf), 0.0, 5.0),  # a one-ulp bump on the way down
], ids=["two-valleys", "one-ulp-bump"])
def test_window_min_not_quasiconvex_takes_the_sweep(ys, monkeypatch):
    f = Pwl((0.0, 1.0, 2.0, 3.0, 4.0), ys)
    assert f.ys == ys
    swept = []
    sweep = Pwl._window_sweep
    monkeypatch.setattr(Pwl, "_window_sweep", lambda f, w: swept.append(w) or sweep(f, w))
    for w in (0.5, 1.0, 1.5, 2.5):
        g = f.window_min(w)
        ref = sweep(f, w)
        assert g.xs == ref.xs and g.ys == ref.ys and dump_csv(g) == dump_csv(ref)
    assert swept == [0.5, 1.0, 1.5, 2.5]


def reference_pointwise_min(f: Pwl, g: Pwl) -> Pwl:
    grid = sorted(set(f.xs) | set(g.xs))
    xtol = TOL * max(1.0, f.high)
    pts = []
    prev_x = prev_d = None
    for x in grid:
        fv = f.value_at(x)
        gv = g.value_at(min(x, g.high))
        d = fv - gv
        if prev_x is not None and ((prev_d > 0 > d) or (prev_d < 0 < d)):
            cx = prev_x + (x - prev_x) * prev_d / (prev_d - d)
            if prev_x + xtol < cx < x - xtol:
                pts.append((cx, f.value_at(cx)))
        pts.append((x, min(fv, gv)))
        prev_x, prev_d = x, d
    return Pwl([p[0] for p in pts], [p[1] for p in pts])


def test_walk_ops_match_value_at_within_slack_past_end():
    rng = random.Random(12)
    for n in range(200):
        high = rng.choice((1.0, 30.0, 500.0))
        low = LOWS[n // 100] * high / 20.0
        f = random_pwl(rng, high, rng.randint(2, 12), low)
        g0 = random_pwl(rng, high, rng.randint(2, 12), low)
        past = high + 0.5 * TOL * high  # the same end, within the slack
        g = Pwl(g0.xs[:-1] + (past,), g0.ys)
        assert g.high == past
        for a, b in ((f, g), (g, f)):
            grid = sorted(set(a.xs) | set(b.xs))
            s = a.add(b)
            ref = Pwl(grid, [a.value_at(x) + b.value_at(x) for x in grid])
            assert s.xs == ref.xs and s.ys == ref.ys
            m = a.pointwise_min(b)
            ref = reference_pointwise_min(a, b)
            assert m.xs == ref.xs and m.ys == ref.ys
        delta = rng.uniform(-high, high)
        sh = f.shift(delta, low, high)
        ref = Pwl(sh.xs, [f.value_at(min(max(t + delta, low), high)) for t in sh.xs])
        assert sh.xs == ref.xs and sh.ys == ref.ys
        lo = rng.uniform(low, high)
        cand = [lo] + [x for x in f.xs if lo < x < high] + [high]
        vals = [f.value_at(c) for c in cand]
        assert f.min_over(lo, past) == min(vals)
        best = min(vals)
        ties = [c for c, v in zip(cand, vals) if v <= best + TOL * max(1.0, abs(best))]
        assert f.argmin_over(lo, past) == (ties[0], ties[-1])
        beyond = high + 2.0 * TOL * high
        h = Pwl(g0.xs[:-1] + (beyond,), g0.ys)
        for a, b in ((f, h), (h, f)):
            with pytest.raises(DomainError):
                a.add(b)
            with pytest.raises(DomainError):
                a.pointwise_min(b)
        with pytest.raises(DomainError):
            f.min_over(lo, beyond)
        below = low - 2.0 * TOL * high
        h = Pwl((below,) + g0.xs[1:], g0.ys)
        for a, b in ((f, h), (h, f)):
            with pytest.raises(DomainError):
                a.add(b)
            with pytest.raises(DomainError):
                a.pointwise_min(b)
        with pytest.raises(DomainError):
            f.min_over(below, high)
        with pytest.raises(DomainError):
            f.value_at(below)


def reference_shift(f: Pwl, delta: float, low: float, high: float,
                    slope: float = 0.0, intercept: float = 0.0) -> Pwl:
    cand = {low, high}
    for t in [x - delta for x in f.xs] + [f.low - delta, f.high - delta]:
        if low < t < high:
            cand.add(t)
    grid = sorted(cand)
    # at slope 0 and intercept 0 the affine term turns -0.0 into 0.0
    return Pwl(grid, [f.value_at(min(max(t + delta, f.low), f.high)) + slope * t + intercept
                      for t in grid])


def test_shift_and_pointwise_min_match_min_max_reference():
    """The ordered comparisons in ``shift``'s clamp and ``pointwise_min`` keep
    builtin min/max's first-wins rule: same xs, ys and signs of zero."""
    rng = random.Random(13)
    for n in range(400):
        high = rng.choice((1.0, 7.5, 500.0))
        low = LOWS[n // 200] * high / 20.0
        f = random_pwl(rng, high, rng.randint(2, 12), low)
        g = random_pwl(rng, high, rng.randint(2, 12), low)
        if n % 2:  # ties, and zeros of both signs
            f = Pwl(f.xs, [rng.choice((-0.0, 0.0, 1.0)) for _ in f.xs])
            g = Pwl(g.xs, [rng.choice((-0.0, 0.0, 1.0)) for _ in g.xs])
        if n % 3 == 0:  # g ends within the slack before f, so min(x, g.high) clamps
            g = Pwl(g.xs[:-1] + (high * (1.0 - 0.5 * TOL),), g.ys)
        for a, b in ((f, g), (g, f), (f, f)):
            got, ref = a.pointwise_min(b), reference_pointwise_min(a, b)
            assert got.xs == ref.xs and got.ys == ref.ys and dump_csv(got) == dump_csv(ref)
        x = rng.choice(f.xs)
        # deltas that land grid points exactly on the clamp edges a and b
        for delta in (0.0, -0.0, x - low, low - x, high - x, x - high, high - low, low - high,
                      rng.uniform(-high, high)):
            for out in ((low, high), (low, high / 2), (high / 2, high)):
                got, ref = f.shift(delta, *out), reference_shift(f, delta, *out)
                assert got.xs == ref.xs and got.ys == ref.ys and dump_csv(got) == dump_csv(ref)


# -- envelope against the pairwise fold ------------------------------------

def pairwise_fold(parts, low: float, high: float) -> Pwl:
    """The lower envelope as the solver once built it: each part shifted onto
    [low, high] on its own, then folded with ``pointwise_min`` in order."""
    best = None
    for f, delta, slope, intercept in parts:
        g = reference_shift(f, delta, low, high, slope, intercept)
        best = g if best is None else best.pointwise_min(g)
    return best


def random_part(rng: random.Random, low: float, high: float):
    """(f, delta, slope, intercept) whose shifted domain covers [low, high]
    exactly, or falls short of it at either end, so that f is clamped there.

    f's breakpoints lie on a grid of 1/40 of its domain, which bounds its
    slopes: two exact builds may put a crossing one ulp apart, and on a line
    of slope s that moves the value by s ulps, which must stay under the
    1e-12 relative bound of the comparison."""
    width = high - low
    delta = rng.uniform(-width, width)
    a, b = low + delta, high + delta
    shape = rng.randrange(4)
    if shape & 1:  # clamped at the left end
        a += rng.uniform(0.1, 0.6) * width
    if shape & 2:  # clamped at the right end
        b -= rng.uniform(0.1, 0.3) * width
    step = (b - a) / 40
    xs = sorted({a + step * rng.randint(1, 39) for _ in range(rng.randint(1, 9))})
    f = Pwl([a, *xs, b], [rng.uniform(-10.0, 10.0) for _ in range(len(xs) + 2)])
    return (f, delta, rng.choice((0.0, rng.uniform(-2.0, 2.0))), rng.uniform(-4.0, 4.0))


def assert_envelope_matches_fold(parts, low: float, high: float):
    got, want = envelope(parts, low, high), pairwise_fold(parts, low, high)
    assert got.low == want.low and got.high == want.high
    for x in sorted(set(got.xs) | set(want.xs)):
        y = want.value_at(x)
        assert abs(got.value_at(x) - y) <= 1e-12 * max(1.0, abs(y)), (x, parts)


def test_envelope_of_one_part_is_shift_bit_for_bit():
    rng = random.Random(16)
    for n in range(300):
        high = rng.choice((1.0, 30.0, 500.0))
        low = LOWS[n // 150] * high / 20.0
        f, delta, slope, intercept = random_part(rng, low, high)
        got = envelope([(f, delta, slope, intercept)], low, high)
        want = reference_shift(f, delta, low, high, slope, intercept)
        assert got.xs == want.xs and got.ys == want.ys and dump_csv(got) == dump_csv(want)
        assert f.shift(delta, low, high, slope, intercept) == got


def test_envelope_matches_pairwise_fold_on_random_parts():
    rng = random.Random(17)
    for n in range(400):
        high = rng.choice((1.0, 30.0, 500.0))
        low = LOWS[n // 200] * high / 20.0
        k = rng.randint(1, 4 if n % 4 in (0, 3) else 3)  # K = 1 to 4 with the extra part below
        parts = [random_part(rng, low, high) for _ in range(k)]
        if n % 4 == 1:  # an identical part: ties everywhere
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(parts))
        elif n % 4 == 2:  # a part tied with another except around one breakpoint
            f, delta, slope, intercept = rng.choice(parts)
            ys = list(f.ys)
            i = rng.randrange(len(ys))
            ys[i] += rng.choice((-1.0, 1.0))
            parts.append((Pwl(f.xs, ys), delta, slope, intercept))
        assert_envelope_matches_fold(parts, low, high)


def test_envelope_crossings_near_a_grid_point():
    """A line crossing a vee half the abscissa tolerance from its kink g adds
    no breakpoint, two tolerances away it adds the crossing, in both builds."""
    rng = random.Random(18)
    for n in range(200):
        high = rng.choice((1.0, 30.0, 500.0))
        low = LOWS[n // 100] * high / 20.0
        xtol = TOL * max(1.0, high)
        g = rng.uniform(low + 0.1 * (high - low), high - 0.1 * (high - low))
        left, right = rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)
        vee = Pwl((low, g, high), (left * (low - g), 0.0, right * (high - g)))
        for offset in (0.5 * xtol, -0.5 * xtol, 2.0 * xtol, -2.0 * xtol):
            c = g + offset
            # steeper than both arms, so the line crosses the vee once, at c
            s = rng.choice((-1.0, 1.0)) * rng.uniform(3.5, 6.0)
            at_c = vee.value_at(c)
            line = Pwl((low, high), (at_c + s * (low - c), at_c + s * (high - c)))
            for parts in ([(vee, 0.0, 0.0, 0.0), (line, 0.0, 0.0, 0.0)],
                          [(line, 0.0, 0.0, 0.0), (vee, 0.0, 0.0, 0.0)]):
                assert_envelope_matches_fold(parts, low, high)
                near = [x for x in envelope(parts, low, high).xs
                        if x != g and abs(x - g) <= 4.0 * xtol]
                if abs(offset) < xtol:
                    assert near == [], (offset, near)
                else:
                    assert len(near) == 1 and abs(near[0] - c) <= 0.1 * xtol, (offset, near)


# -- argmin -------------------------------------------------------------

def test_argmin_flat_right_valley():
    f = Pwl((0.0, 5.0, 10.0), (5.0, 0.0, 5.0))
    assert f.argmin_over(3.0, 5.0) == pytest.approx((5.0, 5.0))


def test_argmin_constant_prefers_window_start():
    # every point ties: the lowest minimizer is the window start, the highest its end
    f = Pwl((0.0, 10.0), (2.0, 2.0))
    assert f.argmin_over(3.5, 7.5) == pytest.approx((3.5, 7.5))


def test_argmin_interior_minimum():
    f = Pwl((0.0, 5.0, 10.0), (5.0, 0.0, 5.0))
    assert f.argmin_over(4.0, 8.0) == pytest.approx((5.0, 5.0))


def test_argmin_consistent_with_window_min():
    rng = random.Random(9)
    for _ in range(40):
        f = random_pwl(rng, 20.0, 6)
        w = rng.uniform(0.5, 5.0)
        g = f.window_min(w)
        x = rng.uniform(0.0, 20.0 - w)
        lowest, highest = f.argmin_over(x, x + w)
        assert x - 1e-9 <= lowest <= highest <= x + w + 1e-9
        for s in (lowest, highest):
            assert f.value_at(s) == pytest.approx(g.value_at(x), abs=1e-9)


def test_argmin_window_outside_domain():
    with pytest.raises(DomainError):
        Pwl.zero(0.0, 5.0).argmin_over(3.0, 7.0)
    with pytest.raises(DomainError):
        Pwl.zero(2.0, 5.0).argmin_over(1.0, 4.0)


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


def test_unsorted_input_sorted_before_cleaning():
    rng = random.Random(14)
    for _ in range(200):
        high = rng.choice((1.0, 30.0, 500.0))
        xs = sorted({0.0, high, *(rng.uniform(0.0, high) for _ in range(rng.randint(1, 30)))})
        xs += [x + 0.5 * TOL * high for x in rng.sample(xs[1:-1], min(3, len(xs) - 2))]
        xs.sort()
        ys = [rng.uniform(-10.0, 10.0) for _ in xs]
        pairs = list(zip(xs, ys))
        rng.shuffle(pairs)
        shuffled = Pwl([p[0] for p in pairs], [p[1] for p in pairs])
        ordered = Pwl(xs, ys)
        assert shuffled.xs == ordered.xs and shuffled.ys == ordered.ys
        assert dump_csv(shuffled) == dump_csv(ordered)


def test_unsorted_equal_abscissae_keep_input_order():
    f = Pwl((5.0, 0.0, 5.0, 10.0), (1.0, 0.0, 2.0, 3.0))
    assert f.xs == (0.0, 5.0, 10.0)
    assert f.ys == (0.0, 1.0, 3.0)


def test_breakpoints_strictly_increasing_after_build():
    f = Pwl((0.0, 5.0, 5.0, 10.0), (0.0, 1.0, 1.0, 3.0))
    assert all(b > a for a, b in zip(f.xs, f.xs[1:]))


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        Pwl((0.0, 1.0), (0.0, math.inf))


def test_dump_csv_lines():
    f = Pwl((0.0, 5.0, 10.0), (1.0, 0.0, 5.0))
    lines = dump_csv(f).splitlines()
    assert len(lines) == 3
    assert lines[0] == "0.0,1.0"
