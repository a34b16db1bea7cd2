"""Exact algebra over continuous piecewise-linear functions of time.

A Pwl is a continuous function on a closed interval [a, b], its domain,
stored as a strictly increasing breakpoint list from a to b with one
ordinate per breakpoint and linear interpolation in between.  All operations
are exact up to float arithmetic and ``TOL``: results come from segment
geometry, not sampling.

One relative tolerance, ``TOL``, decides what counts as equal: abscissae
within ``TOL * max(1, b)`` of each other are the same point, and ordinates
within ``TOL * max(1, |y|)`` are the same value.  Every constructor keeps
the first of abscissae that are the same point, then merges: an interior
breakpoint is dropped only while a single segment from the last kept
breakpoint passes within the ordinate tolerance of every breakpoint dropped
since.  At every remaining input point the stored function is therefore
within ``TOL * max(1, |y|)`` of the input value, and float noise cannot pile
up into spurious breakpoints from one operation to the next.

These functions are the currency of the compression optimizer and of the
solver's cost-to-go tables: tardiness terms are hinges, compression terms
are affine, and minimization over a continuous processing-time choice is a
sliding-window minimum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from math import inf, isfinite
from operator import ge, le
from typing import Sequence

TOL = 1e-9  # relative tolerance for abscissae and ordinates (module docstring)


class DomainError(ValueError):
    """An argument or operand lies outside a function's domain."""


def _clean(xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """Collapse near-equal abscissae and merge within tolerance, in one pass.

    ``xs`` and ``ys`` are parallel lists, sorted by x except where rounding
    puts an interval's right end above the next one's left end (in
    ``_window_sweep``); such input is first stably sorted by x, so the first
    of equal abscissae stays first.  Of abscissae within the tolerance of the
    last one taken, the first is kept; the merge then runs over them.
    """
    if xs != sorted(xs):
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs = [xs[i] for i in order]
        ys = [ys[i] for i in order]
    xtol = TOL * max(1.0, xs[-1])
    # (px, py): last point taken; (x0, y0): last point kept; [lo, hi]: slopes
    # of the segments from (x0, y0) that pass within tolerance of every point
    # taken and dropped since
    x0 = px = xs[0]
    y0 = py = ys[0]
    out_x = [x0]
    out_y = [y0]
    lo, hi = -inf, inf
    for x, y in zip(xs, ys):
        if x - px <= xtol:
            continue
        dx = x - x0
        if not lo <= (y - y0) / dx <= hi:
            x0, y0 = px, py
            out_x.append(x0)
            out_y.append(y0)
            lo, hi = -inf, inf
            dx = x - x0
        # TOL * max(1, |y|), spelled out because this loop is hot
        e = TOL * y if y > 1.0 else -TOL * y if y < -1.0 else TOL
        v = (y - e - y0) / dx
        if v > lo:
            lo = v
        v = (y + e - y0) / dx
        if v < hi:
            hi = v
        px, py = x, y
    if px > out_x[0]:
        out_x.append(px)
        out_y.append(py)
    return out_x, out_y


class Pwl:
    """Immutable continuous piecewise-linear function on [xs[0], xs[-1]]."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        if len(xs) != len(ys) or not xs:
            raise ValueError("breakpoints and values must be non-empty and aligned")
        if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
            raise ValueError("breakpoints and values must be finite")
        cx, cy = _clean(list(map(float, xs)), list(map(float, ys)))
        object.__setattr__(self, "xs", tuple(cx))
        object.__setattr__(self, "ys", tuple(cy))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Pwl is immutable")

    # -- introspection -------------------------------------------------

    @property
    def low(self) -> float:
        """Left end of the domain."""
        return self.xs[0]

    @property
    def high(self) -> float:
        """Right end of the domain."""
        return self.xs[-1]

    def __len__(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:
        pts = ", ".join(f"({x:g},{y:g})" for x, y in zip(self.xs, self.ys))
        return f"Pwl[{pts}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Pwl) and self.xs == other.xs and self.ys == other.ys

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, low: float, high: float) -> "Pwl":
        """The zero function on [low, high], low <= high; one breakpoint
        where the two ends are the same point."""
        return cls((low, high), (0.0, 0.0))

    # -- evaluation ----------------------------------------------------

    def value_at(self, t: float) -> float:
        """Linear interpolation; exact at breakpoints (``_values_at``)."""
        return _values_at(self.xs, self.ys, (t,))[0]

    # -- arithmetic ----------------------------------------------------

    def _check_same_domain(self, other: "Pwl") -> None:
        tol = TOL * max(1.0, self.high, other.high)
        if abs(self.low - other.low) > tol or abs(self.high - other.high) > tol:
            raise DomainError(f"domain mismatch: [{self.low}, {self.high}] "
                              f"vs [{other.low}, {other.high}]")

    def add(self, other: "Pwl") -> "Pwl":
        """Pointwise f(t) + g(t)."""
        self._check_same_domain(other)
        grid = sorted(set(self.xs) | set(other.xs))
        fvs, gvs = _values_at(self.xs, self.ys, grid), _values_at(other.xs, other.ys, grid)
        return Pwl(grid, [a + b for a, b in zip(fvs, gvs)])

    def add_affine(self, slope: float, intercept: float) -> "Pwl":
        """Pointwise f(t) + slope*t + intercept.

        The solver adds its affine terms inside ``envelope`` and
        ``schedule.stage_objective``; this stays because
        ``perfbench/tracer.py`` wraps it by name.
        """
        return Pwl(self.xs, tuple(y + slope * x + intercept for x, y in zip(self.xs, self.ys)))

    def shift(self, delta: float, low: float, high: float,
              slope: float = 0.0, intercept: float = 0.0) -> "Pwl":
        """g(t) = f(t + delta) + slope*t + intercept on the domain [low, high],
        with f clamped to its nearest endpoint value outside its own domain.

        The affine term uses ``add_affine``'s arithmetic, so the result is
        bit-identical to ``shift(delta, low, high).add_affine(slope, intercept)``
        whenever the merge keeps the same breakpoints in one pass as in two;
        this is ``envelope`` of the one part.
        """
        return envelope(((self, delta, slope, intercept),), low, high)

    def pointwise_min(self, other: "Pwl") -> "Pwl":
        """Pointwise minimum, with crossing points inserted as breakpoints."""
        self._check_same_domain(other)
        grid = sorted(set(self.xs) | set(other.xs))
        xtol = TOL * max(1.0, self.high)
        fvs = _values_at(self.xs, self.ys, grid)
        g_high = other.high
        gvs = _values_at(other.xs, other.ys,
                         [g_high if g_high < x else x for x in grid])  # min(x, g_high)
        out_x: list[float] = []
        out_y: list[float] = []
        prev_x = None
        prev_d = None
        for x, fv, gv in zip(grid, fvs, gvs):
            d = fv - gv
            if prev_x is not None and ((prev_d > 0 > d) or (prev_d < 0 < d)):
                cx = prev_x + (x - prev_x) * prev_d / (prev_d - d)
                if prev_x + xtol < cx < x - xtol:
                    out_x.append(cx)
                    out_y.append(self.value_at(cx))
            out_x.append(x)
            out_y.append(gv if gv < fv else fv)  # min(fv, gv): the first wins a tie
            prev_x, prev_d = x, d
        return Pwl(out_x, out_y)

    # -- window minimization -------------------------------------------

    def window_min(self, w: float) -> "Pwl":
        """g(x) = min of f over [x, x + w], on the domain [a, b - w].

        Two paths, picked from the input.  When f is quasiconvex, g has a
        closed form built in one construction (``_quasiconvex_window``, which
        the solvers also call on a stage objective's lists before the merge,
        through ``window_min_of``).  Any other f, and a width within the
        abscissa tolerance of 0 or of the domain's length, takes the
        per-interval scan, ``_window_sweep``.
        """
        xs = self.xs
        low, high = xs[0], xs[-1]
        xtol = TOL * max(1.0, high)
        if not w >= -xtol:
            raise DomainError(f"window width {w} must be non-negative")
        if not w <= high - low + xtol:
            raise DomainError(f"window width {w} exceeds domain [{low}, {high}]")
        g = _quasiconvex_window(xs, self.ys, w)
        return self._window_sweep(w) if g is None else g

    def _window_sweep(self, w: float) -> "Pwl":
        """``window_min`` of any f, for a width it has checked.

        Computed exactly from segments between consecutive events e1 < e2
        (the breakpoints b and b - w inside the output domain), where g is the
        lower envelope of three lines: the window edges f(x) and f(x + w), and
        the best breakpoint in [e2, e1 + w], flat.  Each interval gives its
        ends and the lines' crossings inside it, valued by the first lowest
        line as in min(); the construction keeps the first of an interval's
        right end and the next one's left end.  Lines are anchored at e1
        (slope, value there): steep segments on tiny intervals far from the
        origin would lose precision in slope-intercept form.
        """
        xs, ys = self.xs, self.ys
        low, high = xs[0], xs[-1]
        xtol = TOL * max(1.0, high)
        if w <= xtol:
            return self
        out_high = high - w
        if out_high - low <= xtol:
            return Pwl((low,), (min(ys),))
        events = {low, out_high}
        for b in xs:
            for e in (b, b - w):
                if low < e < out_high:
                    events.add(e)
        grid = sorted(events)
        left = _values_at(xs, ys, grid)
        right = _values_at(xs, ys, [e + w for e in grid])
        px: list[float] = []
        py: list[float] = []
        for j in range(len(grid) - 1):
            e1, e2 = grid[j], grid[j + 1]
            width = e2 - e1
            lines = [((y[j + 1] - y[j]) / width, y[j]) for y in (left, right)]
            inner = ys[bisect_left(xs, e2 - xtol):bisect_right(xs, e1 + w + xtol)]
            if inner:
                lines.append((0.0, min(inner)))
            offsets = {0.0, width}
            for (a1, b1), (a2, b2) in combinations(lines, 2):
                if a1 != a2:
                    dx = (b2 - b1) / (a1 - a2)
                    if xtol < dx < width - xtol:
                        offsets.add(dx)
            for dx in sorted(offsets):
                px.append(e1 + dx)
                py.append(min(a * dx + b for a, b in lines))
        return Pwl(px, py)

    def min_over(self, lo: float, hi: float) -> float:
        """Exact minimum of f over the closed interval [lo, hi]."""
        val, _, _ = self._interval_argmin(lo, hi)
        return val

    def argmin_over(self, lo: float, hi: float) -> tuple[float, float]:
        """Lowest and highest minimizers of f over [lo, hi], ties within TOL."""
        _, lowest, highest = self._interval_argmin(lo, hi)
        return lowest, highest

    def _interval_argmin(self, lo: float, hi: float) -> tuple[float, float, float]:
        xs = self.xs
        low, high = xs[0], xs[-1]
        xtol = TOL * max(1.0, high)
        if not (low - xtol <= lo and hi <= high + xtol and lo - xtol <= hi):
            raise DomainError(f"window [{lo}, {hi}] not inside [{low}, {high}]")
        lo = min(max(lo, low), high)
        hi = min(max(hi, lo), high)
        cand = [lo, *xs[bisect_right(xs, lo):bisect_left(xs, hi)]] + ([hi] if hi > lo else [])
        vals = _values_at(xs, self.ys, cand)
        best = min(vals)
        ties = [c for c, v in zip(cand, vals) if v <= best + TOL * max(1.0, abs(best))]
        return best, ties[0], ties[-1]


def _values_at(xs: Sequence[float], ys: Sequence[float], ts: Sequence[float]) -> list[float]:
    """The function with breakpoint lists xs, ys at each point of a
    non-empty, non-decreasing grid, in one walk.

    Points within the abscissa tolerance outside the domain are clamped to
    its nearest end; points further out raise ``DomainError``.  The walk
    starts at the breakpoint interval of the first point, found by bisection
    unless it is the first interval, then a pointer advances along the
    breakpoints, so one point costs O(log n) and a grid O(log n + len(ts) + n).
    """
    last = len(xs) - 1
    low, high = xs[0], xs[last]
    slack = TOL * max(1.0, high)
    out = []
    i = 0 if last == 0 or ts[0] < xs[1] else bisect_right(xs, ts[0]) - 1
    for t in ts:
        if not low <= t <= high:
            if not low - slack <= t <= high + slack:
                raise DomainError(f"argument {t} outside domain [{low}, {high}]")
            t = min(max(t, low), high)
        while i < last and xs[i + 1] <= t:
            i += 1
        if i == last:
            out.append(ys[last])
        else:
            x0, y0 = xs[i], ys[i]
            out.append(y0 + (ys[i + 1] - y0) * (t - x0) / (xs[i + 1] - x0))
    return out


def _quasiconvex_window(xs: Sequence[float], ys: Sequence[float], w: float) -> Pwl | None:
    """``window_min``'s closed form, from f's breakpoint lists (xs strictly
    increasing), or None where it does not apply: a width within the
    abscissa tolerance of 0 or of the domain's length, or outside them, or an
    f that is not quasiconvex.

    The test is exact on the ordinates: with i the first index of the
    minimum m, ``ys`` is non-increasing up to i and non-decreasing from i on.
    Then, with s = xs[i], g is f(x + w) left of s - w, on f's breakpoints
    shifted by -w; the flat m on [s - w, s]; and f(x) right of s, on f's own
    breakpoints, where f stays at m up to its last minimum.
    """
    low, high = xs[0], xs[-1]
    xtol = TOL * max(1.0, high)
    out_high = high - w
    if not (w > xtol and out_high - low > xtol):
        return None
    m = min(ys)
    i = ys.index(m)
    if not (all(map(ge, ys, ys[1:i + 1])) and all(map(le, ys[i:], ys[i + 1:]))):
        return None
    s = xs[i]  # f is m on its whole run of minima, so g can follow f from s on
    px = [low]
    py = [m if s - w <= low else _values_at(xs, ys, (low + w,))[0]]
    for x, y in zip(xs[1:i + 1], ys[1:i + 1]):  # f(x + w) up to s - w
        if x - w > low:
            px.append(x - w)
            py.append(y)
    for x, y in zip(xs[i:], ys[i:]):  # the flat m from s - w to s, then f(x)
        if x >= out_high:
            break
        px.append(x)
        py.append(y)
    px.append(out_high)
    py.append(m if s >= out_high else _values_at(xs, ys, (out_high,))[0])
    return Pwl(px, py)


def window_min_of(xs: list[float], ys: list[float], w: float) -> Pwl:
    """``Pwl(xs, ys).window_min(w)`` for aligned breakpoint lists before the
    merge, xs strictly increasing, in one construction where the closed form
    applies to them.

    Lists that are not finite, or that fail ``_quasiconvex_window``, are
    constructed and windowed as they are, so they raise and take
    ``_window_sweep`` exactly as ``window_min`` does.  Where the merge would
    drop no breakpoint the result is ``window_min``'s bit for bit.  Elsewhere
    the closed form also reads the breakpoints the merge drops, so a
    breakpoint may move by the abscissa tolerance and a value by the
    ordinate tolerance of the lists' largest ordinates.
    """
    g = None
    if all(map(isfinite, xs)) and all(map(isfinite, ys)):
        g = _quasiconvex_window(xs, ys, w)
    return Pwl(xs, ys).window_min(w) if g is None else g


def shift_table(parts: Sequence[tuple[Pwl, float, float, float]], low: float,
                high: float) -> tuple[list[float], list[list[float]]]:
    """The grid and values that ``envelope`` builds from, before the merge.

    The grid is low, high and every part's shifted breakpoints inside
    (low, high), sorted; each part ``(f, delta, slope, intercept)`` gets the
    column f(t + delta) + slope*t + intercept at the grid points t, with f
    clamped to its nearest endpoint value outside its own domain, in one
    walk.  Callers that add more terms to one part's shift build one ``Pwl``
    instead of two.  A reversed domain or a non-finite shift raises
    ``DomainError``.
    """
    if not low <= high:
        raise DomainError(f"domain [{low}, {high}] needs low <= high")
    cand = {low, high}
    for f, delta, _, _ in parts:
        if not isfinite(delta):
            raise DomainError(f"shift {delta} is not finite")
        for x in f.xs:  # the clamp onsets f_low - delta and f_high - delta among them
            t = x - delta
            if low < t < high:
                cand.add(t)
    grid = sorted(cand)
    cols = []
    for f, delta, slope, intercept in parts:
        f_low, f_high = f.xs[0], f.xs[-1]
        clamped = []
        for t in grid:
            v = t + delta
            if f_low > v:  # max(v, f_low): keeps v on a tie, so -0.0 survives
                v = f_low
            if f_high < v:  # min(v, f_high)
                v = f_high
            clamped.append(v)
        vals = _values_at(f.xs, f.ys, clamped)
        cols.append([v + slope * t + intercept for t, v in zip(grid, vals)])
    return grid, cols


def envelope(parts: Sequence[tuple[Pwl, float, float, float]], low: float, high: float) -> Pwl:
    """Lower envelope of the parts ``(f, delta, slope, intercept)``, each the
    function ``f.shift(delta, low, high, slope, intercept)``, in one
    construction; ties go to the first part, as in ``pointwise_min``.

    The grid and the parts' values on it come from ``shift_table``, so one
    part gives ``shift``'s result bit for bit.  Between consecutive grid
    points every part is a line.  Where the line lowest at the left end is
    not lowest at the right end, the walk follows the envelope from line to
    line, at each step to the earliest crossing with a line lower at the
    right end, and inserts the crossings more than the abscissa tolerance
    inside the interval, valued on the line left behind.
    """
    grid, cols = shift_table(parts, low, high)
    if len(cols) == 1:
        return Pwl(grid, cols[0])
    xtol = TOL * max(1.0, high)
    rows = list(zip(*cols))
    p = rows[0]
    m = min(p)
    cur = p.index(m)
    out_x = [grid[0]]
    out_y = [m]
    x0 = grid[0]
    for x1, q in zip(grid[1:], rows[1:]):
        m = min(q)
        if q[cur] > m:
            width = x1 - x0
            at = x0
            while q[cur] > m:
                pc, qc = p[cur], q[cur]
                cx, nxt = inf, cur
                for k, qk in enumerate(q):
                    if qk < qc:  # line k ends below the current one: they cross
                        d0 = pc - p[k]
                        c = x0 + width * d0 / (d0 - (qc - qk)) if d0 < 0 else x0
                        if c < cx or c == cx and qk < q[nxt]:
                            cx, nxt = c, k
                if cx < at:  # rounding: the envelope only moves right
                    cx = at
                if x0 + xtol < cx < x1 - xtol:
                    out_x.append(cx)
                    out_y.append(pc + (qc - pc) * (cx - x0) / width)
                at = cx
                cur = nxt
        out_x.append(x1)
        out_y.append(m)
        cur = q.index(m)
        x0, p = x1, q
    return Pwl(out_x, out_y)
