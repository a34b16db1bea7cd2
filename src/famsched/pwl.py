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
from collections import deque
from math import inf, isfinite
from typing import Sequence

TOL = 1e-9  # relative tolerance for abscissae and ordinates (module docstring)


class DomainError(ValueError):
    """An argument or operand lies outside a function's domain."""


def _clean(xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """Collapse near-equal abscissae and merge within tolerance, in one pass.

    ``xs`` and ``ys`` are parallel lists.  Every op hands over a sorted grid;
    any other input is first stably sorted by x, so the first of equal
    abscissae stays first.  Of abscissae within the tolerance
    of the last one taken, the first is kept; the bounded-error merge then
    runs over the points taken.
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
        if high <= low:
            return cls((low,), (0.0,))
        return cls((low, high), (0.0, 0.0))

    # -- evaluation ----------------------------------------------------

    def value_at(self, t: float) -> float:
        """Linear interpolation; exact at breakpoints."""
        low, high = self.xs[0], self.xs[-1]
        if not low <= t <= high:
            slack = TOL * max(1.0, high)
            if t < low - slack or t > high + slack:
                raise DomainError(f"argument {t} outside domain [{low}, {high}]")
            t = min(max(t, low), high)
        i = bisect_right(self.xs, t) - 1
        if i >= len(self.xs) - 1:
            return self.ys[-1]
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    def _values_at(self, ts: Sequence[float]) -> list[float]:
        """``value_at`` at each point of a non-decreasing grid, in one walk.

        A pointer advances along the breakpoints instead of one bisect per
        point, with ``value_at``'s domain check, end clamp and interpolation
        formula, so every value is bit-identical to it.
        """
        xs, ys = self.xs, self.ys
        last = len(xs) - 1
        low, high = xs[0], xs[last]
        slack = TOL * max(1.0, high)
        out = []
        i = 0
        for t in ts:
            if not low <= t <= high:
                if t < low - slack or t > high + slack:
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
        return Pwl(grid, [a + b for a, b in zip(self._values_at(grid), other._values_at(grid))])

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
        fvs = self._values_at(grid)
        g_high = other.high
        gvs = other._values_at([g_high if g_high < x else x for x in grid])  # min(x, g_high)
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

        Computed exactly from segments in one sweep over the events (the
        breakpoints b and b - w inside the output domain): between
        consecutive events e1 < e2 the window minimum is the lower envelope
        of the two window-edge values f(x) and f(x + w) and of the best
        breakpoint in [e2, e1 + w], all affine in x.  Edge values come from
        one forward walk each over the events and the events shifted by w;
        the best breakpoint from a monotone deque (Lemire's sliding-window
        minimum), as both ends of [e2, e1 + w] only move right.  Each event
        is emitted once: the first interval's left end, then every interval's
        crossings and right end.

        Lines are anchored at e1 (slope, value there): steep segments on tiny
        intervals far from the origin would lose precision in slope-intercept
        form.
        """
        xs, ys = self.xs, self.ys
        low, high = xs[0], xs[-1]
        xtol = TOL * max(1.0, high)
        if w < -xtol:
            raise DomainError("window width must be non-negative")
        if w > high - low + xtol:
            raise DomainError(f"window width {w} exceeds domain [{low}, {high}]")
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
        left = self._values_at(grid)
        right = self._values_at([e + w for e in grid])
        window: deque[int] = deque()  # breakpoint indices, ordinates increasing
        n = len(xs)
        r = 0
        px: list[float] = []
        py: list[float] = []
        for j in range(len(grid) - 1):
            e1, e2 = grid[j], grid[j + 1]
            width = e2 - e1
            b1 = left[j]
            a1 = (left[j + 1] - b1) / width
            b2 = right[j]
            a2 = (right[j + 1] - b2) / width
            reach = e1 + w + xtol
            while r < n and xs[r] <= reach:
                while window and ys[window[-1]] > ys[r]:
                    window.pop()
                window.append(r)
                r += 1
            while window and xs[window[0]] < e2 - xtol:
                window.popleft()
            # the left end e1 is the previous interval's right end, emitted at
            # e0 + (e1 - e0); where that rounds above e1, e1 replaces it, as the
            # merge would keep the lower of the two
            if not px:
                offsets = [0.0, width]
            elif px[-1] > e1:
                px.pop()
                py.pop()
                offsets = [0.0, width]
            else:
                offsets = [width]
            # crossings of the lines, in the order (left, right), (left, best),
            # (right, best); the best breakpoint's line is flat
            first = len(offsets)
            inner = width - xtol
            if a1 != a2:
                dx = (b2 - b1) / (a1 - a2)
                if xtol < dx < inner:
                    offsets.append(dx)
            if window:
                b3 = ys[window[0]]
                if a1 != 0.0:
                    dx = (b3 - b1) / a1
                    if xtol < dx < inner:
                        offsets.append(dx)
                if a2 != 0.0:
                    dx = (b3 - b2) / a2
                    if xtol < dx < inner:
                        offsets.append(dx)
                flat = 0.0 + b3  # the flat line's value, 0.0 * dx + b3
            else:
                flat = inf
            if len(offsets) > first:
                offsets = sorted(set(offsets))
            for dx in offsets:
                px.append(e1 + dx)
                v = a1 * dx + b1  # the first of equal minima wins, as in min()
                u = a2 * dx + b2
                if u < v:
                    v = u
                if flat < v:
                    v = flat
                py.append(v)
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
        if lo < low - xtol or hi > high + xtol or hi < lo - xtol:
            raise DomainError(f"window [{lo}, {hi}] not inside [{low}, {high}]")
        lo = min(max(lo, low), high)
        hi = min(max(hi, lo), high)
        cand = [lo, *xs[bisect_right(xs, lo):bisect_left(xs, hi)]] + ([hi] if hi > lo else [])
        vals = self._values_at(cand)
        best = min(vals)
        ties = [c for c, v in zip(cand, vals) if v <= best + TOL * max(1.0, abs(best))]
        return best, ties[0], ties[-1]


def shift_table(parts: Sequence[tuple[Pwl, float, float, float]], low: float,
                high: float) -> tuple[list[float], list[list[float]]]:
    """The grid and values that ``envelope`` builds from, before the merge.

    The grid is low, high and every part's shifted breakpoints inside
    (low, high), sorted; each part ``(f, delta, slope, intercept)`` gets the
    column f(t + delta) + slope*t + intercept at the grid points t, with f
    clamped to its nearest endpoint value outside its own domain, in one
    walk.  Callers that add more terms to one part's shift build one ``Pwl``
    instead of two.
    """
    cand = {low, high}
    for f, delta, _, _ in parts:
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
        cols.append([v + slope * t + intercept for t, v in zip(grid, f._values_at(clamped))])
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
