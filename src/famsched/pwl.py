"""Exact algebra over continuous piecewise-linear functions of time.

A Pwl is a continuous function on a closed interval [0, H], stored as a
strictly increasing breakpoint list with one ordinate per breakpoint and
linear interpolation in between.  All operations are exact up to float
arithmetic and ``TOL``: results come from segment geometry, not sampling.

One relative tolerance, ``TOL``, decides what counts as equal: abscissae
within ``TOL * max(1, H)`` of each other are the same point, and ordinates
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

    ``xs`` and ``ys`` are parallel lists.  Every op but ``window_min`` hands
    over a sorted grid; any other input is first stably sorted by x, so the
    first of equal abscissae stays first.  Of abscissae within the tolerance
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
    """Immutable continuous piecewise-linear function on [0, H]."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        if len(xs) != len(ys) or not xs:
            raise ValueError("breakpoints and values must be non-empty and aligned")
        if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
            raise ValueError("breakpoints and values must be finite")
        cx, cy = _clean(list(map(float, xs)), list(map(float, ys)))
        if abs(cx[0]) > TOL * max(1.0, cx[-1]):
            raise ValueError(f"domain must start at 0, got {cx[0]}")
        if cx[0] != 0.0:
            cx[0] = 0.0
        object.__setattr__(self, "xs", tuple(cx))
        object.__setattr__(self, "ys", tuple(cy))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Pwl is immutable")

    # -- introspection -------------------------------------------------

    @property
    def high(self) -> float:
        """Right end H of the domain [0, H]."""
        return self.xs[-1]

    def __len__(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:
        pts = ", ".join(f"({x:g},{y:g})" for x, y in zip(self.xs, self.ys))
        return f"Pwl[{pts}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Pwl) and self.xs == other.xs and self.ys == other.ys

    def slopes(self) -> tuple[float, ...]:
        return tuple(
            (self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])
            for i in range(len(self.xs) - 1)
        )

    def is_convex(self, tol: float = TOL) -> bool:
        s = self.slopes()
        return all(s[i + 1] >= s[i] - tol for i in range(len(s) - 1))

    def dump_csv(self) -> str:
        """Debug dump as one ``breakpoint,value`` line per breakpoint."""
        return "\n".join(f"{x!r},{y!r}" for x, y in zip(self.xs, self.ys))

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value: float, high: float) -> "Pwl":
        if high <= 0:
            return cls((0.0,), (value,))
        return cls((0.0, high), (value, value))

    @classmethod
    def zero(cls, high: float) -> "Pwl":
        return cls.constant(0.0, high)

    @classmethod
    def hinge(cls, alpha: float, dd: float, high: float) -> "Pwl":
        """t -> alpha * max(t - dd, 0) on [0, high]."""
        if alpha < 0:
            raise ValueError("hinge rate must be non-negative")
        if dd < 0:
            raise ValueError("hinge knee must be non-negative")
        if alpha == 0.0 or dd >= high:
            return cls.zero(high)
        if dd <= 0.0:
            return cls((0.0, high), (0.0, alpha * high))
        return cls((0.0, dd, high), (0.0, 0.0, alpha * (high - dd)))

    # -- evaluation ----------------------------------------------------

    def value_at(self, t: float) -> float:
        """Linear interpolation; exact at breakpoints."""
        high = self.xs[-1]
        if not 0.0 <= t <= high:
            slack = TOL * max(1.0, high)
            if t < -slack or t > high + slack:
                raise DomainError(f"argument {t} outside domain [0, {high}]")
            t = min(max(t, 0.0), high)
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
        high = xs[last]
        slack = TOL * max(1.0, high)
        out = []
        i = 0
        for t in ts:
            if not 0.0 <= t <= high:
                if t < -slack or t > high + slack:
                    raise DomainError(f"argument {t} outside domain [0, {high}]")
                t = min(max(t, 0.0), high)
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
        if abs(self.high - other.high) > TOL * max(1.0, self.high, other.high):
            raise DomainError(f"domain mismatch: [0, {self.high}] vs [0, {other.high}]")

    def add(self, other: "Pwl", slope: float = 0.0, intercept: float = 0.0) -> "Pwl":
        """Pointwise f(t) + g(t) + slope*t + intercept, built once.

        The affine term uses ``add_affine``'s arithmetic, so the result is
        bit-identical to ``add(other).add_affine(slope, intercept)`` whenever
        the merge keeps the same breakpoints in one pass as in two.
        """
        self._check_same_domain(other)
        grid = sorted(set(self.xs) | set(other.xs))
        ys = [a + b + slope * x + intercept
              for x, a, b in zip(grid, self._values_at(grid), other._values_at(grid))]
        return Pwl(grid, ys)

    def add_affine(self, slope: float, intercept: float) -> "Pwl":
        """Pointwise f(t) + slope*t + intercept.

        The solver adds its affine terms inside ``add`` and ``shift``; this
        stays because ``perfbench/tracer.py`` wraps it by name.
        """
        return Pwl(self.xs, tuple(y + slope * x + intercept for x, y in zip(self.xs, self.ys)))

    def shift(self, delta: float, high: float | None = None,
              slope: float = 0.0, intercept: float = 0.0) -> "Pwl":
        """g(t) = f(t + delta) + slope*t + intercept, with f clamped to its
        nearest endpoint value outside [0, H].

        ``high`` overrides the output domain end (defaults to this function's).
        The affine term is added as in ``add``.
        """
        out_high = self.high if high is None else high
        cand = {0.0, out_high}
        for x in self.xs:
            t = x - delta
            if 0.0 < t < out_high:
                cand.add(t)
        for t in (-delta, self.high - delta):  # clamp onset points
            if 0.0 < t < out_high:
                cand.add(t)
        grid = sorted(cand)
        vals = self._values_at([min(max(t + delta, 0.0), self.high) for t in grid])
        return Pwl(grid, [v + slope * t + intercept for t, v in zip(grid, vals)])

    def pointwise_min(self, other: "Pwl") -> "Pwl":
        """Pointwise minimum, with crossing points inserted as breakpoints."""
        self._check_same_domain(other)
        grid = sorted(set(self.xs) | set(other.xs))
        xtol = TOL * max(1.0, self.high)
        fvs = self._values_at(grid)
        gvs = other._values_at([min(x, other.high) for x in grid])
        pts: list[tuple[float, float]] = []
        prev_x = None
        prev_d = None
        for x, fv, gv in zip(grid, fvs, gvs):
            d = fv - gv
            if prev_x is not None and ((prev_d > 0 > d) or (prev_d < 0 < d)):
                cx = prev_x + (x - prev_x) * prev_d / (prev_d - d)
                if prev_x + xtol < cx < x - xtol:
                    pts.append((cx, self.value_at(cx)))
            pts.append((x, min(fv, gv)))
            prev_x, prev_d = x, d
        return Pwl([p[0] for p in pts], [p[1] for p in pts])

    # -- window minimization -------------------------------------------

    def window_min(self, w: float) -> "Pwl":
        """g(x) = min of f over [x, x + w], on the domain [0, H - w].

        Computed exactly from segments in one sweep over the events (the
        breakpoints b and b - w inside the output domain): between
        consecutive events e1 < e2 the window minimum is the lower envelope
        of the two window-edge values f(x) and f(x + w) and of the best
        breakpoint in [e2, e1 + w], all affine in x.  Edge values come from
        one forward walk each over the events and the events shifted by w;
        the best breakpoint from a monotone deque (Lemire's sliding-window
        minimum), as both ends of [e2, e1 + w] only move right.

        Lines are anchored at e1 (slope, value there): steep segments on tiny
        intervals far from the origin would lose precision in slope-intercept
        form.
        """
        xs, ys = self.xs, self.ys
        xtol = TOL * max(1.0, self.high)
        if w < -xtol:
            raise DomainError("window width must be non-negative")
        if w > self.high + xtol:
            raise DomainError(f"window width {w} exceeds domain end {self.high}")
        if w <= xtol:
            return self
        out_high = self.high - w
        if out_high <= xtol:
            return Pwl((0.0,), (min(ys),))
        events = {0.0, out_high}
        for b in xs:
            for e in (b, b - w):
                if 0.0 < e < out_high:
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
            # crossings of the lines, in the order (left, right), (left, best),
            # (right, best); the best breakpoint's line is flat
            offsets = [0.0, width]
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
            if len(offsets) > 2:
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

    def argmin_over(self, lo: float, hi: float, prefer: str = "lowest") -> float:
        """Minimizer of f over [lo, hi]; ``prefer`` picks among exact ties."""
        _, lowest, highest = self._interval_argmin(lo, hi)
        if prefer == "lowest":
            return lowest
        if prefer == "highest":
            return highest
        raise ValueError(f"unknown preference {prefer!r}")

    def _interval_argmin(self, lo: float, hi: float) -> tuple[float, float, float]:
        xtol = TOL * max(1.0, self.high)
        if lo < -xtol or hi > self.high + xtol or hi < lo - xtol:
            raise DomainError(f"window [{lo}, {hi}] not inside [0, {self.high}]")
        lo = min(max(lo, 0.0), self.high)
        hi = min(max(hi, lo), self.high)
        xs = self.xs
        cand = [lo, *xs[bisect_right(xs, lo):bisect_left(xs, hi)]] + ([hi] if hi > lo else [])
        vals = self._values_at(cand)
        best = min(vals)
        ties = [c for c, v in zip(cand, vals) if v <= best + TOL * max(1.0, abs(best))]
        return best, ties[0], ties[-1]
