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

from bisect import bisect_right
from math import inf, isfinite
from typing import Sequence

TOL = 1e-9  # relative tolerance for abscissae and ordinates (module docstring)


class DomainError(ValueError):
    """An argument or operand lies outside a function's domain."""


def _clean(points: list[tuple[float, float]]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sort, collapse near-equal abscissae, and merge within tolerance."""
    points.sort(key=lambda p: p[0])
    xtol = TOL * max(1.0, points[-1][0])
    xs: list[float] = []
    ys: list[float] = []
    for x, y in points:
        if xs and x - xs[-1] <= xtol:
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) < 3:
        return tuple(xs), tuple(ys)
    # [lo, hi]: slopes of the segments from the last kept point (x0, y0)
    # that pass within tolerance of every point dropped since
    out_x = [xs[0]]
    out_y = [ys[0]]
    x0, y0 = xs[0], ys[0]
    lo, hi = -inf, inf
    for i in range(1, len(xs)):
        x, y = xs[i], ys[i]
        if not lo <= (y - y0) / (x - x0) <= hi:
            x0, y0 = xs[i - 1], ys[i - 1]
            out_x.append(x0)
            out_y.append(y0)
            lo, hi = -inf, inf
        # TOL * max(1, |y|), spelled out because this loop is hot
        e = TOL * y if y > 1.0 else -TOL * y if y < -1.0 else TOL
        lo = max(lo, (y - e - y0) / (x - x0))
        hi = min(hi, (y + e - y0) / (x - x0))
    out_x.append(xs[-1])
    out_y.append(ys[-1])
    return tuple(out_x), tuple(out_y)


class Pwl:
    """Immutable continuous piecewise-linear function on [0, H]."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        if len(xs) != len(ys) or not xs:
            raise ValueError("breakpoints and values must be non-empty and aligned")
        if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
            raise ValueError("breakpoints and values must be finite")
        cx, cy = _clean([(float(x), float(y)) for x, y in zip(xs, ys)])
        if abs(cx[0]) > TOL * max(1.0, cx[-1]):
            raise ValueError(f"domain must start at 0, got {cx[0]}")
        if cx[0] != 0.0:
            cx = (0.0,) + cx[1:]
        object.__setattr__(self, "xs", cx)
        object.__setattr__(self, "ys", cy)

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

    # -- arithmetic ----------------------------------------------------

    def _check_same_domain(self, other: "Pwl") -> None:
        if abs(self.high - other.high) > TOL * max(1.0, self.high, other.high):
            raise DomainError(f"domain mismatch: [0, {self.high}] vs [0, {other.high}]")

    def add(self, other: "Pwl") -> "Pwl":
        self._check_same_domain(other)
        grid = sorted(set(self.xs) | set(other.xs))
        pts = [(x, self.value_at(x) + other.value_at(x)) for x in grid]
        return Pwl([p[0] for p in pts], [p[1] for p in pts])

    def add_affine(self, slope: float, intercept: float) -> "Pwl":
        """Pointwise f(t) + slope*t + intercept."""
        return Pwl(self.xs, tuple(y + slope * x + intercept for x, y in zip(self.xs, self.ys)))

    def shift(self, delta: float, high: float | None = None) -> "Pwl":
        """g(t) = f(t + delta), clamped to the nearest endpoint value outside [0, H].

        ``high`` overrides the output domain end (defaults to this function's).
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
        pts = [(t, self.value_at(min(max(t + delta, 0.0), self.high))) for t in grid]
        return Pwl([p[0] for p in pts], [p[1] for p in pts])

    def pointwise_min(self, other: "Pwl") -> "Pwl":
        """Pointwise minimum, with crossing points inserted as breakpoints."""
        self._check_same_domain(other)
        grid = sorted(set(self.xs) | set(other.xs))
        xtol = TOL * max(1.0, self.high)
        pts: list[tuple[float, float]] = []
        prev_x = None
        prev_d = None
        for x in grid:
            fv = self.value_at(x)
            gv = other.value_at(min(x, other.high))
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

        Computed exactly from segments: between consecutive sweep events the
        window minimum is the lower envelope of the two window-edge values
        and the best interior breakpoint, all affine in x.
        """
        xtol = TOL * max(1.0, self.high)
        if w < -xtol:
            raise DomainError("window width must be non-negative")
        if w > self.high + xtol:
            raise DomainError(f"window width {w} exceeds domain end {self.high}")
        if w <= xtol:
            return self
        out_high = self.high - w
        if out_high <= xtol:
            return Pwl((0.0,), (min(self.ys),))
        events = {0.0, out_high}
        for b in self.xs:
            for e in (b, b - w):
                if 0.0 < e < out_high:
                    events.add(e)
        grid = sorted(events)
        pts: list[tuple[float, float]] = []
        for e1, e2 in zip(grid, grid[1:]):
            pts.extend(self._window_piece(e1, e2, w, xtol))
        return Pwl([p[0] for p in pts], [p[1] for p in pts])

    def _window_piece(self, e1: float, e2: float, w: float, xtol: float) -> list[tuple[float, float]]:
        """Lower envelope of the window minimum on one event-free interval.

        Lines are anchored at e1 (slope, value there): steep segments on tiny
        intervals far from the origin would lose precision in slope-intercept
        form.
        """
        width = e2 - e1
        # affine pieces: left edge f(x), right edge f(x+w)
        lines = []
        for y1, y2 in (
            (self.value_at(e1), self.value_at(e2)),
            (self.value_at(e1 + w), self.value_at(e2 + w)),
        ):
            lines.append(((y2 - y1) / width, y1))
        # best breakpoint strictly covered by every window in the interval
        inner = [y for x, y in zip(self.xs, self.ys) if e2 - xtol <= x <= e1 + w + xtol]
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
        cand = [lo] + [x for x in self.xs if lo < x < hi] + ([hi] if hi > lo else [])
        vals = [self.value_at(c) for c in cand]
        best = min(vals)
        ties = [c for c, v in zip(cand, vals) if v <= best + TOL * max(1.0, abs(best))]
        return best, ties[0], ties[-1]
