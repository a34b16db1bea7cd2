"""Helpers for `Pwl` that only the tests need: the tardiness hinge, a
reference construction, a reference shift column, and inspection."""

from math import inf, isfinite

from famsched.pwl import TOL, Pwl, _values_at


def hinge(alpha: float, dd: float, low: float, high: float) -> Pwl:
    """t -> alpha * max(t - dd, 0) on [low, high]."""
    if alpha < 0:
        raise ValueError("hinge rate must be non-negative")
    if dd < 0:
        raise ValueError("hinge knee must be non-negative")
    if alpha == 0.0 or dd >= high:
        return Pwl.zero(low, high)
    if dd <= low:
        return Pwl((low, high), (alpha * (low - dd), alpha * (high - dd)))
    return Pwl((low, dd, high), (0.0, 0.0, alpha * (high - dd)))


def reference_pwl(xs, ys) -> Pwl:
    """``Pwl(xs, ys)`` in three steps: the checks and float coercion, a
    stable sort by x of lists that are not sorted, then the merge, which
    keeps the first of near-equal abscissae (module docstring of ``pwl``)."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("breakpoints and values must be non-empty and aligned")
    if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
        raise ValueError("breakpoints and values must be finite")
    xs, ys = list(map(float, xs)), list(map(float, ys))
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
        e = TOL * y if y > 1.0 else -TOL * y if y < -1.0 else TOL  # TOL * max(1, |y|)
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
    f = object.__new__(Pwl)
    object.__setattr__(f, "xs", tuple(out_x))
    object.__setattr__(f, "ys", tuple(out_y))
    return f


def shift_column(f: Pwl, delta: float, slope: float, intercept: float,
                 grid: list[float]) -> list[float]:
    """One part's column of ``pwl.shift_table`` on its grid, built in three
    lists: the clamped arguments, their values by one ``_values_at`` walk,
    and the affine term added in ``shift_table``'s order."""
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
    return [v + slope * t + intercept for t, v in zip(grid, vals)]


def slopes(f: Pwl) -> tuple[float, ...]:
    return tuple(
        (f.ys[i + 1] - f.ys[i]) / (f.xs[i + 1] - f.xs[i])
        for i in range(len(f.xs) - 1)
    )


def is_convex(f: Pwl, tol: float = TOL) -> bool:
    s = slopes(f)
    return all(s[i + 1] >= s[i] - tol for i in range(len(s) - 1))


def dump_csv(f: Pwl) -> str:
    """One ``breakpoint,value`` line per breakpoint, in repr form (tells -0.0 from 0.0)."""
    return "\n".join(f"{x!r},{y!r}" for x, y in zip(f.xs, f.ys))
