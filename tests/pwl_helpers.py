"""Helpers for `Pwl` that only the tests need: the tardiness hinge, a
reference shift column, and inspection."""

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
