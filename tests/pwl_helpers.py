"""Helpers for `Pwl` that only the tests need: the tardiness hinge and inspection."""

from famsched.pwl import TOL, Pwl


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
