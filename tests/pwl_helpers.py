"""Inspection helpers for `Pwl` that only the tests need."""

from famsched.pwl import TOL, Pwl


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
