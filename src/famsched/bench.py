"""Random instance generation and brute-force sequence enumeration.

The generator draws every parameter from the uniform ranges used for the
benchmark batches (compression rate fixed to 1, due-date ladders built by
accumulating uniform steps from a fixed origin).  Enumeration over all class
interleavings, with exact per-sequence compression optimization, is a second
exact solver.  It is not independent of the state-space solver: both build
their stage costs with ``stage_part``, ``Pwl.window_min`` and
``stage_cost``, and the oracle's ``part_objective`` shares the hinge
arithmetic of the solver's ``stage_objective`` and the shifted values of its
``pwl.envelope``.  The independent reference is the LP oracle in
``tests/lp_reference.py``, which reads only instance data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, inf

import numpy as np

from .instance import ClassParams, Instance, horizon_upper_bound
from .pwl import Pwl
from .schedule import TIE, Schedule, Sequence, part_objective, solve_sequence, stage_cost, stage_part

RNG_NAME = "numpy-default_rng"
# Most sequences brute_force_solve enumerates.  It bounds sequences, not work:
# each distinct suffix costs one Pwl build, and jobs (1, N-1) have N sequences
# but about N^2/2 suffixes.
ENUM_CAP = 10**6

# Uniform sampling ranges [a, b); pt_low never exceeds 6, the lowest pt_nom.
PT_NOM_RANGE = (6.0, 10.0)
PT_LOW_RANGE = (2.0, 6.0)
DD_START = 10.0
DD_STEP_RANGE = (0.5, 12.0)
ST_RANGE = (1.0, 3.0)
SC_RANGE = (0.5, 2.5)
ALPHA_RANGE = (0.5, 2.5)
BETA_RANGE = (0.5, 2.5)
GAMMA = 1.0


@dataclass(frozen=True)
class GenParams:
    """Jobs per class and the seed of one random instance."""

    jobs: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if len(self.jobs) < 2:
            raise ValueError("at least two classes are required")
        if any(n < 1 for n in self.jobs):
            raise ValueError("every class needs at least one job")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def metadata(self) -> dict:
        """Reproducibility record stored alongside generated instances."""
        return {
            "generator": RNG_NAME,
            "seed": self.seed,
            "jobs": list(self.jobs),
        }


def generate(params: GenParams) -> Instance:
    """Deterministic instance for a seed; always passes validation.

    Setup matrices get exact zero diagonals.
    """
    rng = np.random.default_rng(params.seed)

    def u(rg: tuple[float, float]) -> float:
        return float(rng.uniform(rg[0], rg[1]))

    classes = []
    for n_k in params.jobs:
        pt_nom = u(PT_NOM_RANGE)
        pt_low = u(PT_LOW_RANGE)
        beta = u(BETA_RANGE)
        alpha = tuple(u(ALPHA_RANGE) for _ in range(n_k))
        dd = []
        prev = DD_START
        for _ in range(n_k):
            prev = prev + u(DD_STEP_RANGE)
            dd.append(prev)
        classes.append(
            ClassParams(pt_nom=pt_nom, pt_low=pt_low, beta=beta,
                        gamma=GAMMA, alpha=alpha, dd=tuple(dd))
        )
    k_count = len(params.jobs)
    st = [[0.0] * k_count for _ in range(k_count)]
    sc = [[0.0] * k_count for _ in range(k_count)]
    for h in range(k_count):
        for k in range(k_count):
            if h == k:
                continue
            st[h][k] = u(ST_RANGE)
            sc[h][k] = u(SC_RANGE)
    return Instance(
        classes=tuple(classes),
        st=tuple(tuple(r) for r in st),
        sc=tuple(tuple(r) for r in sc),
    )


def count_sequences(inst: Instance) -> int:
    """Number of distinct class interleavings: N! / prod(N_k!)."""
    total = factorial(inst.total_jobs)
    for n_k in inst.jobs_per_class:
        total //= factorial(n_k)
    return total


def brute_force_solve(inst: Instance) -> Schedule:
    """Global optimum by full enumeration of the class interleavings.

    Ties go to the lexicographically smallest class list among the
    sequences whose cost lies within ``TIE`` of the minimum.

    The interleavings are walked from the last stage backwards, depth first,
    on an explicit stack, so the Python stack depth does not grow with the
    number of jobs.  A suffix's windowed stage objective does not depend on
    what precedes it, so each distinct suffix is built once, with the calls
    and arguments of ``optimize_compressions`` (``part_objective`` of the
    successor's ``stage_part``, then ``window_min``), and shared by every
    sequence that ends in it; the stack carries each suffix as the
    ``stage_part`` of its window minimum after one predecessor class.  Only
    the winner gets its compressions and timeline, from ``solve_sequence``.
    """
    total = count_sequences(inst)
    if total > ENUM_CAP:
        raise ValueError(f"sequence count {total} exceeds the enumeration cap {ENUM_CAP}")
    high = horizon_upper_bound(inst)
    n = inst.total_jobs
    left = list(inst.jobs_per_class)  # jobs of each class ahead of the suffix
    suffix: list[int] = []  # classes of the suffix, last stage first
    best = inf
    near: list[tuple[float, tuple[int, ...]]] = []  # (cost, order) within TIE of best
    # (suffix length, class to prepend, stage_part of the suffix), smallest class on top
    stack = [(0, k, (Pwl.zero(0.0, high), 0.0, 0.0, 0.0)) for k in reversed(range(len(left)))]
    while stack:
        depth, k, part = stack.pop()
        while len(suffix) > depth:  # back out of the suffixes already walked
            left[suffix.pop()] += 1
        cp = inst.classes[k]
        left[k] -= 1
        obj = part_objective(part, cp, left[k], 0.0, high)
        suffix.append(k)
        if depth + 1 == n:
            cost = stage_cost(obj, cp, 0.0, 0.0, 0.0)  # first stage: t = 0, no setup
            if cost < best:
                best = cost
                near = [c for c in near if c[0] <= best + TIE]
            if cost <= best + TIE:
                near.append((cost, tuple(reversed(suffix))))
        else:
            windowed = obj.window_min(cp.pt_nom - cp.pt_low)
            for h in reversed(range(len(left))):
                if left[h]:
                    stack.append((depth + 1, h, stage_part(windowed, cp, inst.st[h][k], inst.sc[h][k])))
    return solve_sequence(inst, Sequence(min(order for _, order in near)))
