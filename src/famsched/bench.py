"""Random instance generation and brute-force sequence enumeration.

The generator draws every parameter from the uniform ranges used for the
benchmark batches (compression rate fixed to 1, due-date ladders built by
accumulating uniform steps from a fixed origin).  Enumeration over all class
interleavings, with exact per-sequence compression optimization, is a second
exact solver.  Its search shares no code with the state-space solver: it
imports nothing from ``pwl`` and none of ``schedule``'s stage transforms,
and costs each class list by an exact convex pass over its prefixes
(``_append``).  Only the winner goes through the fixed-sequence chain,
``schedule.solve_sequence``, for its compressions and timeline.  The LP
oracle in ``tests/lp_reference.py`` is a third reference, which reads only
instance data.

The generator's stream is numpy's ``default_rng(seed).uniform`` (PCG64 seeded
through ``SeedSequence``), reproduced bit for bit in pure Python and checked
against numpy in the tests, so generating an instance does not load numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import factorial, inf, isfinite

from .instance import ClassParams, Instance
from .schedule import TIE, Schedule, Sequence, solve_sequence

# Names the stream in every generated file's metadata.  The stream is numpy's
# default_rng; _uniform reproduces it, and the tests check it against numpy.
RNG_NAME = "numpy-default_rng"
# Most sequences brute_force_solve enumerates.  It bounds sequences, not work:
# each distinct prefix costs one _append, and jobs (1, N-1) have N sequences
# but about N^2/2 prefixes: (1, 319) passes the cap and takes about 5 s.
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
        object.__setattr__(self, "jobs", tuple(
            _whole(n, f"jobs[{k}]") for k, n in enumerate(self.jobs)))
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
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


def _whole(value, field: str) -> int:
    """``value`` as a Python int; a bool, float or str is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


_M32 = 0xFFFFFFFF
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform(seed: int):
    """numpy's ``default_rng(seed).uniform``, as a function of ``(a, b)``.

    PCG64 (XSL-RR output on a 128-bit LCG) seeded as numpy seeds it; a draw
    maps the top 53 bits of the next output into ``[a, b)``.
    """
    words = _seed_words(seed)
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _M128

    def uniform(a: float, b: float) -> float:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        out = (state >> 64 ^ state) & _M64
        out = (out >> rot | out << (64 - rot)) & _M64
        return a + (b - a) * ((out >> 11) * 2.0**-53)

    return uniform


def generate(params: GenParams) -> Instance:
    """Deterministic instance for a seed; always passes validation.

    Setup matrices get exact zero diagonals.
    """
    uniform = _uniform(params.seed)
    classes = []
    for n_k in params.jobs:
        pt_nom = uniform(*PT_NOM_RANGE)
        pt_low = uniform(*PT_LOW_RANGE)
        beta = uniform(*BETA_RANGE)
        alpha = tuple(uniform(*ALPHA_RANGE) for _ in range(n_k))
        dd = []
        prev = DD_START
        for _ in range(n_k):
            prev = prev + uniform(*DD_STEP_RANGE)
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
            st[h][k] = uniform(*ST_RANGE)
            sc[h][k] = uniform(*SC_RANGE)
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


def _append(inst: Instance, prefix: tuple, k: int) -> tuple:
    """``prefix`` followed by one more class-``k`` job, which takes the
    class's next due-date slot.

    A prefix is (class list, completion with no compression, cost at X = 0,
    segments).  X is the processing time the prefix saves by compression; its
    least cost at X is the cost at 0 plus the integral from 0 to X of the
    (slope, length) segments, kept in slope order, so it is convex.  The
    job's compression, ``beta`` a unit up to ``pt_nom - pt_low``, merges one
    segment into them: an infimal convolution merges slope sequences.  Its
    tardiness ``alpha * max(E - X, 0)``, with E its completion minus its due
    date, adds ``alpha * max(E, 0)`` to the cost at 0 and lowers the slopes
    on [0, E) by ``alpha``.  Only sums and comparisons: no tolerance.
    """
    order, completion, cost, segments = prefix
    cp, i, prev = inst.classes[k], order.count(k), (order[-1] if order else None)
    completion, cost = completion + inst.setup_time(prev, k) + cp.pt_nom, cost + inst.setup_cost(prev, k)
    excess, alpha = completion - cp.dd[i], cp.alpha[i]
    cost += alpha * max(excess, 0.0)
    segments = sorted(segments + [(cp.beta, cp.pt_nom - cp.pt_low)])
    for j, (slope, length) in enumerate(segments):
        if excess <= 0.0:
            break
        segments[j] = (slope - alpha, min(length, excess))
        if length > excess:  # split at E; the next pass stops on the right part
            segments.insert(j + 1, (slope, length - excess))
        excess -= length
    return order + (k,), completion, cost, segments


def brute_force_solve(inst: Instance) -> Schedule:
    """Global optimum by full enumeration of the class interleavings.

    Ties go to the lexicographically smallest class list among the
    sequences whose cost lies within ``TIE`` of the minimum.

    The class lists are walked as prefixes, depth first in lexicographic
    order, on an explicit stack, so the Python stack depth does not grow
    with the number of jobs.  Each prefix is built once, by ``_append`` on
    its parent, and shared by every sequence that starts with it.  A whole
    list costs its cost at X = 0 plus its negative-slope segments.  Only the
    winner gets its compressions and timeline, from ``solve_sequence``.
    """
    total = count_sequences(inst)
    if total > ENUM_CAP:
        raise ValueError(f"sequence count {total} exceeds the enumeration cap {ENUM_CAP}")
    jobs, n = inst.jobs_per_class, inst.total_jobs
    best, near = inf, []  # (cost, order) within TIE of best; the walk is lexicographic
    stack = [((), 0.0, 0.0, [])]  # smallest class on top
    while stack:
        order, _, cost, segments = prefix = stack.pop()
        if len(order) < n:
            stack += [_append(inst, prefix, k) for k in reversed(range(len(jobs))) if order.count(k) < jobs[k]]
            continue
        cost += sum(slope * length for slope, length in segments if slope < 0.0)
        if not isfinite(cost):
            raise ValueError(f"class list {order} has cost {cost}, which is not finite")
        if cost < best:
            best = cost
            near = [c for c in near if c[0] <= best + TIE]
        if cost <= best + TIE:
            near.append((cost, order))
    return solve_sequence(inst, Sequence(near[0][1]))
