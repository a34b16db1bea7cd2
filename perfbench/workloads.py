"""Workload definitions: which instances each workload generates and which
CLI commands (ops) one pass runs on them.

The instance lists are fixed per workload, because the regime a DP solve
falls in (tens of breakpoints per cost-to-go function, or thousands) is a
property of the instance seed.  Each workload also names a held-out list
(``--held-out``) so that a later gain can be checked on instances not used
while writing it.  See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

# The published ladder of sizes without (20, 20) and (10, 10, 10), whose
# model-1 ops (0.3 to 1.2 s each) took 3.3 s of a 6.7 s pass and left room
# for only two passes in a run.
MILP_SIZES = ((5, 5), (10, 10), (15, 15), (5, 5, 5), (5, 5, 5, 5))
DP_LADDER_SIZES = ((5, 5), (8, 8), (10, 10), (3, 3, 2), (2, 2, 2, 2))
ENUM_SIZES = ((4, 4), (5, 3), (2, 2, 2), (3, 2, 2))

# Model-1 sizes published with the formulation: binaries, other variables, rows.
PUBLISHED_MODEL1 = {
    (5, 5): (200, 61, 1227),
    (10, 10): (800, 121, 8757),
    (15, 15): (1800, 181, 28587),
    (5, 5, 5): (450, 91, 3790),
}

# An instance with at most this many class interleavings is also solved by the
# other exact method (enumeration for a DP op, DP for an enumeration op) in
# the checks, and the two costs must agree.
ENUM_CHECK_MAX_SEQUENCES = 2000


@dataclass(frozen=True)
class Op:
    """One CLI command on one instance file."""

    command: str  # "solve" | "emit" | "certify"
    jobs: tuple[int, ...]
    seed: int
    arg: str  # solve method ("dp" | "enum") or MILP model id ("1" | "2" | "3")

    @property
    def key(self) -> str:
        """Instance key used by refs.json, e.g. ``5,5,5/9``."""
        return instance_key(self.jobs, self.seed)

    @property
    def label(self) -> str:
        flag = "--method" if self.command == "solve" else "--model"
        return f"{self.command} {flag} {self.arg} {self.key}"


def instance_key(jobs: tuple[int, ...], seed: int) -> str:
    return ",".join(str(n) for n in jobs) + f"/{seed}"


def _solves(method: str, cases) -> tuple[Op, ...]:
    return tuple(Op("solve", jobs, seed, method) for jobs, seed in cases)


def _milp(seed: int) -> tuple[Op, ...]:
    return tuple(
        Op(command, jobs, seed, str(model))
        for jobs in MILP_SIZES
        for model in (1, 2, 3)
        for command in ("emit", "certify")
    )


# name -> (ops of the main list, ops of the held-out list)
WORKLOADS: dict[str, tuple[tuple[Op, ...], tuple[Op, ...]]] = {
    "dp_ladder": (
        _solves("dp", [(jobs, 1) for jobs in DP_LADDER_SIZES]),
        _solves("dp", [(jobs, seed) for seed in (3, 4) for jobs in DP_LADDER_SIZES]),
    ),
    "dp_blowup": (
        _solves("dp", [((4, 4, 3), 14), ((4, 4, 3), 18), ((8, 8), 18)]),
        _solves("dp", [((4, 4, 4), 10), ((4, 4, 4), 12), ((10, 10), 8), ((10, 10), 17),
                       ((5, 5, 5), 0)]),
    ),
    "enum_oracle": (
        _solves("enum", [(jobs, 0) for jobs in ENUM_SIZES]),
        _solves("enum", [(jobs, 1) for jobs in ENUM_SIZES]),
    ),
    "milp_models": (_milp(0), _milp(1)),
}


def ops_for(workload: str, held_out: bool) -> tuple[Op, ...]:
    main, held = WORKLOADS[workload]
    return held if held_out else main


def instances_for(ops) -> list[tuple[tuple[int, ...], int]]:
    """Distinct (jobs, seed) pairs in first-use order."""
    seen: dict[tuple[tuple[int, ...], int], None] = {}
    for op in ops:
        seen[(op.jobs, op.seed)] = None
    return list(seen)
