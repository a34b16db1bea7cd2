"""Job sequences, timelines, and exact compression optimization.

A sequence is the list of classes served per stage; within a class, jobs
take their due-date slots in order, so the class list determines everything.
Timelines are built no-idle: every optimal schedule can be realized without
inserted idle time, and the cost of a (sequence, compression) pair is

    sum alpha[k][i] * tardiness  +  sum beta[k] * gamma[k] * u[k][i]
    +  sum setup costs along the sequence.

For a fixed sequence the best compressions are found exactly by a backward
pass of piecewise-linear cost-to-go functions: each stage folds a tardiness
hinge and the linear compression cost into the successor's function, then a
sliding-window minimum absorbs the continuous processing-time choice.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .instance import ClassParams, Instance, start_window
from .pwl import Pwl, shift_table, window_min_of

# Absolute tie tolerance: costs within TIE of each other are equal, and a
# compression amount within TIE of a bound is that bound.
TIE = 1e-9


class SequenceError(ValueError):
    """A class list does not match the instance's job multiplicities."""


class PlanBoundsError(ValueError):
    """A compression amount lies outside [0, u_max] for its class."""


@dataclass(frozen=True)
class Sequence:
    """Classes served per stage, 0-based; the m-th occurrence of class k
    serves the m-th due-date slot of that class."""

    order: tuple[int, ...]

    @classmethod
    def from_1based(cls, order) -> "Sequence":
        return cls(tuple(int(k) - 1 for k in order))

    def to_1based(self) -> list[int]:
        return [k + 1 for k in self.order]

    def check(self, inst: Instance) -> None:
        counts = [0] * inst.n_classes
        for pos, k in enumerate(self.order):
            if not 0 <= k < inst.n_classes:
                raise SequenceError(f"stage {pos}: class index {k} out of range")
            counts[k] += 1
        if tuple(counts) != inst.jobs_per_class:
            raise SequenceError(
                f"class multiplicities {tuple(counts)} do not match instance {inst.jobs_per_class}"
            )

    def stages(self, inst: Instance) -> list["StageJob"]:
        """Expand into per-stage jobs with their setup data."""
        self.check(inst)
        seen = [0] * inst.n_classes
        prev: int | None = None
        out = []
        for pos, k in enumerate(self.order):
            out.append(
                StageJob(
                    stage=pos,
                    cls=k,
                    idx=seen[k],
                    st=inst.setup_time(prev, k),
                    sc=inst.setup_cost(prev, k),
                )
            )
            seen[k] += 1
            prev = k
        return out


@dataclass(frozen=True)
class StageJob:
    """One served job: its class, within-class index, and setup burden."""

    stage: int
    cls: int
    idx: int
    st: float
    sc: float


@dataclass(frozen=True)
class CompressionPlan:
    """Per-job resource amounts u[k][i] >= 0, bounded by each class's u_max."""

    u: tuple[tuple[float, ...], ...]

    @classmethod
    def zero(cls, inst: Instance) -> "CompressionPlan":
        return cls(tuple((0.0,) * cp.n_jobs for cp in inst.classes))

    def check(self, inst: Instance) -> None:
        if len(self.u) != inst.n_classes or any(
            len(row) != cp.n_jobs for row, cp in zip(self.u, inst.classes)
        ):
            raise PlanBoundsError("plan shape does not match the instance")
        for k, (row, cp) in enumerate(zip(self.u, inst.classes)):
            for i, v in enumerate(row):
                if not -TIE <= v <= cp.u_max + TIE:
                    raise PlanBoundsError(
                        f"u[{k + 1}][{i + 1}] = {v} outside [0, {cp.u_max}]"
                    )


@dataclass(frozen=True)
class Timeline:
    """Derived per-job quantities, laid out [class][job], plus cost totals."""

    start: tuple[tuple[float, ...], ...]
    setup_time: tuple[tuple[float, ...], ...]
    proc: tuple[tuple[float, ...], ...]
    completion: tuple[tuple[float, ...], ...]
    tardiness: tuple[tuple[float, ...], ...]
    setup_cost: tuple[tuple[float, ...], ...]
    tardiness_cost: float
    compression_cost: float
    setup_cost_total: float
    total_cost: float


@dataclass(frozen=True)
class Schedule:
    """A sequence, its compression plan, and the resulting timeline."""

    sequence: Sequence
    plan: CompressionPlan
    timeline: Timeline

    @property
    def cost(self) -> float:
        return self.timeline.total_cost


def build_timeline(inst: Instance, seq: Sequence, plan: CompressionPlan) -> Timeline:
    """Forward no-idle construction of starts, setups, completions, and cost."""
    plan.check(inst)
    k_count = inst.n_classes
    start = [[0.0] * cp.n_jobs for cp in inst.classes]
    setup_t = [[0.0] * cp.n_jobs for cp in inst.classes]
    proc = [[0.0] * cp.n_jobs for cp in inst.classes]
    comp = [[0.0] * cp.n_jobs for cp in inst.classes]
    tard = [[0.0] * cp.n_jobs for cp in inst.classes]
    setup_c = [[0.0] * cp.n_jobs for cp in inst.classes]
    t = 0.0
    for job in seq.stages(inst):
        cp = inst.classes[job.cls]
        u = plan.u[job.cls][job.idx]
        pt = cp.pt_nom - cp.gamma * u
        start[job.cls][job.idx] = t
        setup_t[job.cls][job.idx] = job.st
        proc[job.cls][job.idx] = pt
        c = t + job.st + pt
        comp[job.cls][job.idx] = c
        tard[job.cls][job.idx] = max(c - cp.dd[job.idx], 0.0)
        setup_c[job.cls][job.idx] = job.sc
        t = c
    tard_cost = sum(
        inst.classes[k].alpha[i] * tard[k][i]
        for k in range(k_count)
        for i in range(inst.classes[k].n_jobs)
    )
    compr_cost = sum(
        inst.classes[k].beta * inst.classes[k].gamma * plan.u[k][i]
        for k in range(k_count)
        for i in range(inst.classes[k].n_jobs)
    )
    setup_total = sum(v for row in setup_c for v in row)
    return Timeline(
        start=tuple(tuple(r) for r in start),
        setup_time=tuple(tuple(r) for r in setup_t),
        proc=tuple(tuple(r) for r in proc),
        completion=tuple(tuple(r) for r in comp),
        tardiness=tuple(tuple(r) for r in tard),
        setup_cost=tuple(tuple(r) for r in setup_c),
        tardiness_cost=tard_cost,
        compression_cost=compr_cost,
        setup_cost_total=setup_total,
        total_cost=tard_cost + compr_cost + setup_total,
    )


# -- stage transforms, shared by the DP and the chain ----------------


def stage_objective(child_value: Pwl, cp: ClassParams, i: int) -> Pwl:
    """F(s) = tardiness hinge at s + child cost-to-go at s - beta * s, for
    slot i of class ``cp``: the hinge has slope alpha[i] and knee dd[i].

    s is the served job's completion time; the -beta*s term carries the
    compression credit so that F's window minimum is a function of the
    decision window's position only.  ``dp.query_policy`` builds F for the
    move it chooses, for ``serve``; the solvers window ``objective_lists``.

    Built in one construction from ``objective_lists`` of the child's
    breakpoints: bit-identical to ``child_value.add(hinge(alpha, dd, low,
    high)).add_affine(-beta, 0.0)`` (``tests/pwl_helpers.py``) wherever the
    hinge's knee is off the ends and one merge keeps what two would keep.
    """
    return Pwl(*objective_lists(list(child_value.xs), list(child_value.ys), cp, i))


def objective_lists(xs: list[float], ys: list[float], cp: ClassParams,
                    i: int) -> tuple[list[float], list[float]]:
    """``stage_objective``'s breakpoint lists before the merge, from the child
    cost-to-go's lists, which it extends in place: the knee dd is inserted
    where it lies strictly inside the domain, valued by ``_values_at``'s
    interpolation formula; the hinge takes the breakpoint values of its own
    ``Pwl`` on [low, high].  alpha and dd are not checked here:
    ``validate_instance`` does.

    The DP and a fixed sequence's chain build a stage the same way, as
    ``Pwl(xs, ys)`` or as ``pwl.window_min_of(xs, ys, pt_nom - pt_low)``,
    which is bit-identical to windowing the ``Pwl`` wherever the merge drops
    nothing.  The DP passes a stored cost-to-go's lists; the chain passes
    ``pwl.shift_table`` of the successor's part (its window minimum and
    ``stage_part``'s constants) on the stage's ``start_window``: the
    successor's ``stage_value`` before the merge.
    """
    alpha, dd, beta = cp.alpha[i], cp.dd[i], cp.beta
    low, high = xs[0], xs[-1]
    if alpha == 0.0 or dd >= high:
        hinge = [0.0] * len(xs)
    elif dd <= low:  # the line through (low, alpha*(low - dd)) and (high, alpha*(high - dd))
        y0, y1 = alpha * (low - dd), alpha * (high - dd)
        hinge = [y0 + (y1 - y0) * (x - low) / (high - low) for x in xs[:-1]] + [y1]
    else:  # zero up to the knee, then the line to (high, alpha*(high - dd))
        i = bisect_left(xs, dd)
        if xs[i] != dd:
            x0, x1, y0 = xs[i - 1], xs[i], ys[i - 1]
            xs.insert(i, dd)
            ys.insert(i, y0 + (ys[i] - y0) * (dd - x0) / (x1 - x0))
        y1 = alpha * (high - dd)
        hinge = [0.0] * (i + 1) + [y1 * (x - dd) / (high - dd) for x in xs[i + 1:-1]] + [y1]
    return xs, [y + h - beta * x for x, y, h in zip(xs, ys, hinge)]


def stage_value(windowed: Pwl, cp: ClassParams, st: float, sc: float, low: float, high: float) -> Pwl:
    """Cost-to-go before the stage, as a function of the stage's start time t
    on the domain [low, high]: one ``shift`` of ``windowed`` by
    ``stage_part``'s constants.

    ``windowed`` is the stage objective's window minimum,
    ``objective.window_min(pt_nom - pt_low)``; it does not depend on the setup,
    so callers that reach one job's objective after different predecessors
    window it once.  The solvers build the same function inside
    ``pwl.envelope`` and ``pwl.shift_table``; this stays because
    ``perfbench/tracer.py`` wraps it by name.
    """
    delta, slope, intercept = stage_part(cp, st, sc)
    return windowed.shift(delta, low, high, slope, intercept)


def stage_part(cp: ClassParams, st: float, sc: float) -> tuple[float, float, float]:
    """The constants ``(delta, slope, intercept)`` of a class-``cp`` stage
    with setup (st, sc): its cost-to-go at start time t is ``intercept +
    slope * t`` plus the stage objective's window minimum at ``t + delta``.
    That window minimum in front of them is a part of ``pwl.envelope`` and
    ``pwl.shift_table``."""
    return st + cp.pt_low, cp.beta, sc + cp.beta * (cp.pt_nom + st)


def select_completion(objective: Pwl, lo: float, hi: float) -> float:
    """Deterministic choice among equal-cost completion times.

    Take the fully-compressed endpoint of the window when it attains the
    minimum (compressing is then free); otherwise the latest minimizer, so
    work is deferred and jobs finish just in time.  This selection is what
    the reported optimal tableaus use.
    """
    lowest, highest = objective.argmin_over(lo, hi)
    return lo if lowest == lo else highest


def serve(objective: Pwl, cp: ClassParams, t: float, st: float) -> tuple[float, float]:
    """Completion s of a class-``cp`` job started at t with setup time st, by
    select_completion, and its compression amount u, set to the bound 0 or
    u_max it lies within TIE of and clamped to [0, u_max] otherwise."""
    s = select_completion(objective, t + st + cp.pt_low, t + st + cp.pt_nom)
    u = (cp.pt_nom - (s - t - st)) / cp.gamma
    if abs(u) <= TIE:
        return s, 0.0
    if abs(u - cp.u_max) <= TIE:
        return s, cp.u_max
    return s, min(max(u, 0.0), cp.u_max)


def optimize_compressions(inst: Instance, seq: Sequence) -> CompressionPlan:
    """An exact minimizer of the total cost over all compression plans for
    seq; its cost is the plan's ``build_timeline`` total.

    Backward pass: cost-to-go functions along the job chain, each carried to
    the predecessor stage as its window minimum in front of its
    ``stage_part``.  A stage's ``objective_lists`` are built from
    ``shift_table`` of that part on the ``start_window`` of the counts served
    through its job (the terminal zero on the window with every job done);
    their ``Pwl`` is kept for ``serve``, and ``window_min_of`` of the same
    lists gives the next part.  The enumeration oracle calls this only for
    its winner, through ``solve_sequence``.
    Forward pass: recover one optimal completion per stage with ``serve``.
    """
    jobs = seq.stages(inst)
    counts = list(inst.jobs_per_class)  # jobs done once the current job completes
    part = (Pwl.zero(*start_window(inst, counts)), 0.0, 0.0, 0.0)  # no successor: cost-to-go 0
    objectives: list[Pwl] = [None] * len(jobs)  # type: ignore[list-item]
    for job in reversed(jobs):
        cp = inst.classes[job.cls]
        xs, (ys,) = shift_table((part,), *start_window(inst, counts))
        xs, ys = objective_lists(xs, ys, cp, job.idx)
        objectives[job.stage] = Pwl(xs, ys)
        counts[job.cls] -= 1
        if job.stage:
            part = (window_min_of(xs, ys, cp.pt_nom - cp.pt_low), *stage_part(cp, job.st, job.sc))

    u = [[0.0] * cp.n_jobs for cp in inst.classes]
    t = 0.0
    for job in jobs:
        t, u[job.cls][job.idx] = serve(objectives[job.stage], inst.classes[job.cls], t, job.st)
    return CompressionPlan(tuple(tuple(r) for r in u))


def solve_sequence(inst: Instance, seq: Sequence) -> Schedule:
    """Optimal schedule for a fixed sequence."""
    plan = optimize_compressions(inst, seq)
    return Schedule(sequence=seq, plan=plan, timeline=build_timeline(inst, seq, plan))


# -- JSON serialization -----------------------------------------------


def schedule_to_dict(inst: Instance, sched: Schedule) -> dict:
    tl = sched.timeline
    return {
        "order": sched.sequence.to_1based(),
        "u": {str(k + 1): list(row) for k, row in enumerate(sched.plan.u)},
        "timeline": {
            "S": [list(r) for r in tl.start],
            "La": [list(r) for r in tl.setup_time],
            "pt": [list(r) for r in tl.proc],
            "C": [list(r) for r in tl.completion],
            "T": [list(r) for r in tl.tardiness],
            "Om": [list(r) for r in tl.setup_cost],
            "tardiness_cost": tl.tardiness_cost,
            "compression_cost": tl.compression_cost,
            "setup_cost": tl.setup_cost_total,
            "total_cost": tl.total_cost,
        },
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def schedule_from_dict(inst: Instance, doc: dict) -> Schedule:
    """Rebuild a schedule from its JSON form; the timeline block is optional
    on input and always recomputed."""
    if not isinstance(doc, dict) or "order" not in doc or "u" not in doc:
        raise ValueError("schedule document needs 'order' and 'u'")
    order, amounts = doc["order"], doc["u"]
    if not isinstance(order, list) or not all(_is_int(k) for k in order):
        raise ValueError("'order' must be a list of integer class ids")
    if not isinstance(amounts, dict):
        raise ValueError("'u' must map class ids to lists of amounts")
    for pos, k in enumerate(order):  # checked before conversion, so the message names the file's id
        if not 1 <= k <= inst.n_classes:
            raise ValueError(f"stage {pos}: class id {k} is not in 1..{inst.n_classes}")
    seq = Sequence.from_1based(order)
    seq.check(inst)
    ids = [str(k + 1) for k in range(inst.n_classes)]
    for key in amounts:
        if key not in ids:
            raise ValueError(f"u key {key!r} is not a class id in 1..{inst.n_classes}")
    u = []
    for k, cp in enumerate(inst.classes):
        row = amounts.get(str(k + 1))
        if (not isinstance(row, list) or len(row) != cp.n_jobs
                or not all(_is_int(v) or isinstance(v, float) for v in row)):
            raise ValueError(f"u['{k + 1}'] must list {cp.n_jobs} numbers")
        try:
            u.append(tuple(float(v) for v in row))
        except OverflowError:
            raise ValueError(f"u['{k + 1}'] holds an integer too large for a float") from None
    plan = CompressionPlan(tuple(u))
    return Schedule(sequence=seq, plan=plan, timeline=build_timeline(inst, seq, plan))
