"""Mixed-integer linear models for the scheduling problem.

Three formulations are compiled from an instance into a solver-agnostic
model object:

* model 1 - relative-position binaries x plus immediate-successor binaries
  delta (2*N^2 binaries);
* model 2 - immediate-successor binaries only (N^2 binaries);
* model 3 - stage-assignment binaries from the state-space view (N^2).

Models are emitted as standard LP text and checked against assignments; no
solver is embedded.  Every big-M is the horizon bound ``horizon_upper_bound``.
Every variable is non-negative and a binary is at most 1, so a model keeps
its variables as columns: the name list ``MilpModel.variables`` and the mask
``MilpModel.binary``.  Size reports count structural constraint rows only:
variable-domain declarations become bounds, and the objective is counted as
one auxiliary among the "other" (non-binary) variables.

A model keeps its rows in one columnar store, ``MilpModel.rows``: row names,
sense codes and right-hand sides, plus the compressed sparse row (CSR)
arrays ``indptr``, ``cols`` (indices into ``MilpModel.variables``) and
``coefs``, which is the form ``scipy.optimize.milp`` takes.  The objective's
terms are ``(coefficient, column)`` pairs, so the rows, the objective and
the kinds all refer to a variable by column.  Every row family is one
``_Builder.add`` call of column tables, and ``emit_lp`` and
``check_assignment`` read the arrays.  A built model's row names are a
``RowNames``: its length is known at build time, and the names are formatted
on first read, which only ``emit_lp`` and a reported violation do.  So
building, sizing and certifying a feasible schedule format no row name, and
``encode_schedule`` formats only the binary families the model declares.

Variable naming (1-based class/job ids, 0-based stage ids):
``x_h_j_k_i``, ``d_h_j_k_i``, ``u_k_i``, ``S_k_i``, ``pt_k_i``, ``T_k_i``,
``Om_k_i``, ``La_k_i``, ``C_k_i``, ``xs_k_i_j``, ``tau_j``, ``Omt_j``,
``Lat_j``, ``St_j``, ``Ct_j``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .instance import Instance, horizon_upper_bound
from .schedule import Schedule

CHECK_TOL = 1e-6  # absolute slack check_assignment allows every row and bound
SENSES = ("<=", "=", ">=")  # a row's sense code indexes this

SIZE_CONVENTION = (
    "other = continuous variables + 1 (objective auxiliary); "
    "constraints = structural rows, variable-domain declarations excluded"
)


class RowNames(Sequence):
    """The row names of a built model, formatted on first read.

    Each family of rows gives its count and a zero-argument factory of its
    names.  The length is the sum of the counts.  The first index,
    iteration or slice calls every factory, in family order, and caches the
    names; a factory that returns more or fewer names than its count raises
    ``ValueError`` there.
    """

    def __init__(self, families: list[tuple[int, Callable[[], list[str]]]]):
        self._families = families
        self._len = sum(count for count, _ in families)
        self._names: list[str] | None = None

    def __len__(self) -> int:
        return self._len

    def _list(self) -> list[str]:
        if self._names is None:
            names: list[str] = []
            for count, factory in self._families:
                family = factory()
                if len(family) != count:
                    raise ValueError(f"a row family of {count} rows got {len(family)} names")
                names += family
            self._names = names
        return self._names

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())


@dataclass(frozen=True, eq=False)
class Rows:
    """Constraint rows in compressed sparse row form.

    Row r is ``names[r]``, with sense ``SENSES[senses[r]]`` and right-hand
    side ``rhs[r]``; its terms are ``coefs[t]`` times variable ``cols[t]``
    for t in ``range(indptr[r], indptr[r + 1])``, in the order they print.
    ``names`` is a list or, in a built model, a ``RowNames``.
    """

    names: Sequence[str]
    senses: np.ndarray  # int8
    rhs: np.ndarray  # float64
    indptr: np.ndarray  # int64, one entry more than rows
    cols: np.ndarray  # int64
    coefs: np.ndarray  # float64


def _rows(names, senses, rhs, lengths, cols, coefs) -> Rows:
    """A ``Rows`` from per-row names, sense codes, right-hand sides and term
    counts, and the terms' columns and coefficients in row order."""
    indptr = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return Rows(names, np.asarray(senses, dtype=np.int8), np.asarray(rhs, dtype=np.float64),
                indptr, np.asarray(cols, dtype=np.int64), np.asarray(coefs, dtype=np.float64))


@dataclass
class MilpModel:
    """Column c is variable ``variables[c]``, binary (in [0, 1]) when
    ``binary[c]`` and otherwise continuous (>= 0); ``objective`` is
    ``(coefficient, column)`` pairs plus ``objective_constant``."""

    name: str
    variables: list[str] = field(default_factory=list)
    binary: list[bool] = field(default_factory=list)
    rows: Rows = field(default_factory=lambda: _rows([], [], [], [], [], []))
    objective: list[tuple[float, int]] = field(default_factory=list)
    objective_constant: float = 0.0

    def __post_init__(self) -> None:
        self._check_columns()

    @property
    def constraints(self) -> Sequence[str]:
        """The row names, ``rows.names``.  It stays only because the
        benchmark's tracer counts rows as ``len(model.constraints)`` (and
        columns as ``len(model.variables)``), which formats no name."""
        return self.rows.names

    def _check_columns(self) -> None:
        n, rows, cols = len(self.variables), self.rows, self.rows.cols
        if not len(rows.names) == len(rows.senses) == len(rows.rhs) == len(rows.indptr) - 1:
            raise ValueError("row names, senses, right-hand sides and indptr disagree on the row count")
        if not (rows.indptr[0] == 0 and rows.indptr[-1] == len(cols) == len(rows.coefs)):
            raise ValueError("indptr, term columns and coefficients disagree on the term count")
        if len(self.binary) != n:
            raise ValueError("not one kind per variable")
        if cols.size and not (cols.min() >= 0 and cols.max() < n):
            raise ValueError("row columns outside the variable list")
        if not all(0 <= c < n for _, c in self.objective):
            raise ValueError("objective columns outside the variable list")


@dataclass(frozen=True)
class SizeReport:
    binary_count: int
    other_count: int
    constraint_count: int
    convention: str = SIZE_CONVENTION


def size_report(model: MilpModel) -> SizeReport:
    binaries = sum(model.binary)
    return SizeReport(binaries, len(model.variables) - binaries + 1, len(model.rows.names))


class _Builder:
    """A model under construction and the job index its rows read.

    Jobs are numbered by position p in class-major order.  ``cls[p]`` and
    ``slot[p]`` are job p's 0-based class and due-date slot, ``params[p]``
    that class's parameters, ``dd[p]`` its due date, ``ids[p]`` its 1-based
    ``k_i`` name suffix, and ``blocks[k]`` the range of class k's positions.
    ``m`` is every big-M: the horizon bound.  Rows refer to variables by
    column.
    """

    def __init__(self, name: str, inst: Instance):
        self.model = MilpModel(name=name)
        self.inst = inst
        self.m = horizon_upper_bound(inst)
        self.cls = [k for k, cp in enumerate(inst.classes) for _ in range(cp.n_jobs)]
        self.slot = [i for cp in inst.classes for i in range(cp.n_jobs)]
        self.params = [inst.classes[k] for k in self.cls]
        self.dd = np.array([cp.dd[i] for cp, i in zip(self.params, self.slot)])
        self.ids = [f"{k + 1}_{i + 1}" for k, i in zip(self.cls, self.slot)]
        starts = list(accumulate(inst.jobs_per_class, initial=0))
        self.blocks = [range(a, z) for a, z in zip(starts, starts[1:])]
        self.row_names: list[tuple[int, Callable[[], list[str]]]] = []  # (row count, name factory) per add()
        self.parts: list[tuple] = []  # (sense codes, rhs, term counts, cols, coefs) per add()

    def per_job(self, param: str) -> np.ndarray:
        """Class parameter ``param`` of each job, by position."""
        return np.array([getattr(cp, param) for cp in self.params])

    def pairs(self) -> list[list[str]]:
        """``h_j_k_i`` name suffix of each ordered job pair, by (position, position)."""
        return [[f"{a}_{b}" for b in self.ids] for a in self.ids]

    def off_diagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions p and q of each ordered pair of distinct jobs, p-major."""
        n = len(self.ids)
        return np.nonzero(~np.eye(n, dtype=bool))

    def declare(self, prefix: str, suffixes: list[str], binary: bool) -> np.ndarray:
        """Declare ``{prefix}_{suffix}`` for each suffix; their columns, in suffix order."""
        start = len(self.model.variables)
        self.model.variables += [f"{prefix}_{s}" for s in suffixes]
        self.model.binary += [binary] * len(suffixes)
        return np.arange(start, len(self.model.variables))

    def add(self, names: Callable[[], list[str]], *families) -> None:
        """Append the rows of one or more families ``(cols, coefs, sense, rhs)``.

        Row i of a family has terms ``coefs[i, t]`` times column ``cols[i, t]``,
        where ``cols`` is a table with one row per row and ``coefs`` and
        ``rhs`` broadcast against it.  The families' rows alternate: row i of
        each family in turn, named in that order by the list that ``names()``
        returns.  ``names`` runs only when a name is read (``RowNames``), so
        it must bind its values when it is made: a loop variable or a
        reassigned local goes in as a default argument.  Zero coefficients
        are dropped, so a narrower family is padded with them.
        """
        shape = (np.shape(families[0][0])[0], len(families))
        width = max(np.shape(family[0])[1] for family in families)
        cols = np.zeros((*shape, width), dtype=np.int64)
        coefs = np.zeros((*shape, width))
        senses = np.empty(shape, dtype=np.int8)
        rhs = np.empty(shape)
        for f, (family_cols, family_coefs, sense, family_rhs) in enumerate(families):
            w = np.shape(family_cols)[1]
            cols[:, f, :w] = family_cols
            coefs[:, f, :w] = family_coefs
            senses[:, f] = SENSES.index(sense)
            rhs[:, f] = family_rhs
        cols, coefs = cols.reshape(-1, width), coefs.reshape(-1, width)
        keep = coefs != 0.0
        self.row_names.append((shape[0] * shape[1], names))
        self.parts.append((senses.ravel(), rhs.ravel(), keep.sum(axis=1), cols[keep], coefs[keep]))

    def done(self) -> MilpModel:
        self.model.rows = _rows(RowNames(self.row_names), *(np.concatenate(column) for column in zip(*self.parts)))
        self.model._check_columns()
        return self.model


def _add_common_delta_rows(b: _Builder, d: np.ndarray, v) -> None:
    """Successor-variable rows shared by models 1 and 2.

    ``d`` is the successor-binary column table and ``v`` the per-job
    continuous columns, both indexed by job position.
    """
    inst, cls, ids = b.inst, b.cls, b.ids
    n = len(ids)
    om, la, u, pt = v["Om"], v["La"], v["u"], v["pt"]
    # [q, p]: setup cost or time of job q after job p; row q sums them over the arcs into q
    sc, st = (np.array(table)[np.ix_(cls, cls)].T for table in (inst.sc, inst.st))
    ones = np.ones((n, 1))
    b.add(
        lambda: [f"{kind}_{a}" for a in ids for kind in ("scost", "stime")],
        (np.column_stack([om, d.T]), np.hstack([ones, -sc]), "=", 0.0),
        (np.column_stack([la, d.T]), np.hstack([ones, -st]), "=", 0.0),
    )
    b.add(lambda: ["all_jobs"], (d.reshape(1, -1), 1.0, "=", n - 1))
    b.add(lambda: [f"pred_{a}" for a in ids], (d.T, 1.0, "<=", 1.0))
    b.add(lambda: [f"succ_{a}" for a in ids], (d, 1.0, "<=", 1.0))
    for blk in b.blocks:  # within class k: d[p][r] = 0 for r <= p and for r >= p + 2
        own, size = d[blk.start:blk.stop, blk.start:blk.stop], len(blk)
        b.add(lambda blk=blk: [f"gdd_lo_{ids[p]}" for p in blk], (own, np.tri(size), "=", 0.0))
        b.add(lambda blk=blk: [f"gdd_hi_{ids[p]}" for p in blk[:-2]],
              (own[:-2], np.triu(np.ones((size, size)), 2)[:-2], "=", 0.0))
    b.add(
        lambda: [f"{kind}_{a}" for a in ids for kind in ("ubound", "ptdef")],
        (u[:, None], 1.0, "<=", b.per_job("u_max")),
        (np.column_stack([pt, u]), np.column_stack([np.ones(n), b.per_job("gamma")]), "=", b.per_job("pt_nom")),
    )


def _tardiness_objective(b: _Builder, v) -> list[tuple[float, int]]:
    return (
        [(cp.alpha[i], col) for cp, i, col in zip(b.params, b.slot, v["T"].tolist())]
        + [(cp.beta * cp.gamma, col) for cp, col in zip(b.params, v["u"].tolist())]
        + [(1.0, col) for col in v["Om"].tolist()]
    )


def build_model1(inst: Instance) -> MilpModel:
    """Formulation with relative-position and successor binaries.

    Variable names come from name tables formatted once per build, and row
    names from them when the rows are first read.
    """
    b = _Builder("model1", inst)
    m, ids, slot = b.m, b.ids, b.slot
    n = len(ids)
    pairs = b.pairs()
    flat = [s for row in pairs for s in row]
    x = b.declare("x", flat, True).reshape(n, n)
    d = b.declare("d", flat, True).reshape(n, n)
    v = {prefix: b.declare(prefix, ids, False) for prefix in ("u", "S", "pt", "T", "Om", "La")}
    b.model.objective = _tardiness_objective(b, v)
    s, pt, la, t = v["S"], v["pt"], v["La"], v["T"]

    b.add(lambda: [f"tard_{a}" for a in ids], (np.column_stack([t, s, la, pt]), [1.0, -1.0, -1.0, -1.0], ">=", -b.dd))
    _add_common_delta_rows(b, d, v)
    p, q = b.off_diagonal()
    off = [pairs[a][c] for a, c in zip(p.tolist(), q.tolist())]
    b.add(
        lambda: [f"{kind}_{pq}" for pq in off for kind in ("after", "before")],
        (np.column_stack([s[q], s[p], la[p], pt[p], x[p, q]]), [1.0, -1.0, -1.0, -1.0, -m], ">=", -m),
        (np.column_stack([s[p], s[q], la[q], pt[q], x[p, q]]), [1.0, -1.0, -1.0, -1.0, m], ">=", 0.0),
    )
    for blk in b.blocks:  # per job p of the class, one row per r: x[r][p] = 1 for r < p, else 0
        jobs = np.arange(blk.start, blk.stop)
        pp, rr = np.repeat(jobs, len(jobs)), np.tile(jobs, len(jobs))
        b.add(lambda blk=blk: [f"gx_{'one' if r < p else 'zero'}_{ids[p]}_{slot[r] + 1}" for p in blk for r in blk],
              (x[rr, pp][:, None], 1.0, "=", (rr < pp).astype(np.float64)))
    b.add(lambda: [f"cyc2_{pq}" for pq in off], (np.column_stack([x[p, q], x[q, p]]), 1.0, "=", 1.0))
    p3, q3, r3 = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"))
    distinct = (p3 != q3) & (r3 != p3) & (r3 != q3)
    p3, q3, r3 = p3[distinct], q3[distinct], r3[distinct]
    b.add(
        lambda: [f"cyc3_{pq}_{ids[r]}" for pq, a, c in zip(off, p.tolist(), q.tolist())
                 for r in range(n) if r != a and r != c],
        (np.column_stack([x[p3, q3], x[q3, r3], x[r3, p3]]), 1.0, "<=", 2.0),
    )
    b.add(lambda: ["link_" + pq for pq in flat], (np.column_stack([x.ravel(), d.ravel()]), [1.0, -m], ">=", 1.0 - m))
    return b.done()


def build_model2(inst: Instance) -> MilpModel:
    """Successor-binaries-only formulation with explicit completion times."""
    b = _Builder("model2", inst)
    m, ids = b.m, b.ids
    n = len(ids)
    pairs = b.pairs()
    d = b.declare("d", [s for row in pairs for s in row], True).reshape(n, n)
    v = {prefix: b.declare(prefix, ids, False) for prefix in ("u", "S", "pt", "T", "Om", "La", "C")}
    b.model.objective = _tardiness_objective(b, v)
    s, pt, la, c, t = v["S"], v["pt"], v["La"], v["C"], v["T"]

    b.add(
        lambda: [f"{kind}_{a}" for a in ids for kind in ("comp", "tard")],
        (np.column_stack([c, s, la, pt]), [1.0, -1.0, -1.0, -1.0], "=", 0.0),
        (np.column_stack([t, c]), [1.0, -1.0], ">=", -b.dd),
    )
    _add_common_delta_rows(b, d, v)
    p, q = b.off_diagonal()
    b.add(
        lambda: [f"after_{pairs[a][z]}" for a, z in zip(p.tolist(), q.tolist())],
        (np.column_stack([s[q], c[p], d[p, q]]), [1.0, -1.0, -m], ">=", -m),
    )
    b.add(lambda: [f"first_{a}" for a in ids],
          (np.column_stack([c, pt, d.T]), np.r_[1.0, -1.0, np.full(n, m)], ">=", 0.0))
    return b.done()


def build_model3(inst: Instance) -> MilpModel:
    """Stage-assignment formulation derived from the state-space view."""
    b = _Builder("model3", inst)
    m, ids, cls = b.m, b.ids, b.cls
    n, classes = len(ids), range(inst.n_classes)
    stages = range(n)
    stage_ids = [str(j) for j in stages]
    xs = np.stack([b.declare(f"xs_{a}", stage_ids, True) for a in ids])  # xs[p, j]
    v = {prefix: b.declare(prefix, ids, False) for prefix in ("S", "C", "pt", "T")}
    w = {prefix: b.declare(prefix, stage_ids, False) for prefix in ("tau", "Omt", "Lat", "St", "Ct")}
    s, c, pt, t = v["S"], v["C"], v["pt"], v["T"]
    tau, omt, lat, st_, ct = w["tau"], w["Omt"], w["Lat"], w["St"], w["Ct"]
    b.model.objective = (
        [(cp.alpha[i], col) for cp, i, col in zip(b.params, b.slot, t.tolist())]
        + [(-cp.beta, col) for cp, col in zip(b.params, pt.tolist())]
        + [(1.0, col) for col in omt.tolist()]
    )
    b.model.objective_constant = sum(cp.beta * cp.pt_nom for cp in b.params)

    b.add(
        lambda: [f"{kind}_{a}" for a in ids for kind in ("tard", "pt_lo", "pt_hi")],
        (np.column_stack([t, c]), [1.0, -1.0], ">=", -b.dd),
        (pt[:, None], 1.0, ">=", b.per_job("pt_low")),
        (pt[:, None], 1.0, "<=", b.per_job("pt_nom")),
    )
    member = (np.arange(inst.n_classes)[:, None] == cls).astype(np.float64)  # member[k, p]: job p is of class k
    # row (j, h, k) binds when a class-h job is served at stage j - 1 and a class-k job at stage j
    jj, hh, kk = (a.ravel() for a in np.meshgrid(np.arange(1, n), classes, classes, indexing="ij"))
    served = np.column_stack([xs.T[jj - 1], xs.T[jj]])  # every job's xs at stages j - 1 and j
    pair = np.column_stack([member[hh], member[kk]])  # which of them are of class h and k
    sc, st, ones = np.array(inst.sc)[hh, kk], np.array(inst.st)[hh, kk], np.ones(len(jj))
    b.add(
        lambda jj=jj: [f"{kind}_{j}_{h + 1}_{k + 1}" for j, h, k in zip(jj.tolist(), hh.tolist(), kk.tolist())
                       for kind in ("scost", "stime")],  # jj is reassigned below
        (np.column_stack([omt[jj], served]), np.column_stack([ones, -sc[:, None] * pair]), ">=", -sc),
        (np.column_stack([lat[jj], served]), np.column_stack([ones, -st[:, None] * pair]), ">=", -st),
    )
    b.add(lambda: ["scost_0", "stime_0"], ([[omt[0]]], 1.0, "=", 0.0), ([[lat[0]]], 1.0, "=", 0.0))
    b.add(lambda: [f"chain_{j}" for j in stages[1:]], (np.column_stack([st_[1:], ct[:-1]]), [1.0, -1.0], "=", 0.0))
    b.add(lambda: ["chain_0"], ([[st_[0]]], 1.0, "=", 0.0))
    b.add(lambda: [f"scomp_{j}" for j in stages],
          (np.column_stack([ct, st_, lat, tau]), [1.0, -1.0, -1.0, -1.0], "=", 0.0))
    jj, pp = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)  # stage-major
    serves = xs[pp, jj]  # job p is served at stage j
    b.add(
        lambda: [f"{kind}_{j}_{a}" for j in stages for a in ids for kind in ("ptlink", "slink", "clink")],
        (np.column_stack([tau[jj], pt[pp], serves]), [1.0, -1.0, -m], ">=", -m),
        (np.column_stack([s[pp], st_[jj], serves]), [1.0, -1.0, -m], ">=", -m),
        (np.column_stack([c[pp], ct[jj], serves]), [1.0, -1.0, -m], ">=", -m),
    )
    later = np.array([p for blk in b.blocks for p in blk[1:]], dtype=np.int64)  # jobs after the first of a class
    b.add(lambda: [f"gdd_{ids[p]}" for p in later],
          (np.column_stack([s[later], c[later - 1]]), [1.0, -1.0], ">=", 0.0))
    b.add(lambda: [f"stage_one_{j}" for j in stages], (xs.T, 1.0, "=", 1.0))
    b.add(
        lambda: [f"class_total_{k + 1}" for k in classes],
        (np.broadcast_to(xs.ravel(), (len(classes), n * n)), np.repeat(member, n, axis=1), "=", member.sum(axis=1)),
    )
    b.add(lambda: [f"once_{a}" for a in ids], (xs, 1.0, "=", 1.0))
    return b.done()


def build_model(inst: Instance, which: int) -> MilpModel:
    if which == 1:
        return build_model1(inst)
    if which == 2:
        return build_model2(inst)
    if which == 3:
        return build_model3(inst)
    raise ValueError(f"unknown model id {which}")


# -- schedule encoding and certificate checking -------------------------


def encode_schedule(inst: Instance, sched: Schedule, model: MilpModel) -> dict[str, float]:
    """Value of each variable of ``model`` in a feasible schedule, keyed by
    name in declaration order.

    Each of the model's variable names is looked up in one table of the
    schedule's values, keyed by every name a builder can declare (module
    docstring): ``<family>_k_i`` is job (k, i)'s entry of the plan or
    timeline, ``<family>_j`` that of the job served at stage j, and the
    binary ``d_h_j_k_i``, ``x_h_j_k_i`` or ``xs_k_i_j`` is 1 when job (k, i)
    directly follows job (h, j), comes after it, or is served at stage j.
    The table formats a binary family's N^2 names only when the model
    declares the family.  Any other name raises ``ValueError``.
    """
    stages = sched.sequence.stages(inst)  # raises on multiplicity mismatch
    sched.plan.check(inst)
    tl = sched.timeline
    per_job = {"u": sched.plan.u, "S": tl.start, "pt": tl.proc, "T": tl.tardiness,
               "Om": tl.setup_cost, "La": tl.setup_time, "C": tl.completion}
    per_stage = {"tau": tl.proc, "Omt": tl.setup_cost, "Lat": tl.setup_time,
                 "St": tl.start, "Ct": tl.completion}
    ids = [f"{job.cls + 1}_{job.idx + 1}" for job in stages]  # by stage
    value: dict[str, float] = {}
    for p, (job, a) in enumerate(zip(stages, ids)):
        value.update((f"{family}_{a}", table[job.cls][job.idx]) for family, table in per_job.items())
        value.update((f"{family}_{p}", table[job.cls][job.idx]) for family, table in per_stage.items())
    declared = {name.partition("_")[0] for name in model.variables}
    if "d" in declared:
        value.update((f"d_{a}_{b}", 1.0 if q == p + 1 else 0.0) for p, a in enumerate(ids) for q, b in enumerate(ids))
    if "x" in declared:
        value.update((f"x_{a}_{b}", 1.0 if p < q else 0.0) for p, a in enumerate(ids) for q, b in enumerate(ids))
    if "xs" in declared:
        value.update((f"xs_{a}_{q}", 1.0 if q == p else 0.0) for p, a in enumerate(ids) for q in range(len(ids)))
    try:
        return {name: value[name] for name in model.variables}
    except KeyError as exc:
        raise ValueError(f"variable {exc.args[0]} is no schedule quantity") from None


@dataclass(frozen=True)
class CheckViolation:
    kind: str  # "constraint" | "bound" | "integrality"
    name: str
    amount: float
    detail: str


@dataclass(frozen=True)
class CheckReport:
    violations: tuple[CheckViolation, ...]
    objective: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_assignment(model: MilpModel, assignment: dict[str, float]) -> CheckReport:
    """Feasibility certificate: every row and bound checked against CHECK_TOL.

    A NaN value fails its lower bound and a NaN row gap its row.  The row
    sums are one pass over the terms, each row summed left to right.
    """
    try:
        values = [assignment[name] for name in model.variables]
    except KeyError as exc:
        raise ValueError(f"assignment missing variable {exc.args[0]}") from None
    rows = model.rows
    x = np.array(values, dtype=np.float64)
    binary = np.array(model.binary, dtype=bool)
    with np.errstate(all="ignore"):
        # a superset of the variables the loop below reports on
        suspect = ~(x >= -CHECK_TOL) | binary & ~((x <= 1.0 + CHECK_TOL) & (np.abs(x - np.rint(x)) <= CHECK_TOL))
        row_of_term = np.repeat(np.arange(len(rows.names)), np.diff(rows.indptr))
        lhs = np.bincount(row_of_term, weights=rows.coefs * x[rows.cols], minlength=len(rows.names))
        gap = np.choose(rows.senses, (lhs - rows.rhs, np.abs(lhs - rows.rhs), rows.rhs - lhs))
        failed = np.flatnonzero(~(gap <= CHECK_TOL))
    out: list[CheckViolation] = []
    for c in np.flatnonzero(suspect).tolist():
        name, val = model.variables[c], values[c]
        if not val >= -CHECK_TOL:
            out.append(CheckViolation("bound", name, -val, f"{name}={val} < lb 0.0"))
        if model.binary[c]:
            if val > 1.0 + CHECK_TOL:
                out.append(CheckViolation("bound", name, val - 1.0, f"{name}={val} > ub 1.0"))
            if math.isfinite(val) and abs(val - round(val)) > CHECK_TOL:
                out.append(CheckViolation("integrality", name, abs(val - round(val)), f"{name}={val} not integral"))
    for r in failed.tolist():
        name, sense, value, rhs = rows.names[r], SENSES[rows.senses[r]], float(lhs[r]), float(rows.rhs[r])
        out.append(CheckViolation("constraint", name, float(gap[r]), f"{name}: lhs={value} {sense} rhs={rhs}"))
    objective = model.objective_constant + sum([coef * values[c] for coef, c in model.objective])
    return CheckReport(tuple(out), objective)


# -- LP text ------------------------------------------------------------


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _terms_text(terms, names, prefix) -> str:
    """``terms`` are ``(coefficient, column)`` pairs, ``names`` the column
    names, and ``prefix`` maps a coefficient to its ``"<sign> <digits> "`` text."""
    parts = [prefix(coef) + names[c] for coef, c in terms]
    if not parts:
        return "0 " + "__zero__"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _rows_text(model: MilpModel, prefix) -> list[str]:
    """The `` <name>: <terms> <sense> <rhs>`` lines, each ending in a newline,
    as the texts of consecutive batches of rows.

    Every piece of text is an entry of one shared string table: the
    separators, each coefficient's inner and leading text, each sense and
    right-hand side's tail, the variables and the row names.  Row r of a
    batch is ``" "``, its name, ``": "``, a coefficient and a variable piece
    per term (term t at ``4r + 2t + 3``), and its tail.  Each batch places
    table indices by index arithmetic, gathers its pieces in one take and
    joins them.  Batching bounds the pieces' memory.
    """
    rows = model.rows
    coefs = np.unique(rows.coefs)
    signed = [prefix(c) for c in coefs.tolist()]
    rhs = np.unique(rows.rhs)
    texts = [" ", ": ", ": 0 __zero__", *(" " + text for text in signed),
             *(text[2:] if text.startswith("+ ") else text for text in signed),
             *(f" {sense} {_fmt(value)}\n" for sense in SENSES for value in rhs.tolist())]
    inner = 3  # table index of the first coefficient's inner text
    first = inner + len(coefs)  # of its leading text
    tails = first + len(coefs)  # of sense 0's first tail; sense s's tails follow at s * len(rhs)
    variables = len(texts)
    names = variables + len(model.variables)
    table = np.array([*texts, *model.variables, *rows.names], dtype=object)
    out = []
    for a in range(0, len(rows.names), _BATCH):
        z = min(a + _BATCH, len(rows.names))
        ptr = rows.indptr[a:z + 1]
        counts = np.diff(ptr)
        r = np.arange(z - a)
        start = 4 * r + 2 * (ptr[:-1] - ptr[0])
        index = np.zeros(4 * (z - a) + 2 * (ptr[-1] - ptr[0]), dtype=np.int64)  # 0 is " "
        index[start + 1] = names + a + r
        index[start + 2] = 1 + (counts == 0)
        code = np.searchsorted(coefs, rows.coefs[ptr[0]:ptr[-1]])
        at = 2 * np.arange(len(code)) + 4 * np.repeat(r, counts) + 3
        index[at] = inner + code
        leads = (ptr[:-1] - ptr[0])[counts > 0]
        index[at[leads]] = first + code[leads]
        index[at + 1] = variables + rows.cols[ptr[0]:ptr[-1]]
        sense = rows.senses[a:z].astype(np.int64)
        index[start + 2 * counts + 3] = tails + len(rhs) * sense + np.searchsorted(rhs, rows.rhs[a:z])
        out.append("".join(table[index].tolist()))
    return out


def emit_lp(model: MilpModel) -> str:
    """Standard LP text: objective, rows, bounds, binary section."""
    # A model has few distinct coefficients and right-hand sides, so each is
    # formatted once per call (0.0 and -0.0 compare equal and both print "0").
    prefix = functools.cache(lambda c: f"{'-' if c < 0 else '+'} {_fmt(abs(c))} ")
    head = [f"\\ Problem: {model.name}"]
    if model.objective_constant:
        head.append(f"\\ objective_constant: {model.objective_constant!r}")
    head += ["Minimize", f" obj: {_terms_text(model.objective, model.variables, prefix)}", "Subject To", ""]
    tail = ["Bounds", *(f" {v} >= 0" for v, b in zip(model.variables, model.binary, strict=True) if not b),
            "Binaries", *(f" {v}" for v, b in zip(model.variables, model.binary, strict=True) if b), "End", ""]
    return "".join(["\n".join(head), *_rows_text(model, prefix), "\n".join(tail)])


_BATCH = 4096  # rows per join in _rows_text

_SECTIONS = ("Minimize", "Subject To", "Bounds", "Binaries", "End")


def _number(token: str) -> float:
    """A finite number; ``emit_lp`` writes no other."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError
    return value


def _read_terms(tokens: list[str]) -> tuple[tuple[float, str], ...]:
    """Invert ``_terms_text``: ``0 __zero__`` or ``[-] c x (+|-) c x ...``."""
    if tokens == ["0", "__zero__"]:
        return ()
    if tokens[0] != "-":
        tokens = ["+", *tokens]
    if len(tokens) % 3:
        raise ValueError
    terms = []
    for sign, coef, var in zip(tokens[0::3], tokens[1::3], tokens[2::3]):
        c = _number(coef)
        if sign not in ("+", "-") or c < 0.0:  # emit_lp writes |c|
            raise ValueError
        terms.append((c if sign == "+" else -c, var))
    return tuple(terms)


def parse_lp(text: str) -> MilpModel:
    """Read back the LP text that ``emit_lp`` writes.

    Only that grammar is read: ``\\`` comments (of which only
    ``objective_constant:`` is used), the five section headers in order, one
    `` obj: <terms>``, `` <name>: <terms> <sense> <rhs>``, `` <name> >= 0`` and
    bare binary names.  Any other line raises ``ValueError`` naming it.  The
    names are checked where each is mapped to its column: duplicate variable
    or row names and an undeclared variable raise ``ValueError``.
    """
    objective: list[tuple[float, str]] | None = None
    objective_constant = 0.0
    row_names: list[str] = []
    senses: list[int] = []
    rhs: list[float] = []
    lengths: list[int] = []
    terms: list[tuple[float, str]] = []  # every row's terms, in row order
    binaries: list[str] = []
    continuous: list[str] = []
    section = -1  # index into _SECTIONS
    for number, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        try:
            if line.startswith("\\"):
                if tokens[1:2] == ["objective_constant:"]:
                    objective_constant = _number(tokens[2])
            elif section + 1 < len(_SECTIONS) and line == _SECTIONS[section + 1]:
                section += 1
            elif not line.startswith(" "):
                raise ValueError
            elif section == 0 and tokens[0] == "obj:" and objective is None:
                objective = list(_read_terms(tokens[1:]))
            elif section == 1 and tokens[0].endswith(":") and tokens[-2] in SENSES:
                row_terms = _read_terms(tokens[1:-2])
                row_names.append(tokens[0][:-1])
                senses.append(SENSES.index(tokens[-2]))
                rhs.append(_number(tokens[-1]))
                lengths.append(len(row_terms))
                terms += row_terms
            elif section == 2 and len(tokens) == 3 and tokens[1:] == [">=", "0"]:
                continuous.append(tokens[0])
            elif section == 3 and len(tokens) == 1:
                binaries.append(tokens[0])
            else:
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(f"line {number} is not emit_lp syntax: {line!r}") from None
    if section != len(_SECTIONS) - 1:
        raise ValueError("LP text ends before its End line")
    if objective is None:
        raise ValueError("LP text has no objective line")
    variables = binaries + continuous
    column = {name: c for c, name in enumerate(variables)}
    if len(column) != len(variables):
        raise ValueError("duplicate variable names")
    if len(set(row_names)) != len(row_names):
        raise ValueError("duplicate constraint names")
    cols = [column.get(var, -1) for _, var in terms]
    rows = _rows(row_names, senses, rhs, lengths, cols, [coef for coef, _ in terms])
    unknown = np.flatnonzero(rows.cols < 0)
    if unknown.size:
        t = int(unknown[0])
        r = int(np.searchsorted(rows.indptr, t, side="right")) - 1
        raise ValueError(f"constraint {row_names[r]} references unknown variable {terms[t][1]}")
    try:
        objective = [(coef, column[var]) for coef, var in objective]
    except KeyError as exc:
        raise ValueError(f"objective references unknown variable {exc.args[0]}") from None
    binary = [True] * len(binaries) + [False] * len(continuous)
    return MilpModel("parsed", variables, binary, rows, objective, objective_constant)
