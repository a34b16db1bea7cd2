"""Mixed-integer linear models for the scheduling problem.

Three formulations are compiled from an instance into a solver-agnostic
model object:

* model 1 - relative-position binaries x plus immediate-successor binaries
  delta (2*N^2 binaries);
* model 2 - immediate-successor binaries only (N^2 binaries);
* model 3 - stage-assignment binaries from the state-space view (N^2).

Models are emitted as standard LP text and checked against assignments; no
solver is embedded.  Every big-M is the horizon bound ``horizon_upper_bound``.
Every variable is non-negative and a binary is at most 1, so a variable is
its name and kind.  Size reports count structural constraint rows only:
variable-domain declarations become bounds, and the objective is counted as
one auxiliary among the "other" (non-binary) variables.

Variable naming (1-based class/job ids, 0-based stage ids):
``x_h_j_k_i``, ``d_h_j_k_i``, ``u_k_i``, ``S_k_i``, ``pt_k_i``, ``T_k_i``,
``Om_k_i``, ``La_k_i``, ``C_k_i``, ``xs_k_i_j``, ``tau_j``, ``Omt_j``,
``Lat_j``, ``St_j``, ``Ct_j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .instance import Instance, horizon_upper_bound
from .schedule import Schedule

CHECK_TOL = 1e-6  # absolute slack check_assignment allows every row and bound

SIZE_CONVENTION = (
    "other = continuous variables + 1 (objective auxiliary); "
    "constraints = structural rows, variable-domain declarations excluded"
)


class Variable(NamedTuple):
    name: str
    kind: str  # "binary" (in [0, 1]) | "continuous" (>= 0)


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass
class MilpModel:
    name: str
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: list[tuple[float, str]] = field(default_factory=list)
    objective_constant: float = 0.0

    def binaries(self) -> list[Variable]:
        return [v for v in self.variables if v.kind == "binary"]

    def continuous(self) -> list[Variable]:
        return [v for v in self.variables if v.kind == "continuous"]

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(names) != len(set(names)):
            raise ValueError("duplicate variable names")
        cnames = [c.name for c in self.constraints]
        if len(cnames) != len(set(cnames)):
            raise ValueError("duplicate constraint names")
        declared = set(names)
        if not declared.issuperset({var for c in self.constraints for _, var in c.terms}):
            for c in self.constraints:  # name the first offending row
                for _, var in c.terms:
                    if var not in declared:
                        raise ValueError(f"constraint {c.name} references unknown variable {var}")
        for coef, var in self.objective:
            if var not in declared:
                raise ValueError(f"objective references unknown variable {var}")


@dataclass(frozen=True)
class SizeReport:
    binary_count: int
    other_count: int
    constraint_count: int
    convention: str = SIZE_CONVENTION


def size_report(model: MilpModel) -> SizeReport:
    return SizeReport(
        binary_count=len(model.binaries()),
        other_count=len(model.continuous()) + 1,
        constraint_count=len(model.constraints),
    )


class _Builder:
    """A model under construction and the job index its rows read.

    Jobs are numbered by position p in class-major order.  ``cls[p]`` and
    ``slot[p]`` are job p's 0-based class and due-date slot, ``params[p]``
    that class's parameters, ``ids[p]`` its 1-based ``k_i`` name suffix, and
    ``blocks[k]`` the range of class k's positions.  ``m`` is every big-M:
    the horizon bound.
    """

    def __init__(self, name: str, inst: Instance):
        self.model = MilpModel(name=name)
        self.inst = inst
        self.m = horizon_upper_bound(inst)
        self.cls = [k for k, cp in enumerate(inst.classes) for _ in range(cp.n_jobs)]
        self.slot = [i for cp in inst.classes for i in range(cp.n_jobs)]
        self.params = [inst.classes[k] for k in self.cls]
        self.ids = [f"{k + 1}_{i + 1}" for k, i in zip(self.cls, self.slot)]
        starts = list(accumulate(inst.jobs_per_class, initial=0))
        self.blocks = [range(a, z) for a, z in zip(starts, starts[1:])]

    def pairs(self) -> list[list[str]]:
        """``h_j_k_i`` name suffix of each ordered job pair, by (position, position)."""
        return [[f"{a}_{b}" for b in self.ids] for a in self.ids]

    def declare(self, prefix: str, suffixes: list[str], kind: str) -> list[str]:
        """Declare ``{prefix}_{suffix}`` for each suffix; the names, in suffix order."""
        names = [f"{prefix}_{s}" for s in suffixes]
        self.model.variables += [Variable(name, kind) for name in names]
        return names

    def con(self, name: str, terms, sense: str, rhs: float) -> None:
        """Append a row; coefficients become floats and zero ones are dropped."""
        kept = tuple([(float(c), v) for c, v in terms if c != 0.0])
        self.model.constraints.append(Constraint(name, kept, sense, float(rhs)))

    def done(self) -> MilpModel:
        self.model.validate()
        return self.model


def _add_common_delta_rows(b: _Builder, d, v) -> None:
    """Successor-variable rows shared by models 1 and 2.

    ``d`` is the successor-binary name table and ``v`` the per-job continuous
    name lists, both indexed by job position.
    """
    inst, cls, ids = b.inst, b.cls, b.ids
    n = len(ids)
    om, la, u, pt = v["Om"], v["La"], v["u"], v["pt"]
    for q in range(n):
        k = cls[q]
        col = [row[q] for row in d]
        b.con(f"scost_{ids[q]}", [(1.0, om[q])] + [(-inst.sc[cls[p]][k], col[p]) for p in range(n)], "=", 0.0)
        b.con(f"stime_{ids[q]}", [(1.0, la[q])] + [(-inst.st[cls[p]][k], col[p]) for p in range(n)], "=", 0.0)
    b.con("all_jobs", [(1.0, name) for row in d for name in row], "=", n - 1)
    for q in range(n):
        b.con(f"pred_{ids[q]}", [(1.0, row[q]) for row in d], "<=", 1.0)
    for p in range(n):
        b.con(f"succ_{ids[p]}", [(1.0, name) for name in d[p]], "<=", 1.0)
    for blk in b.blocks:
        for p in blk:
            b.con(f"gdd_lo_{ids[p]}", [(1.0, d[p][r]) for r in range(blk.start, p + 1)], "=", 0.0)
        for p in blk[:-2]:
            b.con(f"gdd_hi_{ids[p]}", [(1.0, d[p][r]) for r in range(p + 2, blk.stop)], "=", 0.0)
    for p, cp in enumerate(b.params):
        b.con(f"ubound_{ids[p]}", [(1.0, u[p])], "<=", cp.u_max)
        b.con(f"ptdef_{ids[p]}", [(1.0, pt[p]), (cp.gamma, u[p])], "=", cp.pt_nom)


def _tardiness_objective(b: _Builder, v) -> list[tuple[float, str]]:
    return (
        [(cp.alpha[i], name) for cp, i, name in zip(b.params, b.slot, v["T"])]
        + [(cp.beta * cp.gamma, name) for cp, name in zip(b.params, v["u"])]
        + [(1.0, name) for name in v["Om"]]
    )


def build_model1(inst: Instance) -> MilpModel:
    """Formulation with relative-position and successor binaries.

    Variable and row names come from name tables formatted once per build.
    The N^3 ``cyc3`` rows, whose coefficients are the constant 1.0, are
    appended as ``Constraint`` objects directly and skip ``_Builder.con``'s
    float conversion and zero filter.
    """
    b = _Builder("model1", inst)
    m, ids, slot = b.m, b.ids, b.slot
    n = len(ids)
    pairs = b.pairs()
    x = [b.declare("x", row, "binary") for row in pairs]
    d = [b.declare("d", row, "binary") for row in pairs]
    v = {prefix: b.declare(prefix, ids, "continuous") for prefix in ("u", "S", "pt", "T", "Om", "La")}
    b.model.objective = _tardiness_objective(b, v)
    s, pt, la = v["S"], v["pt"], v["La"]

    for p, cp in enumerate(b.params):
        b.con(
            f"tard_{ids[p]}",
            [(1.0, v["T"][p]), (-1.0, s[p]), (-1.0, la[p]), (-1.0, pt[p])],
            ">=",
            -cp.dd[slot[p]],
        )
    _add_common_delta_rows(b, d, v)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            b.con(
                f"after_{pairs[p][q]}",
                [(1.0, s[q]), (-1.0, s[p]), (-1.0, la[p]), (-1.0, pt[p]), (-m, x[p][q])],
                ">=",
                -m,
            )
            b.con(
                f"before_{pairs[p][q]}",
                [(1.0, s[p]), (-1.0, s[q]), (-1.0, la[q]), (-1.0, pt[q]), (m, x[p][q])],
                ">=",
                0.0,
            )
    for blk in b.blocks:
        for p in blk:
            for r in range(blk.start, p):
                b.con(f"gx_one_{ids[p]}_{slot[r] + 1}", [(1.0, x[r][p])], "=", 1.0)
            for r in range(p, blk.stop):
                b.con(f"gx_zero_{ids[p]}_{slot[r] + 1}", [(1.0, x[r][p])], "=", 0.0)
    for p in range(n):
        for q in range(n):
            if p != q:
                b.con(f"cyc2_{pairs[p][q]}", [(1.0, x[p][q]), (1.0, x[q][p])], "=", 1.0)
    rows = b.model.constraints
    one = [[(1.0, name) for name in row] for row in x]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            head = f"cyc3_{pairs[p][q]}_"
            pq, oq = one[p][q], one[q]
            for r in range(n):
                if r != p and r != q:
                    rows.append(Constraint(head + ids[r], (pq, oq[r], one[r][p]), "<=", 2.0))
    for p in range(n):
        for q in range(n):
            b.con(f"link_{pairs[p][q]}", [(1.0, x[p][q]), (-m, d[p][q])], ">=", 1.0 - m)
    return b.done()


def build_model2(inst: Instance) -> MilpModel:
    """Successor-binaries-only formulation with explicit completion times."""
    b = _Builder("model2", inst)
    m, ids = b.m, b.ids
    n = len(ids)
    pairs = b.pairs()
    d = [b.declare("d", row, "binary") for row in pairs]
    v = {prefix: b.declare(prefix, ids, "continuous") for prefix in ("u", "S", "pt", "T", "Om", "La", "C")}
    b.model.objective = _tardiness_objective(b, v)
    s, pt, la, c = v["S"], v["pt"], v["La"], v["C"]

    for p, cp in enumerate(b.params):
        b.con(f"comp_{ids[p]}", [(1.0, c[p]), (-1.0, s[p]), (-1.0, la[p]), (-1.0, pt[p])], "=", 0.0)
        b.con(f"tard_{ids[p]}", [(1.0, v["T"][p]), (-1.0, c[p])], ">=", -cp.dd[b.slot[p]])
    _add_common_delta_rows(b, d, v)
    for p in range(n):
        for q in range(n):
            if p != q:
                b.con(f"after_{pairs[p][q]}", [(1.0, s[q]), (-1.0, c[p]), (-m, d[p][q])], ">=", -m)
    for q in range(n):
        b.con(f"first_{ids[q]}", [(1.0, c[q]), (-1.0, pt[q])] + [(m, row[q]) for row in d], ">=", 0.0)
    return b.done()


def build_model3(inst: Instance) -> MilpModel:
    """Stage-assignment formulation derived from the state-space view."""
    b = _Builder("model3", inst)
    m, ids = b.m, b.ids
    n = len(ids)
    stages = range(n)
    stage_ids = [str(j) for j in stages]
    xs = [b.declare(f"xs_{a}", stage_ids, "binary") for a in ids]
    v = {prefix: b.declare(prefix, ids, "continuous") for prefix in ("S", "C", "pt", "T")}
    w = {prefix: b.declare(prefix, stage_ids, "continuous") for prefix in ("tau", "Omt", "Lat", "St", "Ct")}
    s, c, pt, t = v["S"], v["C"], v["pt"], v["T"]
    tau, omt, lat, st_, ct = w["tau"], w["Omt"], w["Lat"], w["St"], w["Ct"]
    b.model.objective = (
        [(cp.alpha[i], name) for cp, i, name in zip(b.params, b.slot, t)]
        + [(-cp.beta, name) for cp, name in zip(b.params, pt)]
        + [(1.0, name) for name in omt]
    )
    b.model.objective_constant = sum(cp.beta * cp.pt_nom for cp in b.params)

    for p, cp in enumerate(b.params):
        b.con(f"tard_{ids[p]}", [(1.0, t[p]), (-1.0, c[p])], ">=", -cp.dd[b.slot[p]])
        b.con(f"pt_lo_{ids[p]}", [(1.0, pt[p])], ">=", cp.pt_low)
        b.con(f"pt_hi_{ids[p]}", [(1.0, pt[p])], "<=", cp.pt_nom)
    # xs names of each class's jobs at each stage
    by_class = [[[xs[p][j] for p in blk] for j in stages] for blk in b.blocks]
    for j in range(1, n):
        for h in range(inst.n_classes):
            for k in range(inst.n_classes):
                both = by_class[h][j - 1] + by_class[k][j]
                sc = inst.sc[h][k]
                st = inst.st[h][k]
                b.con(f"scost_{j}_{h + 1}_{k + 1}", [(1.0, omt[j])] + [(-sc, name) for name in both], ">=", -sc)
                b.con(f"stime_{j}_{h + 1}_{k + 1}", [(1.0, lat[j])] + [(-st, name) for name in both], ">=", -st)
    b.con("scost_0", [(1.0, "Omt_0")], "=", 0.0)
    b.con("stime_0", [(1.0, "Lat_0")], "=", 0.0)
    for j in range(1, n):
        b.con(f"chain_{j}", [(1.0, st_[j]), (-1.0, ct[j - 1])], "=", 0.0)
    b.con("chain_0", [(1.0, "St_0")], "=", 0.0)
    for j in stages:
        b.con(f"scomp_{j}", [(1.0, ct[j]), (-1.0, st_[j]), (-1.0, lat[j]), (-1.0, tau[j])], "=", 0.0)
    for j in stages:
        for p in range(n):
            b.con(f"ptlink_{j}_{ids[p]}", [(1.0, tau[j]), (-1.0, pt[p]), (-m, xs[p][j])], ">=", -m)
            b.con(f"slink_{j}_{ids[p]}", [(1.0, s[p]), (-1.0, st_[j]), (-m, xs[p][j])], ">=", -m)
            b.con(f"clink_{j}_{ids[p]}", [(1.0, c[p]), (-1.0, ct[j]), (-m, xs[p][j])], ">=", -m)
    for blk in b.blocks:
        for p in blk[1:]:
            b.con(f"gdd_{ids[p]}", [(1.0, s[p]), (-1.0, c[p - 1])], ">=", 0.0)
    for j in stages:
        b.con(f"stage_one_{j}", [(1.0, row[j]) for row in xs], "=", 1.0)
    for k, blk in enumerate(b.blocks):
        terms = [(1.0, name) for row in xs[blk.start:blk.stop] for name in row]
        b.con(f"class_total_{k + 1}", terms, "=", float(len(blk)))
    for p in range(n):
        b.con(f"once_{ids[p]}", [(1.0, name) for name in xs[p]], "=", 1.0)
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

    The name says what to read (module docstring): ``<family>_k_i`` is job
    (k, i)'s entry of the plan or timeline, ``<family>_j`` that of the job
    served at stage j, and the binary ``d_h_j_k_i``, ``x_h_j_k_i`` or
    ``xs_k_i_j`` is 1 when job (k, i) directly follows job (h, j), comes
    after it, or is served at stage j.  Any other name raises ``ValueError``.
    """
    stages = sched.sequence.stages(inst)  # raises on multiplicity mismatch
    sched.plan.check(inst)
    tl = sched.timeline
    job_at = {(str(job.cls + 1), str(job.idx + 1)): job for job in stages}  # by ("k", "i")
    stage_at = {(str(job.stage),): job for job in stages}  # by ("j",)
    per_job = {"u": sched.plan.u, "S": tl.start, "pt": tl.proc, "T": tl.tardiness,
               "Om": tl.setup_cost, "La": tl.setup_time, "C": tl.completion}
    per_stage = {"tau": tl.proc, "Omt": tl.setup_cost, "Lat": tl.setup_time,
                 "St": tl.start, "Ct": tl.completion}

    def value(family: str, ids: tuple[str, ...]) -> float:
        if family in per_job:
            job = job_at[ids]
            return per_job[family][job.cls][job.idx]
        if family in per_stage:
            job = stage_at[ids]
            return per_stage[family][job.cls][job.idx]
        p = job_at[ids[:2]].stage
        if family == "xs":
            return 1.0 if stage_at[ids[2:]].stage == p else 0.0
        q = job_at[ids[2:]].stage
        if family == "d":
            return 1.0 if q == p + 1 else 0.0
        if family == "x":
            return 1.0 if p < q else 0.0
        raise KeyError(family)

    out: dict[str, float] = {}
    for name, _ in model.variables:
        family, *ids = name.split("_")
        try:
            out[name] = value(family, tuple(ids))
        except KeyError:
            raise ValueError(f"variable {name} is no schedule quantity") from None
    return out


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

    A NaN value fails its lower bound and a NaN row gap its row.
    """
    for name, _ in model.variables:
        if name not in assignment:
            raise ValueError(f"assignment missing variable {name}")
    out: list[CheckViolation] = []
    for name, kind in model.variables:
        val = assignment[name]
        if not val >= -CHECK_TOL:
            out.append(CheckViolation("bound", name, -val, f"{name}={val} < lb 0.0"))
        if kind == "binary":
            if val > 1.0 + CHECK_TOL:
                out.append(CheckViolation("bound", name, val - 1.0, f"{name}={val} > ub 1.0"))
            if math.isfinite(val) and abs(val - round(val)) > CHECK_TOL:
                out.append(CheckViolation("integrality", name, abs(val - round(val)), f"{name}={val} not integral"))
    for name, terms, sense, rhs in model.constraints:
        lhs = sum([coef * assignment[var] for coef, var in terms])
        if sense == "<=":
            gap = lhs - rhs
        elif sense == ">=":
            gap = rhs - lhs
        else:
            gap = abs(lhs - rhs)
        if not gap <= CHECK_TOL:
            out.append(CheckViolation("constraint", name, gap, f"{name}: lhs={lhs} {sense} rhs={rhs}"))
    objective = model.objective_constant + sum([coef * assignment[var] for coef, var in model.objective])
    return CheckReport(tuple(out), objective)


# -- LP text ------------------------------------------------------------


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _Memo(dict):
    """A dict that computes a missing value as ``fn(key)`` and keeps it."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _terms_text(terms, prefix: _Memo) -> str:
    """``prefix`` maps a coefficient to its ``"<sign> <digits> "`` text."""
    parts = [prefix[coef] + var for coef, var in terms]
    if not parts:
        return "0 " + "__zero__"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def emit_lp(model: MilpModel) -> str:
    """Standard LP text: objective, rows, bounds, binary section."""
    # A model has few distinct coefficients and right-hand sides, so each is
    # formatted once per call (0.0 and -0.0 share a key and both print "+ 0").
    prefix = _Memo(lambda c: f"{'-' if c < 0 else '+'} {_fmt(abs(c))} ")
    rhs = _Memo(_fmt)
    lines = [f"\\ Problem: {model.name}"]
    if model.objective_constant:
        lines.append(f"\\ objective_constant: {model.objective_constant!r}")
    lines.append("Minimize")
    lines.append(f" obj: {_terms_text(model.objective, prefix)}")
    lines.append("Subject To")
    for name, terms, sense, value in model.constraints:
        lines.append(f" {name}: {_terms_text(terms, prefix)} {sense} {rhs[value]}")
    lines.append("Bounds")
    for v in model.continuous():
        lines.append(f" {v.name} >= 0")
    lines.append("Binaries")
    for v in model.binaries():
        lines.append(f" {v.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    ``objective_constant:`` is used), the five section headers in order,
    `` obj: <terms>``, `` <name>: <terms> <sense> <rhs>``, `` <name> >= 0`` and
    bare binary names.  Any other line raises ``ValueError`` naming it, and
    the result is validated.
    """
    model = MilpModel(name="parsed")
    binaries: list[Variable] = []
    continuous: list[Variable] = []
    section = -1  # index into _SECTIONS
    for number, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        try:
            if line.startswith("\\"):
                if tokens[1:2] == ["objective_constant:"]:
                    model.objective_constant = _number(tokens[2])
            elif section + 1 < len(_SECTIONS) and line == _SECTIONS[section + 1]:
                section += 1
            elif not line.startswith(" "):
                raise ValueError
            elif section == 0 and tokens[0] == "obj:":
                model.objective = list(_read_terms(tokens[1:]))
            elif section == 1 and tokens[0].endswith(":") and tokens[-2] in ("<=", ">=", "="):
                terms = _read_terms(tokens[1:-2])
                model.constraints.append(Constraint(tokens[0][:-1], terms, tokens[-2], _number(tokens[-1])))
            elif section == 2 and len(tokens) == 3 and tokens[1:] == [">=", "0"]:
                continuous.append(Variable(tokens[0], "continuous"))
            elif section == 3 and len(tokens) == 1:
                binaries.append(Variable(tokens[0], "binary"))
            else:
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(f"line {number} is not emit_lp syntax: {line!r}") from None
    if section != len(_SECTIONS) - 1:
        raise ValueError("LP text ends before its End line")
    model.variables = binaries + continuous
    model.validate()
    return model
