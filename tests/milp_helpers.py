"""MILP helpers that only the tests need: a model's rows as named tuples,
the row-by-row certificate that `check_assignment` is compared against, and
a HiGHS solve of a model."""

import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from famsched.milp import CHECK_TOL, SENSES, CheckReport, CheckViolation, MilpModel


class Row(NamedTuple):
    name: str
    terms: tuple[tuple[float, str], ...]  # (coefficient, variable name), in print order
    sense: str  # "<=", "=", ">="
    rhs: float


def rows_of(model: MilpModel) -> list[Row]:
    """Each of ``model``'s rows as a ``Row`` naming its variables."""
    rows, out = model.rows, []
    for r, name in enumerate(rows.names):
        a, z = rows.indptr[r:r + 2].tolist()
        terms = tuple(zip(rows.coefs[a:z].tolist(), [model.variables[c] for c in rows.cols[a:z].tolist()]))
        out.append(Row(name, terms, SENSES[rows.senses[r]], float(rows.rhs[r])))
    return out


def check_rows(model: MilpModel, assignment: dict[str, float]) -> CheckReport:
    """Every bound and row of ``model`` checked one variable and one ``Row``
    at a time, each row summed left to right by ``sum``."""
    out: list[CheckViolation] = []
    for name, binary in zip(model.variables, model.binary, strict=True):
        val = assignment[name]
        if not val >= -CHECK_TOL:
            out.append(CheckViolation("bound", name, -val, f"{name}={val} < lb 0.0"))
        if binary:
            if val > 1.0 + CHECK_TOL:
                out.append(CheckViolation("bound", name, val - 1.0, f"{name}={val} > ub 1.0"))
            if math.isfinite(val) and abs(val - round(val)) > CHECK_TOL:
                out.append(CheckViolation("integrality", name, abs(val - round(val)), f"{name}={val} not integral"))
    for name, terms, sense, rhs in rows_of(model):
        lhs = sum([coef * assignment[var] for coef, var in terms])
        if sense == "<=":
            gap = lhs - rhs
        elif sense == ">=":
            gap = rhs - lhs
        else:
            gap = abs(lhs - rhs)
        if not gap <= CHECK_TOL:
            out.append(CheckViolation("constraint", name, gap, f"{name}: lhs={lhs} {sense} rhs={rhs}"))
    objective = model.objective_constant + sum([coef * assignment[model.variables[c]] for coef, c in model.objective])
    return CheckReport(tuple(out), objective)


def solve_highs(model: MilpModel) -> float:
    """Optimal objective of ``model``, its constant included, found by HiGHS
    through ``scipy.optimize.milp``."""
    rows, variables = model.rows, model.variables
    matrix = csr_array((rows.coefs, rows.cols, rows.indptr), shape=(len(rows.names), len(variables)))
    lower = np.where(rows.senses == 0, -np.inf, rows.rhs)  # "<=" rows have no lower bound
    upper = np.where(rows.senses == 2, np.inf, rows.rhs)  # ">=" rows have no upper bound
    cost = np.zeros(len(variables))
    for coef, c in model.objective:
        cost[c] += coef
    binary = np.array(model.binary)
    result = milp(cost, constraints=LinearConstraint(matrix, lower, upper), integrality=binary,
                  bounds=Bounds(0.0, np.where(binary, 1.0, np.inf)))
    if not result.success:
        raise RuntimeError(f"HiGHS did not solve {model.name}: {result.message}")
    return result.fun + model.objective_constant
