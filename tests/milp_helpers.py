"""MILP helpers that only the tests need: the row-by-row certificate that
`check_assignment` is compared against, and a HiGHS solve of a model."""

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from famsched.milp import CHECK_TOL, CheckReport, CheckViolation, MilpModel


def check_rows(model: MilpModel, assignment: dict[str, float]) -> CheckReport:
    """Every bound and row of ``model`` checked one variable and one
    ``Constraint`` at a time, each row summed left to right by ``sum``."""
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


def solve_highs(model: MilpModel) -> float:
    """Optimal objective of ``model``, its constant included, found by HiGHS
    through ``scipy.optimize.milp``."""
    rows, variables = model.rows, model.variables
    matrix = csr_array((rows.coefs, rows.cols, rows.indptr), shape=(len(rows.names), len(variables)))
    lower = np.where(rows.senses == 0, -np.inf, rows.rhs)  # "<=" rows have no lower bound
    upper = np.where(rows.senses == 2, np.inf, rows.rhs)  # ">=" rows have no upper bound
    column = {v.name: c for c, v in enumerate(variables)}
    cost = np.zeros(len(variables))
    for coef, var in model.objective:
        cost[column[var]] += coef
    binary = np.array([v.kind == "binary" for v in variables])
    result = milp(cost, constraints=LinearConstraint(matrix, lower, upper), integrality=binary,
                  bounds=Bounds(0.0, np.where(binary, 1.0, np.inf)))
    if not result.success:
        raise RuntimeError(f"HiGHS did not solve {model.name}: {result.message}")
    return result.fun + model.objective_constant
