"""Row-by-row MILP certificate that only the tests need: the reference
`check_assignment` is compared against."""

import math

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
