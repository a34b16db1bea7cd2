"""Linear-programming reference for the optimal cost, sharing no code with the solver.

With the class interleaving fixed, the problem is a linear program.  Write
``y_j = gamma u_j`` for the time taken off job ``j``'s nominal processing
time and ``P_j`` for its completion time without compression (nominal
processing times plus setup times up to and including job ``j``).  Then the
sequence's cost is the minimum of

    sum_j alpha_j T_j + beta_j y_j    s.t.  T_j + sum_{i<=j} y_i >= P_j - dd_j,
                                            0 <= y_j <= pt_nom - pt_low,  T_j >= 0,

plus its setup costs.  Each sequence is one block of variables and rows, and
one HiGHS call solves the blocks of many sequences together.  Only the
instance's data is read; nothing here calls into ``famsched``.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix


def interleavings(jobs):
    """Every distinct class list with ``jobs[k]`` entries of class ``k``, in lexicographic order."""
    left = list(jobs)
    order: list[int] = []

    def walk():
        if len(order) == sum(jobs):
            yield tuple(order)
            return
        for k, n_k in enumerate(left):
            if n_k:
                left[k] -= 1
                order.append(k)
                yield from walk()
                order.pop()
                left[k] += 1

    yield from walk()


def block_costs(inst, orders, start=None) -> list[float]:
    """Optimal cost of each class list in ``orders`` (0-based classes), from one LP.

    By default each list is a whole schedule from time 0.  With
    ``start = (counts, last, t)`` each list is the rest of a schedule that
    has served ``counts[k]`` jobs of each class k, class ``last`` most
    recently (None: no job yet), and starts its next job at time t: class k's
    slots begin at ``counts[k]``, the first job pays the setup from ``last``,
    and nominal time begins at t.  All lists must have the same length.
    """
    counts, last, t = start if start is not None else ([0] * len(inst.classes), None, 0.0)
    n = len(orders[0])
    width = 2 * n  # y_0..y_{n-1}, then T_0..T_{n-1}
    c = np.zeros(width * len(orders))
    upper = np.full(width * len(orders), np.inf)
    rows, cols, rhs, setup = [], [], [], []
    for b, order in enumerate(orders):
        base = b * width
        served = list(counts)
        prev = last
        nominal, setup_cost = t, 0.0
        for j, k in enumerate(order):
            cp = inst.classes[k]
            i = served[k]
            served[k] += 1
            if prev is not None:
                nominal += inst.st[prev][k]
                setup_cost += inst.sc[prev][k]
            nominal += cp.pt_nom
            prev = k
            c[base + j] = cp.beta
            c[base + n + j] = cp.alpha[i]
            upper[base + j] = cp.pt_nom - cp.pt_low
            # -T_j - sum_{i<=j} y_i <= dd_j - P_j
            row = b * n + j
            rows += [row] * (j + 2)
            cols += [base + n + j, *range(base, base + j + 1)]
            rhs.append(cp.dd[i] - nominal)
        setup.append(setup_cost)
    a_ub = csr_matrix((np.full(len(rows), -1.0), (rows, cols)), shape=(len(rhs), len(c)))
    res = linprog(c, A_ub=a_ub, b_ub=rhs, bounds=np.column_stack([np.zeros_like(upper), upper]),
                  method="highs")
    assert res.status == 0, res.message
    per_block = (c * res.x).reshape(len(orders), width).sum(axis=1)
    return [float(cost + s) for cost, s in zip(per_block, setup)]


def optimal_cost(inst) -> float:
    """Smallest block cost over every class interleaving of the instance."""
    jobs = tuple(len(cp.dd) for cp in inst.classes)
    return min(block_costs(inst, list(interleavings(jobs))))
