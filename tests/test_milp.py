"""MILP builders, size reports, LP text, schedule encodings, certificates."""

import hashlib
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from famsched import milp
from famsched.bench import GenParams, generate
from famsched.cli import main
from famsched.dp import backward_induction, extract_open_loop
from famsched.instance import ClassParams, Instance, save_instance
from famsched.milp import (
    MilpModel,
    RowNames,
    Rows,
    _rows,
    build_model,
    build_model1,
    build_model2,
    build_model3,
    check_assignment,
    emit_lp,
    encode_schedule,
    parse_lp,
    size_report,
)
from famsched.schedule import (
    CompressionPlan,
    PlanBoundsError,
    Schedule,
    Sequence,
    SequenceError,
    build_timeline,
    solve_sequence,
)
from tests.conftest import DATA, EX1_COST, EX1_ORDER_1BASED
from tests.milp_helpers import check_rows, rows_of, solve_highs

EX1_SEQ = Sequence.from_1based(EX1_ORDER_1BASED)

# Published optimal relative-position table, rows (h,j), columns (k,i),
# job order (1,1) (1,2) (1,3) (1,4) (2,1) (2,2) (2,3).
EX1_X_TABLE = {
    (1, 1): (0, 1, 1, 1, 0, 0, 1),
    (1, 2): (0, 0, 1, 1, 0, 0, 1),
    (1, 3): (0, 0, 0, 1, 0, 0, 1),
    (1, 4): (0, 0, 0, 0, 0, 0, 0),
    (2, 1): (1, 1, 1, 1, 0, 1, 1),
    (2, 2): (1, 1, 1, 1, 0, 0, 1),
    (2, 3): (0, 0, 0, 1, 0, 0, 0),
}
EX1_JOBS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)]
EX1_DELTA_ONES = {
    (2, 1, 2, 2), (2, 2, 1, 1), (1, 1, 1, 2), (1, 2, 1, 3), (1, 3, 2, 3), (2, 3, 1, 4),
}


def uniform_instance(jobs):
    classes = tuple(
        ClassParams(8.0, 4.0, 1.0, 1.0, (1.0,) * n, tuple(10.0 + i for i in range(n)))
        for n in jobs
    )
    k = len(jobs)
    st = tuple(tuple(0.0 if h == m else 1.0 for m in range(k)) for h in range(k))
    return Instance(classes, st, st)


# -- size tables ------------------------------------------------------------

@pytest.mark.parametrize(
    "jobs,binaries,others,constraints",
    [
        ((5, 5), 200, 61, 1227),
        ((10, 10), 800, 121, 8757),
        ((15, 15), 1800, 181, 28587),
        ((5, 5, 5), 450, 91, 3790),
        ((10, 10, 10), 1800, 181, 28435),
        ((5, 5, 5, 5), 800, 121, 8653),
        ((20, 20), 3200, 241, 66717),
    ],
)
def test_model1_published_sizes(jobs, binaries, others, constraints):
    rep = size_report(build_model1(uniform_instance(jobs)))
    assert rep.binary_count == binaries
    assert rep.other_count == others
    assert rep.constraint_count == constraints


def test_model1_ex1_binaries(ex1):
    assert size_report(build_model1(ex1)).binary_count == 98  # 2 * 7^2


@pytest.mark.parametrize("jobs", [(5, 5), (3, 2), (2, 2, 2)])
def test_model23_binary_counts(jobs):
    inst = uniform_instance(jobs)
    n = sum(jobs)
    assert size_report(build_model2(inst)).binary_count == n * n
    assert size_report(build_model3(inst)).binary_count == n * n


def test_binary_count_laws_on_generated_instances():
    for seed in range(8):
        inst = generate(GenParams(jobs=(seed % 3 + 1, 2, 2), seed=seed))
        n = inst.total_jobs
        assert size_report(build_model1(inst)).binary_count == 2 * n * n
        assert size_report(build_model2(inst)).binary_count == n * n
        assert size_report(build_model3(inst)).binary_count == n * n


def test_model2_ex1_counts(ex1):
    model = build_model2(ex1)
    assert size_report(model).binary_count == 49
    all_jobs = [c for c in rows_of(model) if c.name == "all_jobs"]
    assert len(all_jobs) == 1
    assert all_jobs[0].rhs == 6.0


def test_model3_ex1_counts(ex1):
    model = build_model3(ex1)
    assert size_report(model).binary_count == 49
    assert sum(1 for name in model.rows.names if name.startswith("stage_one_")) == 7


# emit_lp's text for one binary x, one continuous y, one row and objective y
_SMALL_LP = """\\ Problem: m
Minimize
 obj: 1 y
Subject To
 r: 1 x - 2 y <= 1
Bounds
 y >= 0
Binaries
 x
End
"""


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("Binaries\n x\n", "Binaries\n x\n x\n", "duplicate variable names"),
        (" r: 1 x - 2 y <= 1\n", " r: 1 x - 2 y <= 1\n r: 1 x <= 1\n", "duplicate constraint names"),
        (" obj: 1 y", " obj: 1 y + 1 w", "objective references unknown variable w"),
    ],
    ids=["duplicate-variable", "duplicate-row", "unknown-in-objective"],
)
def test_validate_errors(old, new, message):
    # parse_lp checks names where it maps each to its column
    assert old in _SMALL_LP
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_lp(_SMALL_LP.replace(old, new))


@pytest.mark.parametrize("classes", [2, 3, 4])
def test_built_names_unique(classes):
    """A build checks only its row columns; its row and variable names are
    unique by construction, over equal and unequal class sizes."""
    for n in range(1, 6):
        for jobs in ((n,) * classes, tuple((n + k) % 5 + 1 for k in range(classes))):
            inst = generate(GenParams(jobs, seed=n))
            for which in (1, 2, 3):
                model = build_model(inst, which)
                assert len(model.variables) == len(set(model.variables)), (jobs, which)
                assert len(model.rows.names) == len(set(model.rows.names)), (jobs, which)


def one_row(cols: list[int]) -> Rows:
    """The row ``r: <sum of cols> <= 1``, with unit coefficients."""
    return Rows(["r"], np.zeros(1, dtype=np.int8), np.ones(1), np.array([0, len(cols)]),
                np.array(cols, dtype=np.int64), np.ones(len(cols)))


@pytest.mark.parametrize(
    "binary,cols,objective,message",
    [([True], [], [], "not one kind per variable"),
     ([True, False], [0, 2], [], "row columns outside the variable list"),
     ([True, False], [-1], [], "row columns outside the variable list"),
     ([True, False], [], [(1.0, 2)], "objective columns outside the variable list")],
    ids=["short-kind-list", "row-column-past-the-end", "negative-row-column", "objective-column"],
)
def test_model_columns_checked(binary, cols, objective, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MilpModel("m", ["x", "y"], binary, one_row(cols), objective)


@pytest.mark.parametrize(
    "rows",
    [_rows(["a", "b"], [0], [1.0], [1, 1], [0, 0], [1.0, 1.0]),
     _rows(["a", "b"], [0, 0], [1.0], [1, 1], [0, 0], [1.0, 1.0]),
     Rows(["a"], np.zeros(1, dtype=np.int8), np.ones(1), np.array([0, 1, 2]), np.zeros(2, dtype=np.int64),
          np.ones(2)),
     _rows(RowNames([(2, lambda: ["a", "b"])]), [0, 0, 0], [1.0, 1.0, 1.0], [1, 1], [0, 0], [1.0, 1.0])],
    ids=["one-sense-two-names", "one-rhs-two-names", "two-indptr-rows-one-name", "lazy-names-three-senses"],
)
def test_row_count_checked(rows):
    """A store whose names, senses, right-hand sides and indptr disagree on
    the row count is refused; it once broadcast row a's sense onto row b."""
    message = "row names, senses, right-hand sides and indptr disagree on the row count"
    with pytest.raises(ValueError, match=f"^{message}$"):
        MilpModel("m", ["x"], [False], rows)


@pytest.mark.parametrize(
    "indptr,cols,coefs",
    [([0, 3], [0], [1.0]), ([1, 2], [0, 0], [1.0, 1.0]), ([0, 2], [0, 0], [1.0])],
    ids=["indptr-past-the-terms", "indptr-not-from-zero", "fewer-coefficients"],
)
def test_term_count_checked(indptr, cols, coefs):
    """A store whose indptr, columns and coefficients disagree on the term
    count is refused; it once printed ``r: 1 x     <= 1`` for indptr [0, 3]
    and one term, and failed inside numpy on a certificate."""
    rows = Rows(["r"], np.zeros(1, dtype=np.int8), np.ones(1), np.array(indptr), np.array(cols), np.array(coefs))
    with pytest.raises(ValueError, match="^indptr, term columns and coefficients disagree on the term count$"):
        MilpModel("m", ["x"], [False], rows)


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
def test_row_name_factory_count_checked(names):
    """A factory that gives more or fewer names than its family has rows
    raises on the first read, and the count stays as declared."""
    lazy = RowNames([(1, lambda: ["z"]), (2, lambda: names)])
    assert len(lazy) == 3
    with pytest.raises(ValueError, match=f"^a row family of 2 rows got {len(names)} names$"):
        list(lazy)


def test_unknown_model_id_rejected(ex1):
    with pytest.raises(ValueError, match="^unknown model id 4$"):
        build_model(ex1, 4)


# -- encoding ------------------------------------------------------------

@pytest.fixture(scope="module")
def ex1_opt(ex1):
    return extract_open_loop(ex1, backward_induction(ex1))


def test_encode_model1_delta_table(ex1, ex1_opt):
    a = encode_schedule(ex1, ex1_opt, build_model1(ex1))
    ones = {
        (h, j, k, i)
        for h, j in EX1_JOBS
        for k, i in EX1_JOBS
        if a[f"d_{h}_{j}_{k}_{i}"] == 1.0
    }
    assert ones == EX1_DELTA_ONES


def test_encode_model1_x_table(ex1, ex1_opt):
    a = encode_schedule(ex1, ex1_opt, build_model1(ex1))
    for (h, j), row in EX1_X_TABLE.items():
        for (k, i), want in zip(EX1_JOBS, row):
            assert a[f"x_{h}_{j}_{k}_{i}"] == float(want), (h, j, k, i)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_encode_keys_are_the_model_variables(ex1, ex1_opt, which):
    # built and re-parsed models name the same variables, in their own orders
    g = generate(GenParams(jobs=(3, 2, 2), seed=0))
    for inst, sched in ((ex1, ex1_opt), (g, extract_open_loop(g, backward_induction(g)))):
        model = build_model(inst, which)
        parsed = parse_lp(emit_lp(model))
        built, reparsed = encode_schedule(inst, sched, model), encode_schedule(inst, sched, parsed)
        assert list(built) == model.variables
        assert list(reparsed) == parsed.variables
        assert reparsed == built


def test_encode_rejects_a_mismatched_sequence(ex1, ex1_opt):
    sched = Schedule(Sequence(ex1_opt.sequence.order[1:]), ex1_opt.plan, ex1_opt.timeline)
    with pytest.raises(SequenceError, match="multiplicities"):
        encode_schedule(ex1, sched, build_model1(ex1))


def test_encode_rejects_an_out_of_bounds_plan(ex1, ex1_opt):
    u = [list(row) for row in ex1_opt.plan.u]
    u[0][0] = ex1.classes[0].u_max + 1.0
    sched = Schedule(ex1_opt.sequence, CompressionPlan(tuple(map(tuple, u))), ex1_opt.timeline)
    with pytest.raises(PlanBoundsError, match=r"u\[1\]\[1\]"):
        encode_schedule(ex1, sched, build_model1(ex1))


@pytest.mark.parametrize("name", ["y", "S_0_1", "S_1_1_1", "tau_-1", "tau_7", "xs_1_1",
                                  "d_1_1_2", "x_1_a_2_1"])
def test_encode_rejects_a_foreign_variable(ex1, ex1_opt, name):
    model = MilpModel("foreign", ["S_1_1", name], [False, False])
    with pytest.raises(ValueError, match=f"variable {name} "):
        encode_schedule(ex1, ex1_opt, model)


def test_encode_model3_first_stage(ex1, ex1_opt):
    a = encode_schedule(ex1, ex1_opt, build_model3(ex1))
    assert a["xs_2_1_0"] == 1.0
    assert a["xs_1_4_6"] == 1.0


# -- certificates -----------------------------------------------------------

@pytest.mark.parametrize("which", [1, 2, 3])
def test_ex1_certificates(ex1, ex1_opt, which):
    model = build_model(ex1, which)
    report = check_assignment(model, encode_schedule(ex1, ex1_opt, model))
    assert report.ok, report.violations[:3]
    assert report.objective == pytest.approx(EX1_COST, abs=1e-6)


def test_flipped_delta_violates(ex1, ex1_opt):
    model = build_model1(ex1)
    a = encode_schedule(ex1, ex1_opt, model)
    a["d_2_1_2_2"] = 0.0
    a["d_2_1_1_3"] = 1.0
    report = check_assignment(model, a)
    assert not report.ok
    assert repr((report.objective, report.violations)) == (
        "(11.75, (CheckViolation(kind='constraint', name='scost_1_3', amount=1.0, "
        "detail='scost_1_3: lhs=-1.0 = rhs=0.0'), "
        "CheckViolation(kind='constraint', name='stime_1_3', amount=0.5, "
        "detail='stime_1_3: lhs=-0.5 = rhs=0.0'), "
        "CheckViolation(kind='constraint', name='pred_1_3', amount=1.0, "
        "detail='pred_1_3: lhs=2.0 <= rhs=1.0')))"
    )


# Reports recorded before the row builders and the certificate loop were
# rewritten; ex1's data are dyadic, so every sum here is exact.
TAMPERED_REPORTS = {
    2: "(11.75, (CheckViolation(kind='constraint', name='comp_1_2', amount=6.25, "
    "detail='comp_1_2: lhs=6.25 = rhs=0.0'), "
    "CheckViolation(kind='constraint', name='comp_2_1', amount=2.5, "
    "detail='comp_2_1: lhs=2.5 = rhs=0.0'), "
    "CheckViolation(kind='constraint', name='ptdef_2_1', amount=2.5, "
    "detail='ptdef_2_1: lhs=3.5 = rhs=6.0'), "
    "CheckViolation(kind='constraint', name='after_1_1_1_2', amount=6.25, "
    "detail='after_1_1_1_2: lhs=-62.25 >= rhs=-56.0')))",
    3: "(15.5, (CheckViolation(kind='constraint', name='pt_lo_2_1', amount=0.5, "
    "detail='pt_lo_2_1: lhs=3.5 >= rhs=4.0'), "
    "CheckViolation(kind='constraint', name='slink_3_1_2', amount=6.25, "
    "detail='slink_3_1_2: lhs=-62.25 >= rhs=-56.0'), "
    "CheckViolation(kind='constraint', name='gdd_1_2', amount=6.25, "
    "detail='gdd_1_2: lhs=-6.25 >= rhs=0.0')))",
}


@pytest.mark.parametrize("which", [2, 3])
def test_tampered_times_report(ex1, ex1_opt, which):
    model = build_model(ex1, which)
    a = encode_schedule(ex1, ex1_opt, model)
    a["S_1_2"] = 10.25
    a["pt_2_1"] = 3.5
    report = check_assignment(model, a)
    assert repr((report.objective, report.violations)) == TAMPERED_REPORTS[which]


def test_missing_variable_rejected(ex1, ex1_opt):
    model = build_model1(ex1)
    a = encode_schedule(ex1, ex1_opt, model)
    del a["u_1_1"]
    with pytest.raises(ValueError, match="u_1_1"):
        check_assignment(model, a)


def test_random_small_instances_cross_model(seeded=range(6)):
    for seed in seeded:
        inst = generate(GenParams(jobs=(2, 2), seed=900 + seed))
        vt = backward_induction(inst)
        sched = extract_open_loop(inst, vt)
        for which in (1, 2, 3):
            model = build_model(inst, which)
            report = check_assignment(model, encode_schedule(inst, sched, model))
            assert report.ok, (seed, which, report.violations[:3])
            assert report.objective == pytest.approx(vt.optimal_cost(), abs=1e-6)


# -- optimum against the DP ---------------------------------------------------

HIGHS_JOBS = ((2, 2, 1), (2, 1, 2), (3, 2), (2, 3), (1, 1, 1, 1), (2, 2))


def test_model1_highs_optimum_equals_dp():
    for jobs, seed in itertools.product(HIGHS_JOBS, range(3)):
        inst = generate(GenParams(jobs=jobs, seed=seed))
        want = backward_induction(inst).optimal_cost()
        assert solve_highs(build_model1(inst)) == pytest.approx(want, rel=1e-6), (jobs, seed)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: as compiled, models 2 and 3 admit optima below the true one "
    "((2,2,1)/4: DP 51.1827, model 2 47.8323, model 3 40.8922)",
)
def test_models23_highs_optimum_equals_dp():
    inst = generate(GenParams(jobs=(2, 2, 1), seed=4))
    want = backward_induction(inst).optimal_cost()
    assert [solve_highs(build_model(inst, which)) for which in (2, 3)] == pytest.approx([want, want], rel=1e-6)


def test_feasible_certificates_bounded_below_by_optimum(ex1):
    vt_cost = backward_induction(ex1).optimal_cost()
    for order in ([1, 1, 1, 1, 2, 2, 2], [2, 1, 2, 1, 2, 1, 1]):
        sched = solve_sequence(ex1, Sequence.from_1based(order))
        for which in (1, 2, 3):
            model = build_model(ex1, which)
            report = check_assignment(model, encode_schedule(ex1, sched, model))
            assert report.ok
            assert report.objective >= vt_cost - 1e-6


def test_uncompressed_schedule_certifies(ex1):
    tl = build_timeline(ex1, EX1_SEQ, CompressionPlan.zero(ex1))
    from famsched.schedule import Schedule

    sched = Schedule(EX1_SEQ, CompressionPlan.zero(ex1), tl)
    for which in (1, 2, 3):
        model = build_model(ex1, which)
        report = check_assignment(model, encode_schedule(ex1, sched, model))
        assert report.ok
        assert report.objective == pytest.approx(28.125, abs=1e-6)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_nan_values_reported(ex1, ex1_opt, which):
    model = build_model(ex1, which)
    binary = model.variables[model.binary.index(True)]
    a = encode_schedule(ex1, ex1_opt, model)
    a[binary] = a["pt_1_1"] = float("nan")
    report = check_assignment(model, a)
    assert {v.name for v in report.violations if v.kind == "bound"} == {binary, "pt_1_1"}
    assert {v.name for v in report.violations if v.kind == "constraint"} == {
        c.name for c in rows_of(model) if any(var in (binary, "pt_1_1") for _, var in c.terms)
    }
    assert all(v.kind != "integrality" for v in report.violations)


def _same_amount(got: float, want: float) -> bool:
    # Python >= 3.12's compensated sum can change a row sum's last bit
    return math.isclose(got, want, rel_tol=1e-12) or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("which", [1, 2, 3])
@pytest.mark.parametrize("case", ["ex1", ((2, 2, 2), 3), ((3, 3), 0), ((5, 5), 0)], ids=str)
def test_check_assignment_matches_row_reference(ex1, which, case):
    inst = ex1 if case == "ex1" else generate(GenParams(jobs=case[0], seed=case[1]))
    model = build_model(inst, which)
    exact = encode_schedule(inst, extract_open_loop(inst, backward_induction(inst)), model)
    rng = random.Random(which)
    assignments = [exact]
    for _ in range(4):  # about one value in eight perturbed, NaN or infinite
        a = dict(exact)
        for name in rng.sample(list(a), len(a) // 8):
            a[name] = rng.choice([a[name] + rng.uniform(-3.0, 3.0), math.nan, math.inf, -math.inf])
        assignments.append(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        for a in assignments:
            got, want = check_assignment(model, a), check_rows(model, a)
            assert [(v.kind, v.name) for v in got.violations] == [(v.kind, v.name) for v in want.violations]
            assert all(_same_amount(g.amount, w.amount) for g, w in zip(got.violations, want.violations))
            assert _same_amount(got.objective, want.objective)
    assert check_rows(model, exact).ok


# -- LP text ------------------------------------------------------------

def test_emit_smallest_model():
    model = build_model1(uniform_instance((1, 1)))
    text = emit_lp(model)
    for keyword in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert keyword in text


@pytest.mark.parametrize("which", [1, 2, 3])
def test_lp_round_trip_counts(ex1, which):
    # parse_lp restores every row, the objective's terms by column, its constant,
    # the variable names and the binary mask exactly
    cases = [ex1] + [generate(GenParams(jobs=jobs, seed=seed)) for jobs, seed, w in LP_SHA256 if w == which]
    for inst in cases:
        model = build_model(inst, which)
        parsed = parse_lp(emit_lp(model))
        assert size_report(parsed) == size_report(model)
        assert rows_of(parsed) == rows_of(model)
        assert parsed.objective == model.objective
        assert parsed.objective_constant == model.objective_constant
        assert parsed.variables == model.variables
        assert parsed.binary == model.binary
        for array in ("indptr", "cols", "coefs", "senses", "rhs"):
            assert np.array_equal(getattr(parsed.rows, array), getattr(model.rows, array)), array


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("Minimize", "Maximize", "line 2 .*Maximize"),
        ("Binaries", "Generals", "line 8 .*Generals"),
        (" y >= 0", " -5 <= y <= 3", "line 7 .*-5 <= y <= 3"),
        (" r: 1 x - 2 y <= 1", " r: 1 x + -2 y <= 1", "line 5 .*x \\+ -2 y"),
        (" y <= 1", " y <= nan", "line 5 .*y <= nan"),
        (" r: 1 x - 2 y <= 1", " r: 1 x - 2 z <= 1", "^constraint r references unknown variable z$"),
        ("End\n", "", "^LP text ends before its End line$"),
        (" obj: 1 y\n", " obj: 1 y\n obj: 1 x\n", "line 4 .*obj: 1 x"),
        (" obj: 1 y\n", "", "^LP text has no objective line$"),
        (" r: 1 x - 2 y <= 1", " r: 1 x - 2 <= 1", "line 5 .*1 x - 2 <= 1"),
    ],
    ids=["maximize", "generals", "two-sided-bound", "signed-coefficient", "nan-rhs", "undeclared-variable", "no-end",
         "two-objectives", "no-objective", "term-without-variable"],
)
def test_parse_lp_rejects_foreign_syntax(old, new, message):
    assert rows_of(parse_lp(_SMALL_LP))[0].terms == ((1.0, "x"), (-2.0, "y"))
    assert old in _SMALL_LP
    with pytest.raises(ValueError, match=message):
        parse_lp(_SMALL_LP.replace(old, new))


def test_lp_round_trip_of_empty_sums():
    # an empty objective and an empty row are written as the sum "0 __zero__"
    # and read back as no terms
    model = MilpModel("m", ["x"], [False], one_row([]))
    text = emit_lp(model)
    assert " obj: 0 __zero__\n" in text and " r: 0 __zero__ <= 1\n" in text
    parsed = parse_lp(text)
    assert parsed.objective == []
    assert parsed.rows.indptr.tolist() == [0, 0]
    assert rows_of(parsed) == rows_of(model)
    assert emit_lp(parsed) == text.replace("Problem: m", "Problem: parsed")


def test_lp_round_trip_checks_assignment(ex1, ex1_opt):
    # the parsed model is complete enough to verify certificates
    for which in (1, 2, 3):
        parsed = parse_lp(emit_lp(build_model(ex1, which)))
        report = check_assignment(parsed, encode_schedule(ex1, ex1_opt, parsed))
        assert report.ok
        assert report.objective == pytest.approx(EX1_COST, abs=1e-6)


# sha256 of emit_lp's text, recorded before the row builders and emit_lp were
# rewritten for speed: (jobs, seed, model) -> digest.
LP_SHA256 = {
    ((5, 5), 0, 1): "e0b1b12acfeb04beff3ff3d773909745e7e85a322f359dbc9c95f233b1c6b5a4",
    ((5, 5), 0, 2): "7ec12d4c0b6c1039cf50ba45c82f476799c977eba0b7d95634c77b7507f75700",
    ((5, 5), 0, 3): "b3df86fa1e5ea29bfd2b424caac11805c35455f56061b13d9e3666ffd50e3020",
    ((3, 3, 2), 1, 1): "ca759c588c42c54a0bbfda08853724f0de49b7927fa659955b28d09163fb4b7d",
    ((3, 3, 2), 1, 2): "39be2350186f3fa19c54c759b9ea39b0e657f0a2778705b6bfd56c460e677f39",
    ((3, 3, 2), 1, 3): "bd7c452609863fa63ba5974059f14d73138673dcc7138bd330697d8c5526b2ad",
    ((2, 2, 2, 2), 0, 1): "586a32b04b7c7ab3a49c3bd0f3d9603651d2b3d096ad86aa161e5fd987ff1137",
    ((2, 2, 2, 2), 0, 2): "2c4df5059d0fa740fdc6ddb6607cda8789d0e2510f91fe0026d9287137337a3f",
    ((2, 2, 2, 2), 0, 3): "5286de4058669525a0b10c6d2e88f455ab1c82c642417f0b66a30f8f07240980",
    ((2, 1, 3), 2, 1): "edd0b37c151beda87f673c6fb9e987600add5ddaa66a4da3ddbe0242f0355e9a",
    ((2, 1, 3), 2, 2): "6308dd3e2734c301b2ffcb7660d039fad2ed017cb5d6422097a0739620367c09",
    ((2, 1, 3), 2, 3): "6eac3ce72b2d8ea931a4eb66c4d1732743f941625b599bb29c17a1b545a6deff",
    # model 1 spans several emit_lp batches here (28,587 and 8,653 rows);
    # recorded before every row family became one _Builder.add call
    ((15, 15), 0, 1): "b59478f43c6eed02aa73f3bbe686a4a9aa23cf198e730ff3c12caf08430fb851",
    ((15, 15), 0, 2): "a64ac16ad415b47390514657b77680653b101f67b9991bf9b48d1683e867a98f",
    ((15, 15), 0, 3): "ed6bbda3031c15f84a25ce135fd396188937a1df1ccf774ff62c50627e5e5216",
    ((5, 5, 5, 5), 0, 1): "32c8193bbca02335d81ac2caef8a87607769d529b50c038448a390d49d61cf4b",
    ((5, 5, 5, 5), 0, 2): "663ff116b9c520e0a1c6e10925cbf416588a1053483aede38283731cf8fb8dc5",
    ((5, 5, 5, 5), 0, 3): "4ab085f9594329d18e7f7d12b33184f2a9bd2f49988f6934e79816941ce5a074",
}


# The ids keep the trailing "-None" of the big-M slot these hashes were
# recorded under (None meant the horizon bound), so each test id stays stable.
@pytest.mark.parametrize(
    "jobs,seed,which",
    [pytest.param(*key, id=f"{key[0]}-{key[1]}-{key[2]}-None") for key in sorted(LP_SHA256, key=repr)],
)
def test_lp_text_unchanged(jobs, seed, which):
    inst = generate(GenParams(jobs=jobs, seed=seed))
    digest = hashlib.sha256(emit_lp(build_model(inst, which)).encode()).hexdigest()
    assert digest == LP_SHA256[(jobs, seed, which)]


# sha256 of emit_lp's text on the hand-written example, by model id; recorded
# before the builders read one 0-based job index.
EX1_LP_SHA256 = {
    1: "e005b312d40f8731415e7e94b72a5909f64d360e869d4d42b0df71b0468fccd2",
    2: "4bbdefc87913c034a971d630fd7a0ca88312699b232a423e630966519bc67ff8",
    3: "f5f5941722df1d1fdf8a46f545249d22b8f2cd69955579303f157ed9c38b8a72",
}


@pytest.mark.parametrize("which", [1, 2, 3])
def test_ex1_lp_text_unchanged(ex1, which):
    digest = hashlib.sha256(emit_lp(build_model(ex1, which)).encode()).hexdigest()
    assert digest == EX1_LP_SHA256[which]


@pytest.fixture
def name_factory_calls(monkeypatch):
    """Each call of a row-name factory of the models built in the test, as
    the model's name."""
    calls = []
    add = milp._Builder.add

    def counted(builder, names, *families):
        def factory():
            calls.append(builder.model.name)
            return names()
        add(builder, factory, *families)

    monkeypatch.setattr(milp._Builder, "add", counted)
    return calls


@pytest.mark.parametrize("jobs,seed", [((3, 3, 2), 1), ((15, 15), 0)])
def test_certify_formats_no_row_name(name_factory_calls, jobs, seed):
    inst = generate(GenParams(jobs=jobs, seed=seed))
    sched = extract_open_loop(inst, backward_induction(inst))
    for which in (1, 2, 3):
        model = build_model(inst, which)
        report = check_assignment(model, encode_schedule(inst, sched, model))
        assert report.ok, report.violations[:3]
        assert size_report(model).constraint_count == len(model.constraints) == len(model.rows.senses)
    assert name_factory_calls == []
    assert len(list(model.rows.names)) == len(model.rows.senses)  # the last model, model 3
    assert name_factory_calls and set(name_factory_calls) == {"model3"}


@pytest.mark.parametrize("which", [1, 2, 3])
def test_row_names_match_the_emitted_lp(which):
    for jobs, seed, w in LP_SHA256:
        if w == which:
            model = build_model(generate(GenParams(jobs=jobs, seed=seed)), which)
            assert list(model.rows.names) == parse_lp(emit_lp(model)).rows.names, (jobs, seed)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_tampered_three_class_violations_name_emitted_rows(which):
    inst = generate(GenParams(jobs=(3, 3, 2), seed=1))
    sched = extract_open_loop(inst, backward_induction(inst))
    model = build_model(inst, which)
    a = encode_schedule(inst, sched, model)
    a["S_1_2"] -= 7.5
    a["pt_2_1"] = 0.5
    report = check_assignment(model, a)
    named = {v.name for v in report.violations if v.kind == "constraint"}
    assert len(named) >= 2
    assert named <= set(parse_lp(emit_lp(model)).rows.names)
    assert named == {v.name for v in check_rows(model, a).violations if v.kind == "constraint"}


def instance_file(tmp_path, case):
    """ex1's path, or a generated ``jobs/seed`` instance written under tmp_path."""
    if case == "ex1":
        return DATA / "ex1.json"
    jobs, seed = case.split("/")
    params = GenParams(jobs=tuple(map(int, jobs.split(","))), seed=int(seed))
    path = tmp_path / "inst.json"
    path.write_text(save_instance(generate(params)))
    return path


# sha256 of the file that ``solve --method dp --dump-values`` writes (the DP's
# cost-to-go breakpoints, in ValueTable order), locked beside the LP text; recorded
# before the backward pass windowed stage objectives from their unmerged lists
# and read its stage functions by edge index; 3,3,2/3, whose DP takes
# window_min's general path (``_window_sweep``), before that path became the
# per-interval scan.
DUMP_VALUES_SHA256 = {
    "ex1": "06ae7f0d40c185dae1b91632391aafb244c029fdb44e4b72745a4e1ca1ce72ab",
    "4,4,3/14": "4b296f2cb36f45a011c74765f5bd25f5e075dc309c5fbe9a9025a2d2d4a0658b",
    "3,3,2/3": "98a27a54915f1ac0522d10ab306ec11c06229f75fbd3b8ec4d2f2fcdd049fc5a",
    # (20,20), (10,10,10) and (5,5,5,5) at seed 1, ladder sizes that no
    # benchmark workload solves, and dp_blowup's 8,8/18 (1,742 to 12,660 rows),
    # recorded before the stage step walked its shifted parts inline
    "20,20/1": "1ebec19da32f07508215415633ea5800d35397bfce4f611b035ee5a8fa90f472",
    "10,10,10/1": "3c0b72c4d2711f1770eb22e83d462892bec133ffaa8390abaa924ea96925764e",
    "5,5,5,5/1": "aa48bdf221a153d445e6737dedee8515c3671ca333812042db180b8491e84181",
    "8,8/18": "fe6da59611432615a7c01c2e324a086670815e4af412df0a1e7d615aab4662ec",
    # the long-function regime no workload reaches: 7,321 states, up to 139
    # breakpoints; recorded before the shift walk lost its initial bisection
    "60,60/1": "ca73f816017e9a378152de6e912316cade5efab53dc800ec16dce370100e4c2a",
}


@pytest.mark.parametrize("case", sorted(DUMP_VALUES_SHA256))
def test_dp_dump_values_unchanged(tmp_path, capsys, case):
    dump = tmp_path / "values.csv"
    assert main(["solve", "--method", "dp", str(instance_file(tmp_path, case)),
                 "--dump-values", str(dump)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == DUMP_VALUES_SHA256[case]


# sha256 of the schedule file that ``solve -o`` writes (order, u and the
# timeline), per method and instance: the DP's open-loop descent and the
# oracle's winning sequence through the fixed-sequence chain.  Recorded before
# the three solvers built their stage objectives from one list builder.
SCHEDULE_SHA256 = {
    ("dp", "ex1"): "2ee0f3b1a8586e8fc81aabd1ac9707583d75d30dfc26ade48de5f1b862174945",
    ("dp", "4,4,3/14"): "725244c9ee601217002ec976452c6dfcf04125fd01580059852b8f36e896927a",
    ("dp", "3,3,2/3"): "93f65fc8e0c3bf20dfb0ef05f950a353c54f45f50445ca6842432884b9317b49",
    # recorded with DUMP_VALUES_SHA256's four new cases
    ("dp", "20,20/1"): "ed3e4e2a569c6cac88e831b3615332081549b7b81ccedeef297a508814d89cac",
    ("dp", "10,10,10/1"): "94a45af025956b83ac31950e20586c590b6d583447096477aad2c323de44cea4",
    ("dp", "5,5,5,5/1"): "addf454914e3384c5991a20f591206702e2d16914010636a312e3e18f35e9586",
    ("dp", "8,8/18"): "ad8ba5af350a9ce840026a299fab2558e68474e870bfd3cc1c70524a39df6d99",
    ("dp", "60,60/1"): "a174aa201065aeabac9fb8c50dad4290a842c4710351f2ce012b8dbe163be85b",
    ("enum", "ex1"): "2ee0f3b1a8586e8fc81aabd1ac9707583d75d30dfc26ade48de5f1b862174945",
    ("enum", "3,2,2/0"): "37a29894fdcaa0d4447dafbea0bb602a3922cd4433bc289793c4f6c13601d511",
    ("enum", "1,39/1"): "ffe8c997f8236171ecb87acbb40d8a44e069d3fc67e524879c474f62232fd21b",
}


@pytest.mark.parametrize("method, case", sorted(SCHEDULE_SHA256))
def test_solve_schedule_file_unchanged(tmp_path, capsys, method, case):
    out = tmp_path / "sched.json"
    assert main(["solve", "--method", method, str(instance_file(tmp_path, case)), "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCHEDULE_SHA256[(method, case)]


def test_binary_section_length(ex1):
    text = emit_lp(build_model1(ex1))
    section = text.split("Binaries")[1].split("End")[0]
    assert len(section.split()) == 98
