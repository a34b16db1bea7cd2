"""Instance model: validation, horizon bound, JSON round-trips."""

import json
import math
from dataclasses import replace

import pytest

from famsched.bench import GenParams, generate
from famsched.instance import (
    NOT_FINITE,
    ClassParams,
    Instance,
    ParseError,
    SchemaError,
    horizon_upper_bound,
    instance_from_dict,
    load_instance,
    save_instance,
    validate_instance,
)
from tests.conftest import EX1_HORIZON


def test_ex1_is_valid(ex1):
    assert validate_instance(ex1) == []


def test_dd_monotonicity_violation(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    doc["classes"][0]["dd"][1] = 18
    inst = instance_from_dict(doc)
    violations = validate_instance(inst)
    assert any(v.path == "classes[0].dd[1]" and "non-decreasing" in v.message for v in violations)


def test_diagonal_violation(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    doc["st"][0][0] = 0.1
    violations = validate_instance(instance_from_dict(doc))
    assert any(v.path == "st[0][0]" and "diagonal" in v.message for v in violations)


def test_single_class_flagged(ex1):
    inst = Instance(classes=ex1.classes[:1], st=((0.0,),), sc=((0.0,),))
    assert any(v.path == "classes" for v in validate_instance(inst))


def test_negative_entries_flagged(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    doc["classes"][0]["alpha"][2] = -1
    doc["sc"][1][0] = -0.5
    violations = validate_instance(instance_from_dict(doc))
    paths = {v.path for v in violations}
    assert "classes[0].alpha[2]" in paths
    assert "sc[1][0]" in paths


def test_negative_due_date_flagged(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    doc["classes"][0]["dd"][0] = -1
    violations = validate_instance(instance_from_dict(doc))
    assert [(v.path, v.message) for v in violations] == [
        ("classes[0].dd[0]", "dd must be non-negative")
    ]


def _with_class0(inst, **fields):
    return replace(inst, classes=(replace(inst.classes[0], **fields), *inst.classes[1:]))


def _with_entry(mat, h, k, value):
    """``mat`` with entry [h][k] set to ``value``."""
    return tuple(tuple(value if (r, c) == (h, k) else v for c, v in enumerate(row)) for r, row in enumerate(mat))


@pytest.mark.parametrize("mutate,want", [
    (lambda i: _with_class0(i, pt_low=0.0), ("classes[0].pt_low", "pt_low must be positive")),
    (lambda i: _with_class0(i, pt_low=9.0), ("classes[0].pt_low", "pt_low must not exceed pt_nom")),
    (lambda i: _with_class0(i, gamma=0.0), ("classes[0].gamma", "gamma must be positive")),
    (lambda i: _with_class0(i, beta=-1.0), ("classes[0].beta", "beta must be non-negative")),
    (lambda i: _with_class0(i, alpha=i.classes[0].alpha + (1.0,)),
     ("classes[0]", "alpha and dd must have identical length")),
    (lambda i: _with_class0(i, alpha=(), dd=()), ("classes[0].dd", "each class needs at least one job")),
    (lambda i: replace(i, st=i.st[:1]), ("st", "st must be a 2x2 matrix")),
    (lambda i: _with_class0(i, dd=(math.nan, *i.classes[0].dd[1:])), ("classes[0].dd[0]", NOT_FINITE)),
    (lambda i: _with_class0(i, dd=(*i.classes[0].dd[:-1], math.inf)), ("classes[0].dd[3]", NOT_FINITE)),
    (lambda i: replace(i, st=_with_entry(i.st, 0, 1, math.nan)), ("st[0][1]", NOT_FINITE)),
    (lambda i: replace(i, st=_with_entry(i.st, 1, 0, math.nan)), ("st[1][0]", NOT_FINITE)),
    (lambda i: replace(i, sc=_with_entry(i.sc, 0, 1, math.nan)), ("sc[0][1]", NOT_FINITE)),
    (lambda i: replace(i, sc=_with_entry(i.sc, 1, 1, math.inf)), ("sc[1][1]", NOT_FINITE)),
    (lambda i: _with_class0(i, pt_nom=math.inf), ("classes[0].pt_nom", NOT_FINITE)),
    (lambda i: _with_class0(i, pt_low=math.nan), ("classes[0].pt_low", NOT_FINITE)),
    (lambda i: _with_class0(i, gamma=-math.inf), ("classes[0].gamma", NOT_FINITE)),
    (lambda i: _with_class0(i, beta=math.nan), ("classes[0].beta", NOT_FINITE)),
    (lambda i: _with_class0(i, alpha=(math.nan, *i.classes[0].alpha[1:])), ("classes[0].alpha[0]", NOT_FINITE)),
], ids=["pt_low-zero", "pt_low-above-pt_nom", "gamma-zero", "beta-negative", "alpha-dd-length",
        "dd-empty", "st-shape", "dd-first-nan", "dd-last-inf", "st-nan", "st-nan-below-diagonal", "sc-nan",
        "sc-diagonal-inf", "pt_nom-inf", "pt_low-nan", "gamma-minus-inf", "beta-nan", "alpha-nan"])
def test_each_validation_rule_reported(ex1, mutate, want):
    assert [(v.path, v.message) for v in validate_instance(mutate(ex1))] == [want]


def _set(path, value):
    """Mutator of an instance document: the field at ``path`` becomes ``value``."""
    def mutate(doc):
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        node[last] = value
        return doc
    return mutate


@pytest.mark.parametrize("mutate,want", [
    (lambda doc: [], ("top level", "expected an object")),
    (_set(("classes", 0, "dd"), 5), ("classes[0].dd", "expected a list of numbers")),
    (_set(("st",), 5), ("st", "expected a 2x2 matrix")),
    (_set(("metadata",), []), ("metadata", "expected an object")),
    (_set(("classes",), []), ("classes", "expected a non-empty list")),
    (_set(("classes", 0), 5), ("classes[0]", "expected an object")),
    (_set(("classes", 0, "release"), 0), ("classes[0]", "unknown field(s): release")),
    (_set(("classes", 0, "alpha"), [1, 2]), ("classes[0]", "alpha and dd must have identical length")),
], ids=["top-level", "non-list", "non-matrix", "metadata", "classes-empty", "class-non-object", "class-unknown-field",
        "alpha-dd-length"])
def test_each_schema_error_named(ex1_dict, mutate, want):
    with pytest.raises(SchemaError) as exc:
        instance_from_dict(mutate(json.loads(json.dumps(ex1_dict))))
    assert tuple(str(exc.value).split(": ", 1)) == want


def test_horizon_ex1(ex1):
    assert horizon_upper_bound(ex1) == pytest.approx(EX1_HORIZON)


def test_horizon_single_job():
    inst = Instance(
        classes=(ClassParams(5.0, 5.0, 1.0, 1.0, (1.0,), (10.0,)),),
        st=((0.0,),),
        sc=((0.0,),),
    )
    assert horizon_upper_bound(inst) == pytest.approx(5.0)


def test_horizon_two_singletons():
    classes = (
        ClassParams(3.0, 3.0, 1.0, 1.0, (1.0,), (10.0,)),
        ClassParams(4.0, 4.0, 1.0, 1.0, (1.0,), (10.0,)),
    )
    inst = Instance(classes=classes, st=((0.0, 2.0), (2.0, 0.0)), sc=((0.0, 1.0), (1.0, 0.0)))
    assert horizon_upper_bound(inst) == pytest.approx(9.0)


def test_horizon_monotone_in_jobs():
    for seed in range(10):
        inst = generate(GenParams(jobs=(2, 3), seed=seed))
        base = horizon_upper_bound(inst)
        cp = inst.classes[0]
        grown = Instance(
            classes=(
                ClassParams(cp.pt_nom, cp.pt_low, cp.beta, cp.gamma,
                            cp.alpha + (1.0,), cp.dd + (cp.dd[-1] + 1.0,)),
                inst.classes[1],
            ),
            st=inst.st,
            sc=inst.sc,
        )
        assert horizon_upper_bound(grown) >= base


def test_round_trip(ex1):
    again = load_instance(save_instance(ex1))
    assert again == ex1


def test_round_trip_generated():
    inst = generate(GenParams(jobs=(3, 2, 2), seed=5))
    assert load_instance(save_instance(inst)) == inst


def test_metadata_preserved_by_schema(ex1):
    text = save_instance(ex1, metadata={"generator": "test", "seed": 1})
    assert load_instance(text) == ex1
    assert json.loads(text)["metadata"]["seed"] == 1


def test_malformed_json():
    with pytest.raises(ParseError):
        load_instance("{not json")


def test_matrix_arity_error(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    doc["st"] = [[0, 1, 2], [0.5, 0, 2]]
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


def test_missing_field_named(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    del doc["classes"][0]["gamma"]
    with pytest.raises(SchemaError, match="gamma"):
        instance_from_dict(doc)


def test_extra_field_rejected(ex1_dict):
    doc = json.loads(json.dumps(ex1_dict))
    doc["release_dates"] = [0, 0]
    with pytest.raises(SchemaError, match="release_dates"):
        instance_from_dict(doc)


def test_non_numeric_rejected(ex1_dict):
    for bad in ("fast", math.nan, math.inf, -math.inf):
        doc = json.loads(json.dumps(ex1_dict))
        doc["classes"][1]["beta"] = bad
        with pytest.raises(SchemaError, match="beta"):
            instance_from_dict(doc)


def test_generated_instances_always_valid():
    for seed in range(25):
        inst = generate(GenParams(jobs=(2, 2, 3), seed=seed))
        assert validate_instance(inst) == []


# One bad number at one place in each list and matrix, and the SchemaError each
# gives: the error texts are part of the CLI's output and must not drift.
BAD_NUMBERS = {"bool": True, "str": "1", "nan": math.nan, "inf": math.inf, "big": 10**400}
BAD_NUMBER_PLACES = {
    "alpha": (("classes", 1, "alpha", 2), "classes[1].alpha[2]"),
    "dd": (("classes", 0, "dd", 3), "classes[0].dd[3]"),
    "st": (("st", 1, 0), "st[1][0]"),
    "sc": (("sc", 0, 1), "sc[0][1]"),
}
BAD_NUMBER_MESSAGES = {
    "bool": "expected a number, got bool",
    "str": "expected a number, got str",
    "nan": "expected a finite number, got nan",
    "inf": "expected a finite number, got inf",
    "big": "integer too large for a float",
}


@pytest.mark.parametrize("place", sorted(BAD_NUMBER_PLACES))
@pytest.mark.parametrize("bad", sorted(BAD_NUMBERS))
def test_bad_number_schema_error_text(ex1_dict, place, bad):
    path, where = BAD_NUMBER_PLACES[place]
    with pytest.raises(SchemaError) as exc:
        instance_from_dict(_set(path, BAD_NUMBERS[bad])(json.loads(json.dumps(ex1_dict))))
    assert str(exc.value) == f"{where}: {BAD_NUMBER_MESSAGES[bad]}"


def test_violation_paths_messages_and_order(ex1):
    c0, c1 = ex1.classes
    inst = replace(
        ex1,
        classes=(replace(c0, alpha=(-1.0, math.nan, 2.0, -0.5), dd=(math.inf, 3.0, -1.0, 2.0)), c1),
        st=((0.0, math.nan), (-1.0, -2.0)),
        sc=((1.0, math.inf), (-2.0, 0.0)),
    )
    assert [(v.path, v.message) for v in validate_instance(inst)] == [
        ("classes[0].alpha[0]", "alpha must be non-negative"),
        ("classes[0].alpha[1]", NOT_FINITE),
        ("classes[0].alpha[3]", "alpha must be non-negative"),
        ("classes[0].dd[0]", NOT_FINITE),
        ("classes[0].dd[2]", "dd must be non-negative"),
        ("classes[0].dd[1]", "dd non-decreasing order violated"),
        ("classes[0].dd[2]", "dd non-decreasing order violated"),
        ("st[0][1]", NOT_FINITE),
        ("st[1][0]", "setup entries must be non-negative"),
        ("st[1][1]", "setup entries must be non-negative"),
        ("st[1][1]", "zero diagonal required (no setup within a class)"),
        ("sc[0][0]", "zero diagonal required (no setup within a class)"),
        ("sc[0][1]", NOT_FINITE),
        ("sc[1][0]", "setup entries must be non-negative"),
    ]
