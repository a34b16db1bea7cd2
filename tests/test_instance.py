"""Instance model: validation, horizon bound, JSON round-trips."""

import json
import math

import pytest

from famsched.bench import GenParams, generate
from famsched.instance import (
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
