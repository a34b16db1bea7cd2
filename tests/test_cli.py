"""CLI surface: subcommands, files, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import pytest

from famsched import milp
from famsched.bench import GenParams, generate
from famsched.cli import build_parser, main
from famsched.dp import DiscreteState, backward_induction
from famsched.instance import start_window
from famsched.milp import parse_lp, size_report
from famsched.pwl import TOL
from tests.conftest import DATA, EX1_COST

EX1 = str(DATA / "ex1.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_validate(tmp_path, capsys):
    target = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", "--jobs", "3,3", "--seed", "42", "-o", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["metadata"]["seed"] == 42
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_reports_the_instance_digest(capsys):
    # the sha256 prefix of the instance's canonical JSON (sorted keys, no
    # spaces); a change of the canonical form changes every report's digest
    code, out, _ = run(capsys, "validate", EX1)
    assert code == 0
    assert json.loads(out) == {"instance": "9b98017e71fa145f", "ok": True, "violations": []}


def test_validate_finds_violations(tmp_path, capsys):
    doc = json.loads(open(EX1).read())
    doc["classes"][0]["dd"][1] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["violations"]


def test_negative_due_date_rejected_before_solving(tmp_path, capsys):
    doc = json.loads(open(EX1).read())
    doc["classes"][0]["dd"][0] = -1
    bad = tmp_path / "negdd.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"] == [{"path": "classes[0].dd[0]", "message": "dd must be non-negative"}]
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    lp = tmp_path / "m1.lp"
    for argv in (["solve", "--method", "dp"], ["solve", "--method", "enum"],
                 ["emit", "--model", "1", "-o", str(lp)],
                 ["certify", "--model", "1", "--schedule", str(sched_file)], ["count"]):
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 1, argv
        assert out == ""
        assert err == "invalid instance: classes[0].dd[0]: dd must be non-negative\n", argv
    assert not lp.exists()


def test_validate_rejects_nan_and_inf(tmp_path, capsys):
    doc = json.loads(open(EX1).read())
    doc["classes"][0]["pt_nom"] = float("nan")
    doc["st"][0][1] = float("inf")
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "pt_nom" in err


def test_solve_dp_report(tmp_path, capsys, ex1):
    sched_file = tmp_path / "sched.json"
    values_file = tmp_path / "values.csv"
    code, out, _ = run(
        capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file), "--dump-values", str(values_file)
    )
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == pytest.approx(EX1_COST)
    assert report["sequence"] == [2, 2, 1, 1, 1, 2, 1]
    assert report["state_nodes"] == 32
    assert report["sequences"] == 35
    assert json.loads(sched_file.read_text())["timeline"]["total_cost"] == pytest.approx(EX1_COST)
    header, *rows = values_file.read_text().splitlines()
    assert header == "counts;last;breakpoint;value"
    for row in rows:  # every stored breakpoint lies in its state's start window
        counts, last, x, _ = row.split(";")
        last = None if last == "0" else int(last) - 1  # the file writes last 1-based
        state = DiscreteState(tuple(map(int, counts.split(","))), last)
        lo, hi = start_window(ex1, state.counts)
        slack = TOL * max(1.0, hi)
        assert lo - slack <= float(x) <= hi + slack, row


def test_dump_values_needs_dp(tmp_path, capsys):
    values_file = tmp_path / "values.csv"
    code, out, err = run(capsys, "solve", "--method", "enum", EX1, "--dump-values", str(values_file))
    assert code == 2
    assert out == ""
    assert err == "error: --dump-values needs --method dp\n"
    assert not values_file.exists()


@pytest.mark.parametrize("same", ["stdout", "same-file", "same-file-respelled"])
def test_schedule_and_values_need_different_destinations(tmp_path, capsys, same):
    # two payloads on one stdout, or one file written twice, are a usage
    # error found before the instance is read; nothing is solved or written
    target = str(tmp_path / "out.txt")
    output, values = {
        "stdout": ("-", "-"),
        "same-file": (target, target),
        "same-file-respelled": (target, os.path.join(str(tmp_path), ".", "out.txt")),
    }[same]
    code, out, err = run(capsys, "solve", "--method", "dp", EX1, "-o", output, "--dump-values", values)
    assert code == 2
    assert out == ""
    assert err == f"error: -o {output} and --dump-values {values} name the same destination\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("link", ["hard", "symbolic", "copy"])
def test_schedule_and_values_in_one_existing_file_are_refused(tmp_path, capsys, link):
    # -o and --dump-values that name one existing file by two paths, through a
    # hard or a symbolic link: the CSV would replace the schedule, so nothing
    # is written; a copy with the same bytes is another file and is accepted
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_bytes(b"kept\n")
    if link == "hard":
        os.link(first, second)
    elif link == "symbolic":
        second.symlink_to(first)
    else:
        second.write_bytes(b"kept\n")
    code, out, err = run(capsys, "solve", "--method", "dp", EX1, "-o", str(first), "--dump-values", str(second))
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
    if link == "copy":
        assert code == 0
        assert json.loads(first.read_text())["order"] == json.loads(out)["sequence"]
        assert second.read_text().startswith("counts;last;")
        return
    assert (code, out) == (2, "")
    assert err == f"error: -o {first} and --dump-values {second} name the same destination\n"
    assert first.read_bytes() == b"kept\n"


def test_reports_keep_their_text(tmp_path, capsys):
    # validate, certify and count print their reports as indent-2 JSON on
    # stdout, byte for byte as before they shared solve's and emit's printer
    bad = tmp_path / "bad.json"
    doc = json.loads(Path(EX1).read_text())
    doc["classes"][0]["pt_low"] = 9
    bad.write_text(json.dumps(doc))
    sched = tmp_path / "sched.json"
    assert run(capsys, "solve", EX1, "-o", str(sched))[0] == 0
    want = {
        ("validate", EX1): (0, '{\n  "instance": "9b98017e71fa145f",\n  "ok": true,\n  "violations": []\n}\n'),
        ("validate", str(bad)): (1, '{\n  "instance": "b73f5ef695fb1c16",\n  "ok": false,\n  "violations": [\n'
                                    '    {\n      "path": "classes[0].pt_low",\n'
                                    '      "message": "pt_low must not exceed pt_nom"\n    }\n  ]\n}\n'),
        ("count", EX1): (0, '{\n  "command": "count",\n  "instance": "9b98017e71fa145f",\n'
                            '  "state_nodes": 32,\n  "sequences": 35\n}\n'),
    }
    for model in (1, 2, 3):
        want["certify", "--model", str(model), "--schedule", str(sched), EX1] = (
            0, '{\n  "command": "certify",\n  "instance": "9b98017e71fa145f",\n'
               f'  "model": {model},\n  "objective": 11.75,\n  "ok": true,\n  "violations": []\n}}\n')
    for argv, (code, text) in want.items():
        assert run(capsys, *argv) == (code, text, ""), argv


@pytest.mark.parametrize("argv,flag,link", [
    (["solve", "{inst}", "-o", "{dest}"], "-o", None),
    (["solve", "{inst}", "--dump-values", "{dest}"], "--dump-values", None),
    (["emit", "--model", "1", "{inst}", "-o", "{dest}"], "-o", None),
    (["solve", "{inst}", "-o", "{dest}"], "-o", "hard"),
    (["solve", "{inst}", "-o", "{dest}"], "-o", "symbolic"),
], ids=["solve-o", "solve-dump-values", "emit-o", "solve-o-hard-link", "solve-o-symbolic-link"])
def test_output_naming_the_instance_is_refused(tmp_path, capsys, argv, flag, link):
    # an output that is the instance file, by its own path or a link, would
    # replace it; the command stops before writing anything
    inst = tmp_path / "copy.json"
    data = Path(EX1).read_bytes()
    inst.write_bytes(data)
    dest = inst if link is None else tmp_path / "link.json"
    if link == "hard":
        os.link(inst, dest)
    elif link == "symbolic":
        dest.symlink_to(inst)
    code, out, err = run(capsys, *[a.format(inst=inst, dest=dest) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {dest} names the instance file {inst}\n"
    assert inst.read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == sorted({inst.name, dest.name})


def test_max_breakpoints_reported(ex1, capsys):
    vt = backward_induction(ex1)
    want = max(len(vt[s]) for s in vt.states())
    code, out, _ = run(capsys, "solve", "--method", "dp", EX1)
    assert code == 0
    assert json.loads(out)["max_breakpoints"] == want
    code, out, _ = run(capsys, "solve", "--method", "enum", EX1)
    assert "max_breakpoints" not in json.loads(out)
    code, out, _ = run(capsys, "bench", "--jobs", "2,2", "--count", "1", "--seed", "5")
    assert code == 0
    vt = backward_induction(generate(GenParams(jobs=(2, 2), seed=5)))
    assert json.loads(out)[0]["dp_max_breakpoints"] == max(len(vt[s]) for s in vt.states())


def test_ladder_solve_keeps_cost_with_few_breakpoints(tmp_path, capsys):
    # (20,20)/1 stored up to 147 breakpoints per function over the whole
    # domain; on the start windows it needs 25, at the same cost
    target = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", "--jobs", "20,20", "--seed", "1", "-o", str(target))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--method", "dp", str(target))
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == 1876.1112807088675
    assert report["max_breakpoints"] <= 50


def test_solve_methods_agree(tmp_path, capsys):
    code, out_dp, _ = run(capsys, "solve", "--method", "dp", EX1)
    code2, out_enum, _ = run(capsys, "solve", "--method", "enum", EX1)
    assert code == code2 == 0
    assert json.loads(out_dp)["cost"] == pytest.approx(json.loads(out_enum)["cost"], abs=1e-6)


def test_emit_and_count(tmp_path, capsys):
    lp = tmp_path / "m1.lp"
    code, out, _ = run(capsys, "emit", "--model", "1", EX1, "-o", str(lp))
    assert code == 0
    rep = json.loads(out)
    assert rep["binary_count"] == 98
    section = lp.read_text().split("Binaries")[1].split("End")[0]
    assert len(section.split()) == 98
    code, out, _ = run(capsys, "count", EX1)
    assert code == 0
    counts = json.loads(out)
    assert counts["state_nodes"] == 32
    assert counts["sequences"] == 35


@pytest.mark.parametrize("argv", [["emit", "--model", "1", EX1], ["emit", "--model", "1", EX1, "-o", "-"]],
                         ids=["no-output", "dash"])
def test_emit_to_stdout_reports_on_stderr(capsys, argv):
    # the LP text alone is on stdout; the JSON report moves to stderr
    code, out, err = run(capsys, *argv)
    assert code == 0
    rep = size_report(parse_lp(out))
    assert (rep.binary_count, rep.other_count, rep.constraint_count) == (98, 43, 470)
    report = json.loads(err)
    assert report["command"] == "emit"
    assert (report["binary_count"], report["other_count"], report["constraint_count"]) == (98, 43, 470)


def test_solve_schedule_to_stdout_reports_on_stderr(capsys):
    code, out, err = run(capsys, "solve", "--method", "dp", EX1, "-o", "-")
    assert code == 0
    assert json.loads(out)["order"] == [2, 2, 1, 1, 1, 2, 1]
    assert json.loads(err)["cost"] == EX1_COST
    code, out, err = run(capsys, "solve", "--method", "dp", EX1, "--dump-values", "-")
    assert code == 0
    assert out.splitlines()[0] == "counts;last;breakpoint;value"  # the CSV alone
    assert json.loads(err)["state_nodes"] == 32


def test_certify_solved_schedule(tmp_path, capsys):
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    for which in ("1", "2", "3"):
        code, out, _ = run(capsys, "certify", "--model", which, "--schedule", str(sched_file), EX1)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["objective"] == pytest.approx(EX1_COST, abs=1e-6)


def test_certify_rejects_nan_compression(tmp_path, capsys):
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    doc = json.loads(sched_file.read_text())
    doc["u"]["1"][0] = float("nan")
    sched_file.write_text(json.dumps(doc))  # json writes NaN as a bare token
    for which in ("1", "2", "3"):
        code, out, err = run(capsys, "certify", "--model", which, "--schedule", str(sched_file), EX1)
        assert code == 2
        assert out == ""
        assert "u[1][1] = nan outside [0, 4.0]" in err


@pytest.mark.parametrize("field,value", [
    ("u", [[0, 0, 0, 0], [0, 0, 0]]),
    ("order", 5),
    ("order", [2, 2, 1, 1, 1.5, 2, 1]),
    ("order", [2, 2, 1, 1, True, 2, 1]),
    ("u", {"1": [None, 0, 0, 0], "2": [0, 0, 0]}),
    ("u", {"1": 3}),
], ids=["u-list", "order-int", "order-float", "order-bool", "u-null", "u-row-int"])
def test_certify_rejects_malformed_schedule(tmp_path, capsys, field, value):
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    doc = json.loads(sched_file.read_text())
    doc[field] = value
    sched_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--model", "1", "--schedule", str(sched_file), EX1)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {sched_file}: ")


@pytest.mark.parametrize("field,value,message", [
    ("order", [0, 2, 1, 1, 1, 2, 1], "stage 0: class id 0 is not in 1..2"),
    ("order", [2, 2, 1, 1, 1, 2, 3], "stage 6: class id 3 is not in 1..2"),
    ("u", {"1": [0, 0, 0, 0], "2": [0, 0, 0], "3": [5], "x": "junk"},
     "u key '3' is not a class id in 1..2"),
    ("u", {"0": [1], "1": [0, 0, 0, 0], "2": [0, 0, 0]}, "u key '0' is not a class id in 1..2"),
], ids=["zero", "past-last", "u-past-last", "u-zero"])
def test_certify_names_a_bad_class_id_1_based(tmp_path, capsys, field, value, message):
    # the message names the id as the file holds it, 1-based
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    doc = json.loads(sched_file.read_text())
    doc[field] = value
    sched_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--model", "1", "--schedule", str(sched_file), EX1)
    assert (code, out) == (2, "")
    assert err == f"error: {sched_file}: {message}\n"


def test_certify_names_a_compression_too_large_for_a_float(tmp_path, capsys):
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    doc = json.loads(sched_file.read_text())
    doc["u"]["2"][1] = 10**400
    sched_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--model", "1", "--schedule", str(sched_file), EX1)
    assert (code, out) == (2, "")
    assert err == f"error: {sched_file}: u['2'] holds an integer too large for a float\n"


def test_non_utf8_instance_names_its_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"classes": \xff}')
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    for argv in (["validate", str(bad)], ["solve", str(bad)],
                 ["certify", "--model", "1", "--schedule", str(sched_file), str(bad)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"), err


@pytest.mark.parametrize("data", [None, b"{not json", b'{"order": \xff}'],
                         ids=["missing", "malformed", "non-utf8"])
def test_certify_rejects_unreadable_schedule(tmp_path, capsys, data):
    sched_file = tmp_path / "sched.json"
    if data is not None:
        sched_file.write_bytes(data)
    code, out, err = run(capsys, "certify", "--model", "1", "--schedule", str(sched_file), EX1)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read schedule {sched_file}: ")


def test_overflowing_horizon_rejected_by_every_command(tmp_path, capsys):
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    # (class ids, field, value, violation): the horizon bound overflows, or
    # the cost bound does while the horizon stays finite
    for ks, field, value, message in (((0, 1), "pt_nom", 1e308, "horizon bound"),
                                      ((0,), "alpha", [1e308] * 4, "cost bound"),
                                      ((0,), "beta", 1e308, "cost bound")):
        doc = json.loads(open(EX1).read())
        for k in ks:
            doc["classes"][k][field] = value
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert json.loads(out)["violations"] == [{"path": "classes", "message": ANY}]
        for argv in (["solve", "--method", "dp"], ["solve", "--method", "enum"],
                     ["emit", "--model", "1"], ["count"],
                     ["certify", "--model", "1", "--schedule", str(sched_file)]):
            code, out, err = run(capsys, *argv, str(bad))
            assert code == 1, (field, argv)
            assert out == ""
            assert err.startswith(f"invalid instance: classes: {message}"), (field, argv)


def test_subnormal_gamma_rejected_by_every_command(tmp_path, capsys):
    # (pt_nom - pt_low) / gamma overflows: u_max would be infinite
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    doc = json.loads(open(EX1).read())
    doc["classes"][0]["gamma"] = 1e-310
    bad = tmp_path / "subnormal.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["violations"] == [{"path": "classes[0].gamma", "message": ANY}]
    for argv in (["solve", "--method", "dp"], ["solve", "--method", "enum"],
                 ["emit", "--model", "1"], ["count"],
                 ["certify", "--model", "1", "--schedule", str(sched_file)]):
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 1, argv
        assert out == ""
        assert err.startswith("invalid instance: classes[0].gamma: u_max"), argv


def test_integer_too_large_for_a_float_named(tmp_path, capsys):
    # json reads the literal as an int; float() of it raises OverflowError
    text = open(EX1).read().replace('"pt_nom": 8', '"pt_nom": 1' + "0" * 400, 1)
    bad = tmp_path / "bigint.json"
    bad.write_text(text)
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert "classes[0].pt_nom" in err


def test_solve_reports_sequence_count_beyond_int64(tmp_path, capsys):
    inst = tmp_path / "g.json"
    assert run(capsys, "generate", "--jobs", "34,34", "--seed", "0", "-o", str(inst))[0] == 0
    code, out, err = run(capsys, "solve", "--method", "dp", str(inst))
    assert code == 0, err
    assert json.loads(out)["sequences"] == math.comb(68, 34)


def test_bench_csv(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--jobs", "2,2", "--count", "3", "--seed", "5",
        "--method", "both", "--csv", "-o", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    header = lines[0].split(",")
    assert "dp_cost" in header and "enum_cost" in header and "m1_binaries" in header


# famsched bench --jobs 2,3 --count 3 --seed 5 --method both, times aside,
# recorded when each seed built its own three models
BENCH_SIZES = {"m1_binaries": 50, "m1_other": 31, "m1_constraints": 200, "m2_binaries": 25, "m2_other": 36,
               "m2_constraints": 72, "m3_binaries": 25, "m3_other": 46, "m3_constraints": 149}
BENCH_SOLVES = {5: (8.684380305163675, 5), 6: (2.7435989959946854, 5), 7: (37.79738762906111, 4)}


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_bench_builds_each_model_once(monkeypatch, capsys, fmt):
    # a model's sizes depend on the jobs per class alone, so one build per
    # model serves every seed of the batch
    built = []
    build_model = milp.build_model
    monkeypatch.setattr(milp, "build_model", lambda inst, which: built.append(which) or build_model(inst, which))
    code, out, _ = run(capsys, "bench", "--jobs", "2,3", "--count", "3", "--seed", "5", "--method", "both", *fmt)
    assert code == 0
    assert built == [1, 2, 3]
    rows = list(csv.DictReader(io.StringIO(out))) if fmt else json.loads(out)
    want = []
    for seed, (cost, breakpoints) in BENCH_SOLVES.items():
        row = {"seed": seed, "classes": 2, "jobs": "2/3", "state_nodes": 18, "sequences": 10, **BENCH_SIZES,
               "dp_cost": cost, "dp_time_s": ANY, "dp_max_breakpoints": breakpoints,
               "enum_cost": cost, "enum_time_s": ANY}
        want.append({k: v if v is ANY else str(v) for k, v in row.items()} if fmt else row)
    assert [list(r) for r in rows] == [list(r) for r in want]
    assert rows == want


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_bench_rejects_empty_batch(capsys, count, fmt):
    code, out, err = run(capsys, "bench", "--jobs", "2,2", "--count", count, *fmt)
    assert (code, out, err) == (2, "", "error: --count must be at least 1\n")


def test_bench_rejects_empty_jobs(capsys):
    code, out, err = run(capsys, "bench", "--jobs", "")
    assert (code, out, err) == (2, "", "error: --jobs expects a comma list of integers, got ''\n")


@pytest.mark.parametrize("argv", [["generate", "--jobs", "2,2"], ["bench", "--jobs", "2,2", "--count", "1"]])
def test_negative_seed_named(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be non-negative, got -1\n")


def test_unreadable_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.json")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [["emit", "--model", "1", EX1, "-o"], ["solve", EX1, "--dump-values"], ["generate", "--jobs", "2,2", "-o"]],
    ids=["emit", "dump-values", "generate"],
)
def test_unwritable_output(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["count", EX1], ["generate", "--jobs", "2,2"]], ids=["count", "generate"])
def test_closed_stdout_pipe(argv, buffered):
    # a reader that quit early is one error line and exit 2, whether the
    # write fails in the command or at the final flush of a buffered stdout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "famsched.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: cannot write stdout: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


LEAN_RUN = """
import contextlib, io, json, sys
import famsched
from famsched import cli
ex1, lp, generated = sys.argv[1:]
lean = (["solve", "--method", "dp", ex1], ["solve", "--method", "enum", ex1],
        ["validate", ex1], ["count", ex1], ["generate", "--jobs", "2,2", "--seed", "1", "-o", generated])
loaded = lambda: [name in sys.modules for name in ("numpy", "famsched.milp")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in lean]
    before = loaded()
    codes.append(cli.main(["emit", "--model", "1", ex1, "-o", lp]))
print(json.dumps({"codes": codes, "before": before, "after": loaded()}))
"""


def test_solve_generate_validate_and_count_load_no_numpy(tmp_path):
    # the DP, the oracle, the generator, validation and counting are pure
    # Python; only the MILP layer imports numpy, when a command needs it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", LEAN_RUN, EX1, str(tmp_path / "m1.lp"),
                           str(tmp_path / "g.json")],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == {"codes": [0] * 6, "before": [False, False], "after": [True, True]}


def test_package_surface():
    # every exported name is its defining submodule's object; the MILP layer
    # has one import path, famsched.milp, and none of its names is exported
    import famsched

    for name in famsched.__all__:
        obj = getattr(famsched, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert vars(famsched)[name] is obj, name
        assert obj.__module__ != "famsched.milp", name
    star: dict = {}
    exec("from famsched import *", star)
    assert all(star[name] is getattr(famsched, name) for name in famsched.__all__)
    with pytest.raises(AttributeError, match="build_model"):
        famsched.build_model
    assert famsched.milp is milp  # this file's ``from famsched import milp``


PACKAGE_RUN = """
import json, pydoc, sys
loaded = lambda: [name in sys.modules for name in ("numpy", "famsched.milp")]
import famsched
steps = [loaded()]
exec("from famsched import *", {})
steps.append(loaded())
pydoc.render_doc(famsched)
steps.append(loaded())
print(json.dumps(steps))
"""


def test_package_import_star_and_help_load_no_numpy():
    # import famsched, a star import and help(famsched) in a fresh
    # interpreter load neither the MILP layer nor numpy
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", PACKAGE_RUN],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == [[False, False]] * 3


def test_schema_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes": []}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "classes" in err or "missing" in err


def test_option_surface():
    # every option a subcommand takes; none is a knob that only tests set
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subcommands.items()
    }
    assert options == {
        "generate": {"--jobs", "--seed", "-o", "--output"},
        "validate": set(),
        "solve": {"--method", "-o", "--output", "--dump-values"},
        "emit": {"--model", "-o", "--output"},
        "certify": {"--model", "--schedule"},
        "count": set(),
        "bench": {"--jobs", "--count", "--seed", "--method", "--csv", "-o", "--output"},
    }


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "bogus", EX1])
    assert exc.value.code == 2


def test_parser_is_shared_and_calls_do_not_leak(tmp_path, capsys):
    # main parses every call with the one parser of build_parser; no option,
    # default or error of one call reaches the next
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "solve", "--method", "enum", EX1, "-o", str(tmp_path / "f.json"))
    assert code == 0 and json.loads(out)["method"] == "enum"
    code, out, err = run(capsys, "solve", EX1)
    assert code == 0 and err == ""
    assert json.loads(out)["method"] == "dp"
    code, out, err = run(capsys, "emit", "--model", "3", EX1)
    assert code == 0
    assert size_report(parse_lp(out)).binary_count == json.loads(err)["binary_count"]
    lp = tmp_path / "g.lp"
    code, out, err = run(capsys, "emit", "--model", "1", EX1, "-o", str(lp))
    assert code == 0 and err == "" and lp.exists()
    assert json.loads(out)["model"] == 1
    for argv, want in ((["solve", "--method", "bogus", EX1], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == want
    capsys.readouterr()
    code, out, _ = run(capsys, "validate", EX1)
    assert code == 0 and json.loads(out)["ok"] is True


TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from famsched import cli
ex1, tmp = sys.argv[2], sys.argv[3]
argvs = [["solve", "--method", "dp", ex1, "-o", tmp + "/sched.json"],
         ["solve", "--method", "enum", ex1]]
for m in ("1", "2", "3"):
    argvs.append(["emit", "--model", m, ex1, "-o", tmp + "/m.lp"])
    argvs.append(["certify", "--model", m, "--schedule", tmp + "/sched.json", ex1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "metrics": {k: v for k, (v, _) in tracer.metrics().items()}}))
"""


def test_tracer_wraps_every_layer(tmp_path):
    # the perfbench tracer wraps package names by hand; a traced CLI run on
    # ex1 fails or miscounts when one of them is renamed or removed
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root), EX1, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * 8
    metrics = result["metrics"]
    assert metrics["dp.states"] == 32
    # every Pwl is built by Pwl.__init__ (at least one per DP state), and
    # window_min_of hands the lists the closed form cannot take to Pwl.window_min
    assert metrics["pwl.init.calls"] >= metrics["dp.states"]
    assert metrics["pwl.window_min.calls"] == 2
    # the one DP solve builds a stage objective for each of ex1's 7 chosen
    # moves only, and costs every candidate from the backward pass's window
    # minima, with no per-candidate scan
    assert metrics["schedule.stage_objective.calls"] == 7
    # no solver calls these, which only the tracer and the tests name
    for name in ("pwl.min_over", "pwl.add", "pwl.add_affine", "pwl.shift", "pwl.pointwise_min",
                 "schedule.stage_value"):
        assert metrics[f"{name}.calls"] == 0, name
    # the oracle costs sequences by its own pass and solves only the winner
    assert metrics["bench.sequences"] == 1
    assert metrics["bench.brute_force_solve.s"] > 0
    # each model is built twice (emit, certify); the tracer reads these through
    # len(model.constraints) and len(model.variables): ex1's models 1-3 have
    # 470, 116 and 253 rows and 140, 98 and 112 columns
    assert metrics["milp.rows"] == 2 * (470 + 116 + 253)
    assert metrics["milp.vars"] == 2 * (140 + 98 + 112)
    assert metrics["cli.main.calls"] == 8
