"""CLI surface: subcommands, files, exit codes."""

import json

import pytest

from famsched.bench import GenParams, generate
from famsched.cli import main
from famsched.dp import backward_induction
from tests.conftest import DATA, EX1_COST

EX1 = str(DATA / "ex1.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_validate(tmp_path, capsys):
    target = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", "--classes", "2", "--jobs", "3,3", "--seed", "42", "-o", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["metadata"]["seed"] == 42
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_generate_conflicting_classes(capsys):
    code, _, err = run(capsys, "generate", "--classes", "3", "--jobs", "2,2")
    assert code == 2
    assert "conflicts" in err


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
    for method in ("dp", "enum"):
        code, _, err = run(capsys, "solve", "--method", method, str(bad))
        assert code == 1
        assert "dd must be non-negative" in err


def test_validate_rejects_nan_and_inf(tmp_path, capsys):
    doc = json.loads(open(EX1).read())
    doc["classes"][0]["pt_nom"] = float("nan")
    doc["st"][0][1] = float("inf")
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "pt_nom" in err


def test_solve_dp_report(tmp_path, capsys):
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
    assert values_file.read_text().startswith("counts;last;breakpoint;value")


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


def test_certify_solved_schedule(tmp_path, capsys):
    sched_file = tmp_path / "sched.json"
    run(capsys, "solve", "--method", "dp", EX1, "-o", str(sched_file))
    for which in ("1", "2", "3"):
        code, out, _ = run(capsys, "certify", "--model", which, "--schedule", str(sched_file), EX1)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["objective"] == pytest.approx(EX1_COST, abs=1e-6)


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


def test_unreadable_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.json")
    assert code == 2
    assert "cannot read" in err


def test_schema_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes": []}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "classes" in err or "missing" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "bogus", EX1])
    assert exc.value.code == 2
