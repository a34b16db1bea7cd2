"""Command-line front end: generate, validate, solve, emit, certify, count, bench.

File I/O is explicit via flags; reports go to stdout as JSON (CSV for bench
behind --csv), or to stderr when a command writes its payload (LP text, a
schedule, cost-to-go values) to stdout, so that stdout stays parseable.
Exit codes: 0 success, 1 validation/violation findings, 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

from . import bench, dp, milp
from .instance import (
    Instance,
    ParseError,
    SchemaError,
    load_instance,
    save_instance,
    validate_instance,
)
from .schedule import Schedule, schedule_from_dict, schedule_to_dict


class CliError(Exception):
    """Input problem reported to stderr with exit code 2."""


class InvalidInstance(Exception):
    """Instance violations, one ``invalid instance:`` line each, exit code 1."""


def _read_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return load_instance(text)
    except (ParseError, SchemaError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _read_valid_instance(path: str) -> Instance:
    """Read an instance for a command that solves or compiles it."""
    inst = _read_instance(path)
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstance("\n".join(f"invalid instance: {v}" for v in violations))
    return inst


def _digest(inst: Instance) -> str:
    canonical = json.dumps(
        json.loads(save_instance(inst)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _on_stdout(path: str | None) -> bool:
    return path is None or path == "-"


def _write(path: str | None, text: str) -> None:
    if _on_stdout(path):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(doc: dict, payload_on_stdout: bool) -> None:
    """Print a command's JSON report, to stderr when its payload took stdout."""
    print(json.dumps(doc, indent=2), file=sys.stderr if payload_on_stdout else sys.stdout)


def _parse_jobs(text: str) -> tuple[int, ...]:
    try:
        jobs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"--jobs expects a comma list of integers, got {text!r}") from exc
    if not jobs:
        raise CliError("--jobs must name at least one class")
    return jobs


def _solve(inst: Instance, method: str) -> tuple[Schedule, dp.ValueTable | None]:
    if method == "dp":
        vt = dp.backward_induction(inst)
        return dp.extract_open_loop(inst, vt), vt
    return bench.brute_force_solve(inst), None


def cmd_generate(args) -> int:
    params = bench.GenParams(jobs=_parse_jobs(args.jobs), seed=args.seed)
    inst = bench.generate(params)
    _write(args.output, save_instance(inst, metadata=params.metadata()))
    return 0


def cmd_validate(args) -> int:
    inst = _read_instance(args.instance)
    violations = validate_instance(inst)
    report = {
        "instance": _digest(inst),
        "ok": not violations,
        "violations": [{"path": v.path, "message": v.message} for v in violations],
    }
    print(json.dumps(report, indent=2))
    return 1 if violations else 0


def cmd_solve(args) -> int:
    if args.dump_values and args.method != "dp":
        raise CliError("--dump-values needs --method dp")
    inst = _read_valid_instance(args.instance)
    t0 = time.perf_counter()
    sched, vt = _solve(inst, args.method)
    sequences = bench.count_sequences(inst)
    elapsed = time.perf_counter() - t0
    doc = schedule_to_dict(inst, sched)
    report = {
        "command": "solve",
        "instance": _digest(inst),
        "method": args.method,
        "cost": sched.timeline.total_cost,
        "sequence": doc["order"],
        "u": doc["u"],
        "sequences": sequences,
        "elapsed_s": elapsed,
    }
    if vt is not None:
        report["state_nodes"] = len(vt)
        report["max_breakpoints"] = max(len(vt[s]) for s in vt.states())
    if args.output:
        _write(args.output, json.dumps(doc, indent=2))
    if args.dump_values:
        _write(args.dump_values, vt.dump_csv())
    _report(report, "-" in (args.output, args.dump_values))
    return 0


def cmd_emit(args) -> int:
    inst = _read_valid_instance(args.instance)
    model = milp.build_model(inst, args.model)
    _write(args.output, milp.emit_lp(model))
    rep = milp.size_report(model)
    _report(
        {
            "command": "emit",
            "instance": _digest(inst),
            "model": args.model,
            "binary_count": rep.binary_count,
            "other_count": rep.other_count,
            "constraint_count": rep.constraint_count,
            "convention": rep.convention,
        },
        _on_stdout(args.output),
    )
    return 0


def cmd_certify(args) -> int:
    inst = _read_valid_instance(args.instance)
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read schedule {args.schedule}: {exc}") from exc
    try:
        sched = schedule_from_dict(inst, doc)
    except ValueError as exc:
        raise CliError(f"{args.schedule}: {exc}") from exc
    model = milp.build_model(inst, args.model)
    report = milp.check_assignment(model, milp.encode_schedule(inst, sched, model))
    print(
        json.dumps(
            {
                "command": "certify",
                "instance": _digest(inst),
                "model": args.model,
                "objective": report.objective,
                "ok": report.ok,
                "violations": [
                    {"kind": v.kind, "name": v.name, "amount": v.amount, "detail": v.detail}
                    for v in report.violations
                ],
            },
            indent=2,
        )
    )
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    inst = _read_valid_instance(args.instance)
    print(
        json.dumps(
            {
                "command": "count",
                "instance": _digest(inst),
                "state_nodes": dp.count_states(inst),
                "sequences": bench.count_sequences(inst),
            },
            indent=2,
        )
    )
    return 0


def cmd_bench(args) -> int:
    if args.count < 1:
        raise CliError("--count must be at least 1")
    jobs = _parse_jobs(args.jobs)
    rows = []
    for idx in range(args.count):
        params = bench.GenParams(jobs=jobs, seed=args.seed + idx)
        inst = bench.generate(params)
        row: dict = {
            "seed": params.seed,
            "classes": len(jobs),
            "jobs": "/".join(str(n) for n in jobs),
            "state_nodes": dp.count_states(inst),
            "sequences": bench.count_sequences(inst),
        }
        for which in (1, 2, 3):
            rep = milp.model_size(jobs, which)
            row[f"m{which}_binaries"] = rep.binary_count
            row[f"m{which}_other"] = rep.other_count
            row[f"m{which}_constraints"] = rep.constraint_count
        methods = ("dp", "enum") if args.method == "both" else (args.method,)
        for method in methods:
            t0 = time.perf_counter()
            sched, vt = _solve(inst, method)
            row[f"{method}_cost"] = sched.timeline.total_cost
            row[f"{method}_time_s"] = time.perf_counter() - t0
            if vt is not None:
                row[f"{method}_max_breakpoints"] = max(len(vt[s]) for s in vt.states())
        rows.append(row)
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        _write(args.output, buf.getvalue())
    else:
        _write(args.output, json.dumps(rows, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famsched",
        description="Exact solvers and MILP compilers for family scheduling "
        "with sequence-dependent setups and compressible processing times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--jobs", required=True, help="jobs per class, e.g. 5,5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="find an optimal schedule")
    p.add_argument("instance")
    p.add_argument("--method", choices=("dp", "enum"), default="dp")
    p.add_argument("-o", "--output", default=None, help="write schedule JSON here")
    p.add_argument("--dump-values", default=None, help="write cost-to-go CSV here (dp)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("emit", help="compile a MILP model to LP text")
    p.add_argument("instance")
    p.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("certify", help="check a schedule against a model")
    p.add_argument("instance")
    p.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("count", help="state-node and sequence counts")
    p.add_argument("instance")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bench", help="seeded batch of generated instances")
    p.add_argument("--jobs", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("dp", "enum", "both"), default="dp")
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInstance as exc:
        print(exc, file=sys.stderr)
        return 1
    except (CliError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
