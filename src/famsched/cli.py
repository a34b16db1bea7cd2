"""Command-line front end: generate, validate, solve, emit, certify, count, bench.

File I/O is explicit via flags; reports go to stdout as JSON (CSV for bench
behind --csv).  Exit codes: 0 success, 1 validation/violation findings,
2 usage or input errors.
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


def _digest(inst: Instance) -> str:
    canonical = json.dumps(
        json.loads(save_instance(inst)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_jobs(text: str) -> tuple[int, ...]:
    try:
        jobs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"--jobs expects a comma list of integers, got {text!r}") from exc
    if not jobs:
        raise CliError("--jobs must name at least one class")
    return jobs


def _solve(inst: Instance, method: str, cap: int) -> tuple[Schedule, dict]:
    extra: dict = {}
    if method == "dp":
        vt = dp.backward_induction(inst)
        sched = dp.extract_open_loop(inst, vt)
        extra["state_nodes"] = vt.graph.node_count
        extra["max_breakpoints"] = max(len(vt[s]) for s in vt.states())
        extra["value_table"] = vt
    elif method == "enum":
        sched = bench.brute_force_solve(inst, cap=cap)
    else:
        raise CliError(f"unknown method {method!r}")
    extra["sequences"] = bench.count_sequences(inst)
    return sched, extra


def cmd_generate(args) -> int:
    jobs = _parse_jobs(args.jobs)
    if args.classes is not None and args.classes != len(jobs):
        raise CliError(f"--classes {args.classes} conflicts with --jobs listing {len(jobs)} classes")
    try:
        params = bench.GenParams(jobs=jobs, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
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
    inst = _read_instance(args.instance)
    violations = validate_instance(inst)
    if violations:
        for v in violations:
            print(f"invalid instance: {v}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    sched, extra = _solve(inst, args.method, args.cap)
    elapsed = time.perf_counter() - t0
    recomputed = sched.timeline.total_cost
    report = {
        "command": "solve",
        "instance": _digest(inst),
        "method": args.method,
        "cost": recomputed,
        "sequence": sched.sequence.to_1based(),
        "u": {str(k + 1): list(row) for k, row in enumerate(sched.plan.u)},
        "sequences": extra.get("sequences"),
        "elapsed_s": elapsed,
    }
    if "state_nodes" in extra:
        report["state_nodes"] = extra["state_nodes"]
        report["max_breakpoints"] = extra["max_breakpoints"]
    if args.output:
        _write(args.output, json.dumps(schedule_to_dict(inst, sched), indent=2))
    if args.dump_values and "value_table" in extra:
        _write(args.dump_values, extra["value_table"].dump_csv())
    print(json.dumps(report, indent=2))
    return 0


def cmd_emit(args) -> int:
    inst = _read_instance(args.instance)
    big_m = None if args.big_m == "auto" else float(args.big_m)
    try:
        model = milp.build_model(inst, args.model, big_m)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write(args.output, milp.emit_lp(model))
    rep = milp.size_report(model)
    print(
        json.dumps(
            {
                "command": "emit",
                "instance": _digest(inst),
                "model": args.model,
                "binary_count": rep.binary_count,
                "other_count": rep.other_count,
                "constraint_count": rep.constraint_count,
                "convention": rep.convention,
            },
            indent=2,
        )
    )
    return 0


def cmd_certify(args) -> int:
    inst = _read_instance(args.instance)
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read schedule {args.schedule}: {exc}") from exc
    try:
        sched = schedule_from_dict(inst, doc)
    except ValueError as exc:
        raise CliError(f"{args.schedule}: {exc}") from exc
    big_m = None if args.big_m == "auto" else float(args.big_m)
    model = milp.build_model(inst, args.model, big_m)
    assignment = milp.encode_schedule(inst, sched, args.model)
    report = milp.check_assignment(model, assignment, tol=args.tol)
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
    inst = _read_instance(args.instance)
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
            rep = milp.size_report(milp.build_model(inst, which))
            row[f"m{which}_binaries"] = rep.binary_count
            row[f"m{which}_other"] = rep.other_count
            row[f"m{which}_constraints"] = rep.constraint_count
        methods = ("dp", "enum") if args.method == "both" else (args.method,)
        for method in methods:
            t0 = time.perf_counter()
            sched, extra = _solve(inst, method, args.cap)
            row[f"{method}_cost"] = sched.timeline.total_cost
            row[f"{method}_time_s"] = time.perf_counter() - t0
            if "max_breakpoints" in extra:
                row[f"{method}_max_breakpoints"] = extra["max_breakpoints"]
        rows.append(row)
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [])
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
    p.add_argument("--classes", type=int, default=None)
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
    p.add_argument("--cap", type=int, default=10**6, help="enumeration cap")
    p.add_argument("-o", "--output", default=None, help="write schedule JSON here")
    p.add_argument("--dump-values", default=None, help="write cost-to-go CSV here (dp)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("emit", help="compile a MILP model to LP text")
    p.add_argument("instance")
    p.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--big-m", default="auto")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("certify", help="check a schedule against a model")
    p.add_argument("instance")
    p.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--big-m", default="auto")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("count", help="state-node and sequence counts")
    p.add_argument("instance")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bench", help="seeded batch of generated instances")
    p.add_argument("--jobs", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("dp", "enum", "both"), default="dp")
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
