"""Command-line front end: generate, validate, solve, emit, certify, count, bench.

File I/O is explicit via flags; reports go to stdout as JSON (CSV for bench
behind --csv), or to stderr when a command writes its payload (LP text, a
schedule, cost-to-go values) to stdout, so that stdout stays parseable.
Exit codes: 0 success, 1 validation/violation findings, 2 usage or input
errors, or a stdout that cannot be written (say, a pipe closed early).  Two
outputs that are one file, or an output that is the instance file, are a
usage error found before anything is written (``_same_file``).

``emit``, ``certify`` and ``bench`` import the MILP layer and numpy when they
run; ``generate``, ``solve``, ``validate`` and ``count`` load neither.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict
from itertools import combinations

from . import bench, dp
from .instance import (
    Instance,
    ParseError,
    SchemaError,
    instance_to_dict,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return load_instance(text)
    except (ParseError, SchemaError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _read_valid_instance(path: str, *outputs: tuple[str, str | None]) -> Instance:
    """Read an instance for a command that solves or compiles it; refuse two
    outputs ``(flag, destination)`` that are one file (``_same_file``) before
    the read, and an output that is the instance file after it."""
    outputs = tuple((flag, dest) for flag, dest in outputs if dest)
    for (flag1, dest1), (flag2, dest2) in combinations(outputs, 2):
        if _same_file(dest1, dest2):
            raise CliError(f"{flag1} {dest1} and {flag2} {dest2} name the same destination")
    inst = _read_instance(path)
    for flag, dest in outputs:
        if not _on_stdout(dest) and _same_file(dest, path):
            raise CliError(f"{flag} {dest} names the instance file {path}")
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstance("\n".join(f"invalid instance: {v}" for v in violations))
    return inst


def _digest(inst: Instance) -> str:
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _on_stdout(path: str | None) -> bool:
    return path is None or path == "-"


def _same_file(a: str, b: str) -> bool:
    """Whether two destinations are one file: ``-`` (stdout) only with ``-``, two
    existing paths by ``stat`` (hard and symbolic links count), two missing
    paths by ``realpath``, and an existing and a missing path never."""
    if "-" in (a, b):
        return a == b
    try:
        return os.path.samestat(os.stat(a), os.stat(b))
    except OSError:  # not both exist
        return not (os.path.exists(a) or os.path.exists(b)) and os.path.realpath(a) == os.path.realpath(b)


def _write(path: str | None, text: str) -> None:
    if _on_stdout(path):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}") from exc


def _report(doc: dict, payload_on_stdout: bool) -> None:
    """Print a command's JSON report, to stderr when its payload took stdout."""
    print(json.dumps(doc, indent=2), file=sys.stderr if payload_on_stdout else sys.stdout)


def _parse_jobs(text: str) -> tuple[int, ...]:
    try:
        jobs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"--jobs expects a comma list of integers, got {text!r}") from exc
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
    _report(report, False)
    return 1 if violations else 0


def cmd_solve(args) -> int:
    if args.dump_values and args.method != "dp":
        raise CliError("--dump-values needs --method dp")
    inst = _read_valid_instance(args.instance, ("-o", args.output), ("--dump-values", args.dump_values))
    t0 = time.perf_counter()
    sched, vt = _solve(inst, args.method)
    elapsed = time.perf_counter() - t0
    doc = schedule_to_dict(inst, sched)
    report = {
        "command": "solve",
        "instance": _digest(inst),
        "method": args.method,
        "cost": sched.timeline.total_cost,
        "sequence": doc["order"],
        "u": doc["u"],
        "sequences": bench.count_sequences(inst),
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
    from . import milp

    inst = _read_valid_instance(args.instance, ("-o", args.output))
    model = milp.build_model(inst, args.model)
    _write(args.output, milp.emit_lp(model))
    _report({
        "command": "emit",
        "instance": _digest(inst),
        "model": args.model,
        **asdict(milp.size_report(model)),
    }, _on_stdout(args.output))
    return 0


def cmd_certify(args) -> int:
    from . import milp

    inst = _read_valid_instance(args.instance)
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read schedule {args.schedule}: {exc}") from exc
    try:
        sched = schedule_from_dict(inst, doc)
    except ValueError as exc:
        raise CliError(f"{args.schedule}: {exc}") from exc
    model = milp.build_model(inst, args.model)
    report = milp.check_assignment(model, milp.encode_schedule(inst, sched, model))
    _report({
        "command": "certify",
        "instance": _digest(inst),
        "model": args.model,
        "objective": report.objective,
        "ok": report.ok,
        "violations": [asdict(v) for v in report.violations],
    }, False)
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    inst = _read_valid_instance(args.instance)
    _report({
        "command": "count",
        "instance": _digest(inst),
        "state_nodes": dp.count_states(inst),
        "sequences": bench.count_sequences(inst),
    }, False)
    return 0


def cmd_bench(args) -> int:
    from . import milp

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
        if idx == 0:  # a model's sizes depend on the jobs per class alone
            reports = [milp.size_report(milp.build_model(inst, which)) for which in (1, 2, 3)]
        for which, rep in enumerate(reports, 1):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``famsched`` parser, built once per process and shared by every call.

    ``parse_args`` returns a fresh namespace and leaves the parser as it is,
    so repeated ``main`` calls see no option of an earlier call.  Callers
    share the one parser and must not mutate it.
    """
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
    """Run one command; return its exit code (argparse exits on a usage error).

    May be called any number of times in one process: every call parses
    with the shared parser of ``build_parser``, which it does not mutate.
    """
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return rc
    except InvalidInstance as exc:
        print(exc, file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit; let that go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except (CliError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
