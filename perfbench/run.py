"""famsched benchmark: one closed-loop client per workload, driving the CLI.

    python3 perfbench/run.py --workload dp_ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run times set-up (prepare.py, five times, each in a fresh process that
imports the package from ``src/`` of this checkout and writes the workload's
instance and schedule files: once before the passes and once after each
pass, so that the set-up times sample the whole run) and repeats passes over
the workload's ops until ``--seconds`` is spent.  Each op is one
``famsched.cli.main([...])`` call, issued only after the previous one
returned, timed from outside and checked against ``refs.json``.  Reference
checks that need extra solves run after the passes, outside the timings.
Between the ops a fixed piece of pure-Python work, the reference chunk, is
timed too; each pass's times are scaled to the reference speed by its
median chunk time, so that the host's slow spells cancel out, and each op is
reported by its median over the passes.  The unscaled times are kept in the
result record.  Set-up times are reported as measured (median of the five).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one plain
pass, then installs the span wrappers of tracer.py and runs one traced
set-up, one traced pass and the traced checks; it prints the per-layer
metrics.  ``--seed`` shuffles the op order of each pass; the instances are
fixed per workload (see workloads.py), and ``--held-out`` swaps in the
workload's held-out instance list.  ``--workload all`` runs every workload in
a child process and prints one table.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  A fuller record (environment, per-op rows, check details) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

from workloads import ENUM_CHECK_MAX_SEQUENCES, PUBLISHED_MODEL1, WORKLOADS, ops_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up runs per run: one before the passes, the others one after each pass
# (any left over run at the end), so that they sample the whole run.
SETUP_REPEATS = 5
# Ops faster than this are repeated within a pass (best time kept), so that
# millisecond ops get enough samples to see past the machine's slow spells.
REPEAT_BELOW_S = 0.05
MAX_REPEATS = 10
REL_TOL = 1e-6
# The time of one reference_chunk() that defines the reference speed: about
# its median on the reference machine (2 vCPUs of a shared Intel Xeon host,
# Python 3.11) in a quiet spell.  End-to-end times are reported at this speed.
REFERENCE_CHUNK_S = 0.004
# Reference chunks timed per pass, at the least (spread over the pass's ops).
CHUNKS_PER_PASS = 8

END_TO_END = ("wall_s", "op_geomean_ms", "peak_rss_mb", "setup_s")


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# -- environment ---------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(loadavg: tuple[float, float, float]) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(loadavg),
    }


# -- set-up --------------------------------------------------------------


def timed_setup(args, workdir: Path) -> float:
    """Run prepare.py once in a fresh process, writing into workdir; wall seconds."""
    argv = [sys.executable, str(HERE / "prepare.py"), args.workload, str(workdir)]
    if args.held_out:
        argv.append("--held-out")
    workdir.mkdir(exist_ok=True)
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return elapsed


def lp_path(files: dict, key: str, model: str) -> str:
    return str(Path(files["instance"][key]).with_suffix(f".m{model}.lp"))


# -- ops -----------------------------------------------------------------


def call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI command with its stdout and stderr captured; rc None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc = None
            err.write(f"raised {exc!r}")
    return rc, out.getvalue(), err.getvalue()


def argv_for(op, files: dict) -> list[str]:
    inst = files["instance"][op.key]
    if op.command == "solve":
        return ["solve", "--method", op.arg, inst]
    if op.command == "emit":
        return ["emit", "--model", op.arg, inst, "-o", lp_path(files, op.key, op.arg)]
    return ["certify", "--model", op.arg, "--schedule", files["schedule"][op.key], inst]


def check_op(op, rc, out: str, err: str, refs: dict, files: dict) -> str | None:
    """None if the op's output matches its reference, else what differs."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    report = json.loads(out)
    if op.command == "solve":
        want = refs["costs"][op.key]["cost"]
        return None if close(report["cost"], want) else f"cost {report['cost']!r} != {want!r}"
    if op.command == "emit":
        got = [report["binary_count"], report["other_count"], report["constraint_count"]]
        want = refs["models"][op.key][op.arg]
        if op.arg == "1" and op.jobs in PUBLISHED_MODEL1:
            want = list(PUBLISHED_MODEL1[op.jobs])
        return None if got == want else f"sizes {got} != {want}"
    want = files["schedule_cost"][op.key]
    if not report["ok"] or not close(report["objective"], want):
        return f"certificate ok={report['ok']} objective {report['objective']!r} != {want!r}"
    return None


def reference_chunk() -> float:
    """A fixed piece of pure-Python work (tuple building, dict stores, float
    arithmetic) that no change to famsched can make faster or slower.  Timed
    between the ops, it measures how fast the machine runs during a pass."""
    acc = 0.0
    table: dict[int, tuple[float, int]] = {}
    for i in range(20_000):
        pair = (i * 0.5, i % 7)
        table[i & 255] = pair
        acc += pair[0] * pair[1] + len(table)
    return acc


def run_pass(ops, order, files, refs, repeat_below=0.0, tracer=None, chunks=None):
    """Every op in the given order; an op faster than ``repeat_below`` seconds
    is repeated (at most MAX_REPEATS times) until its repetitions add up to
    that, keeping its best time.  With a ``chunks`` list, reference chunks are
    timed after each op (at least CHUNKS_PER_PASS in the pass) and their
    times appended to it.
    Returns (best time per op, ops attempted, failures, census per op)."""
    from famsched import cli

    times = [math.inf] * len(ops)
    attempted = 0
    failures: list[tuple[int, str]] = []
    census: dict[int, list] = {}
    for i in order:
        op = ops[i]
        argv = argv_for(op, files)
        spent = 0.0
        gc.collect()  # start every op from a collected heap, as a fresh CLI process would
        for _ in range(MAX_REPEATS):
            t0 = perf_counter()
            rc, out, err = call(cli, argv)
            elapsed = perf_counter() - t0
            times[i] = min(times[i], elapsed)
            spent += elapsed
            attempted += 1
            try:
                problem = check_op(op, rc, out, err, refs, files)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"malformed report: {exc!r}"
            if problem:
                failures.append((i, problem))
            if spent > repeat_below:
                break
        for _ in range(0 if chunks is None else math.ceil(CHUNKS_PER_PASS / len(ops))):
            t0 = perf_counter()
            reference_chunk()
            chunks.append(perf_counter() - t0)
        if tracer is not None and tracer.census:
            census[i] = tracer.census[:]
            tracer.census.clear()
    return times, attempted, failures, census


# -- reference checks outside the timed passes -----------------------------


def post_checks(ops, files: dict, refs: dict, workdir: Path) -> list[dict]:
    """Checks that need extra work; each is one attempted item."""
    from famsched import bench, cli, load_instance, milp

    results = []

    def check(name, fn):
        try:
            problem = fn()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"raised {exc!r}"
        results.append({"check": name, "ok": problem is None, "detail": problem})

    def run(argv) -> dict:
        rc, out, err = call(cli, argv)
        if rc != 0:
            raise ValueError(f"exit {rc}: {err.strip()[:200]}")
        return json.loads(out)

    def same_cost(argv, want):
        got = run(argv)["cost"]
        return None if close(got, want) else f"cost {got!r} != {want!r}"

    def same_sizes(path, want):
        rep = milp.size_report(milp.parse_lp(Path(path).read_text()))
        got = [rep.binary_count, rep.other_count, rep.constraint_count]
        return None if got == want else f"parse_lp sizes {got} != {want}"

    # DP and enumeration agree where enumeration is cheap.
    for op in ops:
        if op.command != "solve":
            continue
        path = files["instance"][op.key]
        if bench.count_sequences(load_instance(Path(path).read_text())) > ENUM_CHECK_MAX_SEQUENCES:
            continue
        other = "enum" if op.arg == "dp" else "dp"
        check(f"solve --method {other} {op.key}",
              lambda: same_cost(["solve", "--method", other, path], refs["costs"][op.key]["cost"]))

    # Every emitted LP file parses back to the reported sizes.
    for op in ops:
        if op.command == "emit":
            check(f"parse_lp model {op.arg} {op.key}",
                  lambda: same_sizes(lp_path(files, op.key, op.arg), refs["models"][op.key][op.arg]))

    # The golden example through every command.
    golden = refs["golden"]
    path = files["instance"]["golden"]
    sched_path = str(workdir / "golden.sched.json")

    def golden_solve(method):
        report = run(["solve", "--method", method, path, "-o", sched_path])
        if close(report["cost"], golden["cost"]) and report["sequence"] == golden["order"]:
            return None
        return f"cost {report['cost']!r} order {report['sequence']}"

    def golden_emit(model):
        lp = lp_path(files, "golden", model)
        report = run(["emit", "--model", model, path, "-o", lp])
        return same_sizes(lp, [report["binary_count"], report["other_count"],
                               report["constraint_count"]])

    def golden_certify(model):
        got = run(["certify", "--model", model, "--schedule", sched_path, path])["objective"]
        return None if close(got, golden["cost"]) else f"objective {got!r} != {golden['cost']!r}"

    for method in ("enum", "dp"):  # dp last: its schedule is the one certified
        check(f"golden solve --method {method}", lambda: golden_solve(method))
    for model in ("1", "2", "3"):
        check(f"golden emit --model {model}", lambda: golden_emit(model))
        check(f"golden certify --model {model}", lambda: golden_certify(model))
    return results


# -- one workload ----------------------------------------------------------


def run_workload(args, loadavg) -> dict:
    env = environment(loadavg)
    refs = json.loads((HERE / "refs.json").read_text())
    ops = ops_for(args.workload, args.held_out)
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = [timed_setup(args, workdir)]
        files = json.loads((workdir / "manifest.json").read_text())
        sys.path.insert(0, str(ROOT / "src"))

        passes: list[list[float]] = []
        pass_chunks: list[list[float]] = []
        failures: list[tuple[int, str]] = []
        attempted = 0
        start = perf_counter()
        fastest_step = math.inf
        while True:
            order = list(range(len(ops)))
            rng.shuffle(order)
            repeat_below = 0.0 if args.trace else REPEAT_BELOW_S
            step_start = perf_counter()
            chunks: list[float] = []
            times, n, failed, _ = run_pass(ops, order, files, refs, repeat_below, chunks=chunks)
            pass_chunks.append(chunks)
            passes.append(times)
            attempted += n
            failures += failed
            if args.trace:
                break
            if len(setups) < SETUP_REPEATS:  # into a directory of its own
                setups.append(timed_setup(args, workdir / "setup"))
            # the fastest pass-plus-set-up so far predicts the next one
            fastest_step = min(fastest_step, perf_counter() - step_start)
            if perf_counter() - start + fastest_step > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(args, workdir / "setup"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = None
        if args.trace:
            from prepare import prepare
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            files = prepare(ops, workdir, refs["golden"])
            order = list(range(len(ops)))
            rng.shuffle(order)
            traced_times, n, failed, census = run_pass(ops, order, files, refs, tracer=tracer)
            failures += failed
            attempted += n
        checks = post_checks(ops, files, refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += len(checks)
    failed_n = len(failures) + sum(not c["ok"] for c in checks)
    # The host this runs on switches between a fast and a slow state (up to
    # twice as slow) for seconds to minutes at a time, so an op's raw time
    # depends on when it ran.  Each pass's times are therefore scaled to the
    # reference speed by that pass's median reference-chunk time, and each op
    # is reported by its median over passes.  A pass run in a slow spell has
    # slower chunks as well as slower ops, and the ratio cancels the spell.
    # Set-up runs in a child process, which the parent's chunks do not follow
    # (scaled set-up times spread more than raw ones), so it is left unscaled.
    scale = [REFERENCE_CHUNK_S / statistics.median(c) if c else 1.0 for c in pass_chunks]
    at_ref = [statistics.median(p[i] * k for p, k in zip(passes, scale)) for i in range(len(ops))]
    best = [min(p[i] for p in passes) for i in range(len(ops))]
    unscaled = {"best_wall_s": sum(best), "best_op_geomean_ms": 1e3 * geomean(best)}
    rows = []
    for i, op in enumerate(ops):
        row = {"op": op.label, "at_ref_s": at_ref[i], "best_s": best[i],
               "runs_s": [p[i] for p in passes]}
        if tracer is not None:
            row["traced_s"] = traced_times[i]
            row["census"] = census.get(i, [])
        rows.append(row)

    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (sum(traced_times) - sum(passes[0]), "s")
        tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        metrics = {
            "wall_s": (sum(at_ref), "s"),
            "op_geomean_ms": (1e3 * geomean(at_ref), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    return {
        "workload": args.workload,
        "held_out": args.held_out,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "environment": env,
        "setup_runs_s": setups,
        "pass_chunks_s": pass_chunks,
        "pass_scale": scale,
        "unscaled": unscaled,
        "ops": rows,
        "op_failures": [{"op": ops[i].label, "detail": d} for i, d in failures],
        "checks": checks,
        "result": {
            "correct": failed_n == 0,
            "attempted": attempted,
            "failed": failed_n,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def summary(record: dict) -> str:
    res = record["result"]
    parts = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()
             if k in END_TO_END]
    parts.append(f"fail_ratio={res['failed'] / res['attempted']:.6g} 1 "
                 f"({res['failed']}/{res['attempted']})")
    raw = record["unscaled"]
    parts.append(f"[unscaled: best wall_s={raw['best_wall_s']:.6g} s  op_geomean_ms="
                 f"{raw['best_op_geomean_ms']:.6g} ms]")
    return f"{record['workload']}: " + "  ".join(parts)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.held_out:
            argv.append("--held-out")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        print(lines[-2])  # the run's summary line
    return status


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run the workload's held-out instance list")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "famsched" / "__init__.py").is_file():
        print(f"error: no famsched package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args, loadavg)
    tag = f"{args.workload}{'-heldout' if args.held_out else ''}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    for row in record["ops"]:
        extra = ""
        for c in row.get("census", []):
            extra = f"  states={c['states']} bp_max={c['bp_max']} (stage {c['bp_max_stage']})"
        print(f"  {row['op']:<32} {row['at_ref_s']:9.4f} s{extra}")
    failed = record["op_failures"] + [c for c in record["checks"] if not c["ok"]]
    for item in failed[:20]:
        print(f"  FAILED {item.get('op') or item.get('check')}: {item['detail']}")
    if len(failed) > 20:
        print(f"  ... and {len(failed) - 20} more failures, listed in the result record")
    print("env: " + json.dumps(record["environment"]))
    print(summary(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
