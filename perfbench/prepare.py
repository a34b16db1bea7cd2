"""Benchmark set-up: write a workload's instance and schedule files.

    python3 perfbench/prepare.py WORKLOAD WORKDIR [--held-out]

Generates every instance of the workload with ``bench.generate``, writes it
as instance JSON, writes a class-block schedule with zero compression for
each certify target, writes the golden example, and validates every file
through the CLI as a warm-up.  The paths and schedule costs go to
``WORKDIR/manifest.json``.  run.py times this script in a fresh process, so
that set-up time includes importing the package and its dependencies.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import instance_key, instances_for, ops_for

ROOT = Path(__file__).resolve().parent.parent


def _stem(key: str) -> str:
    return key.replace("/", "_s")


def prepare(ops, workdir: Path, golden: dict) -> dict:
    from famsched import bench, cli, schedule
    from famsched.instance import instance_from_dict, save_instance

    manifest: dict = {"instance": {}, "schedule": {}, "schedule_cost": {}}
    certified = {op.key for op in ops if op.command == "certify"}
    for jobs, seed in instances_for(ops):
        key = instance_key(jobs, seed)
        params = bench.GenParams(jobs=jobs, seed=seed)
        inst = bench.generate(params)
        path = workdir / f"{_stem(key)}.json"
        path.write_text(save_instance(inst, metadata=params.metadata()))
        manifest["instance"][key] = str(path)
        if key in certified:
            seq = schedule.Sequence(tuple(k for k, n in enumerate(jobs) for _ in range(n)))
            plan = schedule.CompressionPlan.zero(inst)
            sched = schedule.Schedule(seq, plan, schedule.build_timeline(inst, seq, plan))
            spath = workdir / f"{_stem(key)}.sched.json"
            spath.write_text(json.dumps(schedule.schedule_to_dict(inst, sched)))
            manifest["schedule"][key] = str(spath)
            manifest["schedule_cost"][key] = sched.cost
    path = workdir / "golden.json"
    path.write_text(save_instance(instance_from_dict(golden["instance"])))
    manifest["instance"]["golden"] = str(path)
    for path in manifest["instance"].values():
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(["validate", path])
        if rc != 0:
            raise RuntimeError(f"{path} does not validate: {err.getvalue()}")
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def main(argv: list[str]) -> int:
    workload, workdir = argv[0], Path(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    refs = json.loads((Path(__file__).resolve().parent / "refs.json").read_text())
    prepare(ops_for(workload, "--held-out" in argv), workdir, refs["golden"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
