"""Record the references that run.py checks every op against.

    python3 perfbench/record_refs.py

Solves every instance of every workload, held-out lists included, through
the library (DP, and enumeration where it is cheap, which must agree), and
records the size report of every MILP model built.  Re-record only when a
change is meant to alter results; the output is perfbench/refs.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import ENUM_CHECK_MAX_SEQUENCES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from famsched import bench, dp, milp  # noqa: E402

GOLDEN_COST = 11.75
GOLDEN_ORDER = [2, 2, 1, 1, 1, 2, 1]


def main() -> int:
    costs: dict[str, dict] = {}
    models: dict[str, dict] = {}
    ops = [op for main_ops, held in WORKLOADS.values() for op in main_ops + held]
    for op in ops:
        inst = bench.generate(bench.GenParams(jobs=op.jobs, seed=op.seed))
        if op.command == "solve" and op.key not in costs:
            entry = {}
            if op.arg == "dp" or bench.count_sequences(inst) <= ENUM_CHECK_MAX_SEQUENCES:
                entry["dp_cost"] = dp.extract_open_loop(inst, dp.backward_induction(inst)).cost
            if op.arg == "enum" or bench.count_sequences(inst) <= ENUM_CHECK_MAX_SEQUENCES:
                entry["enum_cost"] = bench.brute_force_solve(inst).cost
            if len(entry) == 2 and abs(entry["dp_cost"] - entry["enum_cost"]) > 1e-6 * max(1.0, abs(entry["enum_cost"])):
                raise SystemExit(f"{op.key}: dp {entry['dp_cost']!r} != enum {entry['enum_cost']!r}")
            entry["cost"] = entry.get("dp_cost", entry.get("enum_cost"))
            costs[op.key] = entry
            print(op.key, entry, flush=True)
        elif op.command == "emit" and op.arg not in models.setdefault(op.key, {}):
            rep = milp.size_report(milp.build_model(inst, int(op.arg)))
            models[op.key][op.arg] = [rep.binary_count, rep.other_count, rep.constraint_count]
    golden = {
        "instance": json.loads((ROOT / "tests" / "data" / "ex1.json").read_text()),
        "cost": GOLDEN_COST,
        "order": GOLDEN_ORDER,
    }
    refs = {"costs": costs, "models": models, "golden": golden}
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
