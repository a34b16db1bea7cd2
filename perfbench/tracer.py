"""Span recorder for the traced run.

Wrappers are installed from here, around the public functions of every
famsched layer, so the package itself carries no tracing code.  A name bound
by ``from ... import`` is wrapped where it is looked up as well as where it
is defined, because patching only the defining module would miss calls made
through the importing module's own binding.

Spans (name, start, end, parent) are kept in flat arrays while the run lasts
and written out once at the end.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so direct
children never overlap.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PWL_OPS = ("add", "add_affine", "shift", "pointwise_min", "window_min",
           "value_at", "min_over", "argmin_over", "init")
PWL_BP_OPS = ("add", "shift", "pointwise_min", "window_min")
SCHEDULE_FNS = ("stage_objective", "stage_value", "select_completion",
                "optimize_compressions", "build_timeline")


class Tracer:
    """Records spans and layer counters; one instance per traced run."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.bp_max = 0
        self.census: list[dict] = []  # one entry per backward_induction, drained per op

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, span: str, fn, hook=None):
        """Return fn recording one span per call; hook(args, result) runs
        after the span closes and may update counters."""
        nid = self._ids.setdefault(span, len(self._ids))
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _bp_hook(self, op: str, binary: bool):
        def hook(args, result):
            bp_in = len(args[0]) + (len(args[1]) if binary else 0)
            self._count(f"pwl.{op}.bp_in", bp_in)
            self._count(f"pwl.{op}.bp_out", len(result))
        return hook

    def _census_hook(self, args, vt):
        """Breakpoint census of one ValueTable, read through its public API."""
        jobs = args[0].jobs_per_class
        per_stage = []
        edges = bp_sum = 0
        for stage in vt.graph.stages:
            bps = [len(vt[s]) for s in stage]
            bp_sum += sum(bps)
            per_stage.append({"states": len(stage), "bp_mean": sum(bps) / len(bps),
                              "bp_max": max(bps)})
            edges += sum(c < n for s in stage for c, n in zip(s.counts, jobs))
        worst = max(range(len(per_stage)), key=lambda j: per_stage[j]["bp_max"])
        states = sum(row["states"] for row in per_stage)
        self._count("dp.states", states)
        self._count("dp.edges", edges)
        self._count("dp.bp_sum", bp_sum)
        self.bp_max = max(self.bp_max, per_stage[worst]["bp_max"])
        self.census.append({"states": states, "edges": edges,
                            "bp_max": per_stage[worst]["bp_max"], "bp_max_stage": worst,
                            "stages": per_stage})

    def _model_hook(self, args, model):
        self._count("milp.rows", len(model.constraints))
        self._count("milp.vars", len(model.variables))

    def _bytes_hook(self, args, text):
        self._count("milp.emit_lp.bytes", len(text.encode()))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer in the imported package."""
        from famsched import bench, cli, dp, instance, milp, pwl, schedule

        cls = pwl.Pwl
        for op in PWL_OPS:
            attr = "__init__" if op == "init" else op
            hook = self._bp_hook(op, op in ("add", "pointwise_min")) if op in PWL_BP_OPS else None
            setattr(cls, attr, self.wrap(f"pwl.{op}", getattr(cls, attr), hook))

        for fn in SCHEDULE_FNS:
            wrapped = self.wrap(f"schedule.{fn}", getattr(schedule, fn))
            setattr(schedule, fn, wrapped)
            if hasattr(dp, fn):  # from-import binding in dp
                setattr(dp, fn, wrapped)

        dp.build_state_graph = self.wrap("dp.build_state_graph", dp.build_state_graph)
        dp.backward_induction = self.wrap("dp.backward_induction", dp.backward_induction,
                                          self._census_hook)
        dp.extract_open_loop = self.wrap("dp.extract_open_loop", dp.extract_open_loop)

        bench.generate = self.wrap("bench.generate", bench.generate)
        bench.brute_force_solve = self.wrap("bench.brute_force_solve", bench.brute_force_solve)
        bench.solve_sequence = self.wrap("bench.solve_sequence", bench.solve_sequence)

        for m in (1, 2, 3):
            name = f"build_model{m}"
            setattr(milp, name, self.wrap(f"milp.build_model.m{m}", getattr(milp, name),
                                          self._model_hook))
        milp.emit_lp = self.wrap("milp.emit_lp", milp.emit_lp, self._bytes_hook)
        for fn in ("encode_schedule", "check_assignment", "parse_lp"):
            setattr(milp, fn, self.wrap(f"milp.{fn}", getattr(milp, fn)))

        for fn in ("load_instance", "validate_instance"):
            wrapped = self.wrap(f"instance.{fn}", getattr(instance, fn))
            setattr(instance, fn, wrapped)
            setattr(cli, fn, wrapped)  # from-import binding in cli
        cli.main = self.wrap("cli.main", cli.main)

    # -- results -----------------------------------------------------------

    def _per_name(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total seconds, self seconds)."""
        if not self.name:
            return {}
        nid = np.frombuffer(self.name, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self._ids)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for name, i in self._ids.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, name -> (value, unit)."""
        spans = self._per_name()

        def calls(n):
            return spans.get(n, (0, 0.0, 0.0))[0]

        def total(n):
            return spans.get(n, (0, 0.0, 0.0))[1]

        def own(n):
            return spans.get(n, (0, 0.0, 0.0))[2]

        out: dict[str, tuple[float, str]] = {}
        for op in PWL_OPS:
            out[f"pwl.{op}.calls"] = (calls(f"pwl.{op}"), "count")
            out[f"pwl.{op}.self_s"] = (own(f"pwl.{op}"), "s")
        for op in PWL_BP_OPS:
            for side in ("bp_in", "bp_out"):
                out[f"pwl.{op}.{side}"] = (self.counts.get(f"pwl.{op}.{side}", 0), "count")
        states = self.counts.get("dp.states", 0)
        out["dp.build_state_graph.s"] = (total("dp.build_state_graph"), "s")
        out["dp.backward_induction.s"] = (total("dp.backward_induction"), "s")
        out["dp.backward_induction.self_s"] = (own("dp.backward_induction"), "s")
        out["dp.extract_open_loop.s"] = (total("dp.extract_open_loop"), "s")
        out["dp.states"] = (states, "count")
        out["dp.edges"] = (self.counts.get("dp.edges", 0), "count")
        out["dp.bp_mean"] = (self.counts.get("dp.bp_sum", 0) / states if states else 0.0, "count")
        out["dp.bp_max"] = (self.bp_max, "count")
        for fn in SCHEDULE_FNS:
            out[f"schedule.{fn}.calls"] = (calls(f"schedule.{fn}"), "count")
            out[f"schedule.{fn}.self_s"] = (own(f"schedule.{fn}"), "s")
        sequences = calls("bench.solve_sequence")
        enum_s = total("bench.brute_force_solve")
        out["bench.generate.s"] = (total("bench.generate"), "s")
        out["bench.brute_force_solve.s"] = (enum_s, "s")
        out["bench.sequences"] = (sequences, "count")
        out["bench.ms_per_sequence"] = (1e3 * enum_s / sequences if sequences else 0.0, "ms")
        for m in (1, 2, 3):
            out[f"milp.build_model.m{m}.s"] = (total(f"milp.build_model.m{m}"), "s")
        out["milp.emit_lp.s"] = (total("milp.emit_lp"), "s")
        out["milp.emit_lp.bytes"] = (self.counts.get("milp.emit_lp.bytes", 0), "B")
        for fn in ("encode_schedule", "check_assignment", "parse_lp"):
            out[f"milp.{fn}.s"] = (total(f"milp.{fn}"), "s")
        out["milp.rows"] = (self.counts.get("milp.rows", 0), "count")
        out["milp.vars"] = (self.counts.get("milp.vars", 0), "count")
        out["cli.main.calls"] = (calls("cli.main"), "count")
        out["cli.main.self_s"] = (own("cli.main"), "s")
        out["instance.load_instance.s"] = (total("instance.load_instance"), "s")
        out["instance.validate_instance.s"] = (total("instance.validate_instance"), "s")
        return out

    def write(self, path: Path) -> None:
        """Write every span: name table plus parallel name/parent/start/end arrays."""
        names = sorted(self._ids, key=self._ids.get)
        np.savez(path, names=np.array(names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
