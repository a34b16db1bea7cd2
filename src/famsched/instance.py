"""Problem instances: job classes, due-date ladders, setup matrices.

A single machine serves N_k jobs from each class k.  Jobs of one class are
interchangeable; due dates belong to positions within the class and are
taken in earliest-due-date order.  Processing times are compressible at a
cost, and switching classes incurs a sequence-dependent setup time and
setup cost.  Class indices are 0-based throughout the library and 1-based
in all JSON files and CLI output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence


class ParseError(ValueError):
    """Instance document is not well-formed JSON."""


class SchemaError(ValueError):
    """Instance document does not match the expected schema."""


@dataclass(frozen=True)
class ClassParams:
    """Per-class data: processing-time range, compression economics, due dates.

    ``alpha[i]`` is the unit tardiness cost and ``dd[i]`` the due date of the
    (i+1)-th job of the class served (earliest-due-date assignment).
    """

    pt_nom: float
    pt_low: float
    beta: float
    gamma: float
    alpha: tuple[float, ...]
    dd: tuple[float, ...]

    @property
    def n_jobs(self) -> int:
        return len(self.dd)

    @property
    def u_max(self) -> float:
        """Largest admissible compression resource amount for one job."""
        return (self.pt_nom - self.pt_low) / self.gamma


@dataclass(frozen=True)
class Instance:
    """A full problem instance.

    ``st[h][k]`` / ``sc[h][k]`` are the setup time / cost paid when a class-k
    job immediately follows a class-h job (0-based).  The first job of the
    horizon pays no setup; that is encoded by the absence of a predecessor,
    not by an extra matrix row.
    """

    classes: tuple[ClassParams, ...]
    st: tuple[tuple[float, ...], ...]
    sc: tuple[tuple[float, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def jobs_per_class(self) -> tuple[int, ...]:
        return tuple(cp.n_jobs for cp in self.classes)

    @property
    def total_jobs(self) -> int:
        return sum(cp.n_jobs for cp in self.classes)

    @cached_property
    def max_setup_time(self) -> float:
        """The largest entry of ``st`` (0.0 for no entries), read once per
        instance; not a field, so ``==``, ``repr`` and JSON ignore it."""
        return max((v for row in self.st for v in row), default=0.0)

    def setup_time(self, prev: int | None, k: int) -> float:
        return 0.0 if prev is None else self.st[prev][k]

    def setup_cost(self, prev: int | None, k: int) -> float:
        return 0.0 if prev is None else self.sc[prev][k]


# The message of a violation whose number is NaN or infinite.
NOT_FINITE = "must be a finite number"


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with a path-like locator into the instance."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def validate_instance(inst: Instance) -> list[Violation]:
    """Check every instance invariant; an empty list means the instance is ok.

    Violations are data, not failures: callers decide whether to proceed.
    A number that is not finite gets one violation, ``NOT_FINITE``, and
    skips the checks of its value; the horizon and cost bounds are checked
    only when every number is finite.
    """
    out: list[Violation] = []

    def finite(path: str, value: float) -> bool:
        if not math.isfinite(value):
            out.append(Violation(path, NOT_FINITE))
        return math.isfinite(value)

    if inst.n_classes < 2:
        out.append(Violation("classes", "at least two job classes are required"))
    for k, cp in enumerate(inst.classes):
        loc = f"classes[{k}]"
        # a list, not a generator, so that every non-finite scalar is reported
        if all([finite(f"{loc}.{name}", getattr(cp, name)) for name in ("pt_nom", "pt_low", "beta", "gamma")]):
            if not cp.pt_low > 0:
                out.append(Violation(f"{loc}.pt_low", "pt_low must be positive"))
            if cp.pt_low > cp.pt_nom:
                out.append(Violation(f"{loc}.pt_low", "pt_low must not exceed pt_nom"))
            if not cp.gamma > 0:
                out.append(Violation(f"{loc}.gamma", "gamma must be positive"))
            elif not math.isfinite(cp.u_max):
                out.append(Violation(f"{loc}.gamma", "u_max = (pt_nom - pt_low) / gamma is not finite"))
            if cp.beta < 0:
                out.append(Violation(f"{loc}.beta", "beta must be non-negative"))
        if len(cp.alpha) != len(cp.dd):
            out.append(Violation(loc, "alpha and dd must have identical length"))
        if len(cp.dd) < 1:
            out.append(Violation(f"{loc}.dd", "each class needs at least one job"))
        for name, values in (("alpha", cp.alpha), ("dd", cp.dd)):
            for i, v in enumerate(values):
                if finite(f"{loc}.{name}[{i}]", v) and v < 0:
                    out.append(Violation(f"{loc}.{name}[{i}]", f"{name} must be non-negative"))
        for i in range(1, len(cp.dd)):
            if cp.dd[i] < cp.dd[i - 1]:
                out.append(Violation(f"{loc}.dd[{i}]", "dd non-decreasing order violated"))
    for name, mat in (("st", inst.st), ("sc", inst.sc)):
        if len(mat) != inst.n_classes or any(len(row) != inst.n_classes for row in mat):
            out.append(Violation(name, f"{name} must be a {inst.n_classes}x{inst.n_classes} matrix"))
            continue
        for h, row in enumerate(mat):
            for k, v in enumerate(row):
                if not finite(f"{name}[{h}][{k}]", v):
                    continue
                if v < 0:
                    out.append(Violation(f"{name}[{h}][{k}]", "setup entries must be non-negative"))
                if h == k and v != 0:
                    out.append(Violation(f"{name}[{h}][{k}]", "zero diagonal required (no setup within a class)"))
    if any(v.message == NOT_FINITE for v in out):
        return out
    horizon = horizon_upper_bound(inst)
    weights = sum(sum(cp.alpha) + cp.n_jobs * cp.beta for cp in inst.classes)
    max_sc = max((v for row in inst.sc for v in row), default=0.0)
    if not math.isfinite(horizon):
        out.append(Violation("classes", "horizon bound sum(N_k * pt_nom_k) + (N - 1) * max(st) is not finite"))
    elif not math.isfinite(weights * horizon + (inst.total_jobs - 1) * max_sc):
        out.append(Violation("classes", "cost bound (sum(alpha) + sum(N_k * beta_k)) * horizon"
                                        " + (N - 1) * max(sc) is not finite"))
    return out


def start_window(inst: Instance, counts: Sequence[int]) -> tuple[float, float]:
    """Times [lo, hi] at which the next job can start once ``counts[k]`` jobs
    of each class k are done.

    From t = 0, after n >= 1 completions, the next start lies in
    [sum c_k pt_low_k, sum c_k pt_nom_k + (n - 1) max st]: the first job has
    no setup and every later one at most the largest.  With nothing done the
    window is [0, 0].  For every t in a window, the decision window
    [t + st + pt_low, t + st + pt_nom] of serving one more class-k job lies
    inside the window of the counts with c_k one higher.
    """
    n = sum(counts)
    if n == 0:
        return 0.0, 0.0
    lo = hi = 0.0
    for c, cp in zip(counts, inst.classes):
        lo += c * cp.pt_low
        hi += c * cp.pt_nom
    return lo, hi + (n - 1) * inst.max_setup_time


def horizon_upper_bound(inst: Instance) -> float:
    """An upper bound on any no-idle completion time: the end of the start
    window with every job done."""
    return start_window(inst, inst.jobs_per_class)[1]


# -- JSON serialization -----------------------------------------------

_CLASS_FIELDS = {"pt_nom", "pt_low", "beta", "gamma", "alpha", "dd"}
_TOP_FIELDS = {"classes", "st", "sc"}


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(f"{path}: integer too large for a float") from None
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {value}")
    return number


def _require_number_list(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list of numbers")
    return tuple(_require_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _require_matrix(value: Any, size: int, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or len(value) != size:
        raise SchemaError(f"{path}: expected a {size}x{size} matrix")
    rows = []
    for h, row in enumerate(value):
        parsed = _require_number_list(row, f"{path}[{h}]")
        if len(parsed) != size:
            raise SchemaError(f"{path}[{h}]: expected {size} entries, got {len(parsed)}")
        rows.append(parsed)
    return tuple(rows)


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    extra = set(doc) - _TOP_FIELDS - {"metadata"}
    if extra:
        raise SchemaError(f"unknown field(s): {', '.join(sorted(extra))}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise SchemaError(f"missing field(s): {', '.join(sorted(missing))}")
    if "metadata" in doc and not isinstance(doc["metadata"], dict):
        raise SchemaError("metadata: expected an object")
    raw_classes = doc["classes"]
    if not isinstance(raw_classes, list) or not raw_classes:
        raise SchemaError("classes: expected a non-empty list")
    classes = []
    for k, raw in enumerate(raw_classes):
        loc = f"classes[{k}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{loc}: expected an object")
        extra = set(raw) - _CLASS_FIELDS
        if extra:
            raise SchemaError(f"{loc}: unknown field(s): {', '.join(sorted(extra))}")
        missing = _CLASS_FIELDS - set(raw)
        if missing:
            raise SchemaError(f"{loc}: missing field(s): {', '.join(sorted(missing))}")
        alpha = _require_number_list(raw["alpha"], f"{loc}.alpha")
        dd = _require_number_list(raw["dd"], f"{loc}.dd")
        if len(alpha) != len(dd):
            raise SchemaError(f"{loc}: alpha and dd must have identical length")
        classes.append(
            ClassParams(
                pt_nom=_require_number(raw["pt_nom"], f"{loc}.pt_nom"),
                pt_low=_require_number(raw["pt_low"], f"{loc}.pt_low"),
                beta=_require_number(raw["beta"], f"{loc}.beta"),
                gamma=_require_number(raw["gamma"], f"{loc}.gamma"),
                alpha=alpha,
                dd=dd,
            )
        )
    size = len(classes)
    st = _require_matrix(doc["st"], size, "st")
    sc = _require_matrix(doc["sc"], size, "sc")
    return Instance(classes=tuple(classes), st=st, sc=sc)


def load_instance(text: str) -> Instance:
    """Parse an instance JSON document; schema problems name the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    return instance_from_dict(doc)


def instance_to_dict(inst: Instance, metadata: dict | None = None) -> dict:
    doc: dict[str, Any] = {
        "classes": [
            {
                "pt_nom": cp.pt_nom,
                "pt_low": cp.pt_low,
                "beta": cp.beta,
                "gamma": cp.gamma,
                "alpha": list(cp.alpha),
                "dd": list(cp.dd),
            }
            for cp in inst.classes
        ],
        "st": [list(row) for row in inst.st],
        "sc": [list(row) for row in inst.sc],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def save_instance(inst: Instance, metadata: dict | None = None) -> str:
    """Serialize to the instance JSON schema; round-trips through load."""
    return json.dumps(instance_to_dict(inst, metadata), indent=2)
