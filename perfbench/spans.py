"""Span tracing around the calls between qdyn's modules.

Tracing is installed at run time and only for a traced run: `traced()`
replaces the names each module imports from its neighbours (and the few
module-level names a module calls itself) with wrappers that record a span
per call, then restores the originals.  No source file changes, and an
untraced run installs nothing.

A span records its name, start, end, parent and the job it belongs to.
Spans stay in memory until the run writes them out.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The module's own name is patched where
# the module calls it through its globals: basin_boundary reaches
# classify_fate that way, and enumerate_fixed_points reaches
# fixed_point_for_support.
PATCHES = (
    ("qdyn.cli", "basin_boundary", "dynamics.basin"),
    ("qdyn.cli", "classify_fate", "dynamics.fate"),
    ("qdyn.cli", "iterate", "dynamics.iterate"),
    ("qdyn.cli", "enumerate_fixed_points", "fixed_points.enumerate"),
    ("qdyn.cli", "fixed_point_for_support", "fixed_points.for_support"),
    ("qdyn.cli", "spectrum_at", "stability.spectrum"),
    ("qdyn.cli", "classify", "stability.classify"),
    ("qdyn.cli", "verification_sweep", "verify.sweep"),
    ("qdyn.dynamics", "classify_fate", "dynamics.fate"),
    ("qdyn.dynamics", "enumerate_fixed_points", "fixed_points.enumerate"),
    ("qdyn.dynamics", "spectrum_at", "stability.spectrum"),
    ("qdyn.dynamics", "classify", "stability.classify"),
    ("qdyn.verify", "enumerate_fixed_points", "fixed_points.enumerate"),
    ("qdyn.verify", "spectrum_at", "stability.spectrum"),
    ("qdyn.verify", "classify", "stability.classify"),
    ("qdyn.verify", "eigenvalue_two_residual", "stability.eig2"),
    ("qdyn.verify", "apply", "model.apply"),
    ("qdyn.stability", "jacobian", "model.jacobian"),
)
# Called once per fixed point inside enumeration: counted, not spanned, to
# keep the tracing cost of a 2^n enumeration small.
COUNT_ONLY = (("qdyn.fixed_points", "fixed_point_for_support", "fixed_points.for_support"),)

ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._open: list[list] = []  # [span index, start, child time] of each open span
        self.counts: Counter = Counter()
        self.current_job = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        return self.names[self.name_id[self._open[-1][0]]] if self._open else None

    def open(self, name_id: int) -> None:
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.job.append(self.current_job)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._open.append([index, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        index, start, child = self._open.pop()
        duration = end - start
        self.start[index] = start
        self.end[index] = end
        self.self_time[index] = duration - child
        if self._open:
            self._open[-1][2] += duration

    def wrap(self, name: str, fn, after=None):
        name_id = self.intern(name)

        def traced_call(*args, **kwargs):
            self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    def count(self, name: str, fn):
        def counted_call(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = np.frombuffer(self.self_time)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=duration, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            self_time=np.frombuffer(self.self_time),
        )


# Counters read off return values, at the boundary where the work happens.
def _after_basin(tracer: Tracer, args, samples) -> None:
    tracer.counts["dynamics.basin.lines"] += len(samples)
    tracer.counts["dynamics.basin.flagged"] += sum(1 for s in samples if s.flagged)


def _after_fate(tracer: Tracer, args, report) -> None:
    c = tracer.counts
    c["dynamics.fate.steps_total"] += report.steps_used
    c["dynamics.fate.steps_max"] = max(c["dynamics.fate.steps_max"], report.steps_used)
    c["dynamics.fate.evidence." + report.evidence.value] += 1
    if tracer.parent_name() == "dynamics.basin":
        c["dynamics.basin.fate_calls"] += 1


def _after_iterate(tracer: Tracer, args, trajectory) -> None:
    tracer.counts["dynamics.iterate.states"] += len(trajectory)


def _after_enumerate(tracer: Tracer, args, points) -> None:
    tracer.counts["fixed_points.enumerate.points"] += len(points)
    if tracer.parent_name() == "dynamics.fate":
        tracer.counts["fixed_points.fate_points"] += len(points)
        tracer.counts["fixed_points.fate_useful"] += sum(1 for p in points if p.feasible and not p.is_origin)


def _after_sweep(tracer: Tracer, args, summary) -> None:
    tracer.counts["verify.trials"] += summary.trials


AFTER = {
    "dynamics.basin": _after_basin,
    "dynamics.fate": _after_fate,
    "dynamics.iterate": _after_iterate,
    "fixed_points.enumerate": _after_enumerate,
    "verify.sweep": _after_sweep,
}


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for patches, make in ((PATCHES, lambda name, fn: tracer.wrap(name, fn, AFTER.get(name))),
                              (COUNT_ONLY, tracer.count)):
            for module_name, attr, span_name in patches:
                module = importlib.import_module(module_name)
                # A later refactor may drop or rename a name; trace what exists.
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def installed() -> list[str]:
    """Patched names currently in place, for checking that none leak."""
    found = []
    for module_name, attr, _ in PATCHES + COUNT_ONLY:
        module = importlib.import_module(module_name)
        if hasattr(getattr(module, attr, None), "__wrapped__"):
            found.append(f"{module_name}.{attr}")
    return found


def layer_metrics(tracer: Tracer, bytes_out: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer table: metric name -> (value, unit)."""
    t = tracer.table()
    c = tracer.counts

    def calls(span):
        return float(t.get(span, {}).get("calls", 0))

    def secs(span, key="s"):
        return float(t.get(span, {}).get(key, 0.0))

    def ratio(num, den):
        return float(num) / den if den else 0.0

    lines = c["dynamics.basin.lines"]
    m = {
        "cli.main.calls": (calls(ROOT), "count"),
        "cli.self_s": (secs(ROOT, "self_s"), "s"),
        "cli.bytes_out": (float(bytes_out), "B"),
        "verify.sweep.s": (secs("verify.sweep"), "s"),
        "verify.self_s": (secs("verify.sweep", "self_s"), "s"),
        "verify.trials": (float(c["verify.trials"]), "count"),
        "dynamics.basin.calls": (calls("dynamics.basin"), "count"),
        "dynamics.basin.self_s": (secs("dynamics.basin", "self_s"), "s"),
        "dynamics.basin.lines": (float(lines), "count"),
        "dynamics.basin.fates_per_line": (ratio(c["dynamics.basin.fate_calls"], lines), "ratio"),
        "dynamics.basin.flagged_ratio": (ratio(c["dynamics.basin.flagged"], lines), "ratio"),
        "dynamics.fate.calls": (calls("dynamics.fate"), "count"),
        "dynamics.fate.self_s": (secs("dynamics.fate", "self_s"), "s"),
        "dynamics.fate.steps_total": (float(c["dynamics.fate.steps_total"]), "count"),
        "dynamics.fate.steps_max": (float(c["dynamics.fate.steps_max"]), "count"),
    }
    for evidence in ("region_containment", "norm_threshold", "fixed_point_proximity", "iteration_cap"):
        m["dynamics.fate.evidence." + evidence] = (float(c["dynamics.fate.evidence." + evidence]), "count")
    m.update({
        "dynamics.iterate.calls": (calls("dynamics.iterate"), "count"),
        "dynamics.iterate.s": (secs("dynamics.iterate"), "s"),
        "dynamics.iterate.states": (float(c["dynamics.iterate.states"]), "count"),
        "fixed_points.enumerate.calls": (calls("fixed_points.enumerate"), "count"),
        "fixed_points.enumerate.s": (secs("fixed_points.enumerate"), "s"),
        "fixed_points.enumerate.points": (float(c["fixed_points.enumerate.points"]), "count"),
        "fixed_points.useful_ratio": (ratio(c["fixed_points.fate_useful"], c["fixed_points.fate_points"]), "ratio"),
        "fixed_points.for_support.calls": (calls("fixed_points.for_support") + c["fixed_points.for_support.calls"],
                                           "count"),
        "stability.spectrum.calls": (calls("stability.spectrum"), "count"),
        "stability.spectrum.s": (secs("stability.spectrum"), "s"),
        "stability.classify.calls": (calls("stability.classify"), "count"),
        "stability.classify.s": (secs("stability.classify"), "s"),
        "stability.eig2.calls": (calls("stability.eig2"), "count"),
        "stability.eig2.s": (secs("stability.eig2"), "s"),
        "model.jacobian.calls": (calls("model.jacobian"), "count"),
        "model.jacobian.s": (secs("model.jacobian"), "s"),
        "model.apply.calls": (calls("model.apply"), "count"),
        "model.apply.s": (secs("model.apply"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return m
