"""Layer spans recorded from outside the library.

Tracer.install() replaces every public function of the deconv modules with
a wrapper that records one span per call: name, start, end, parent span,
operation id, plus the work size computed from the call's arguments.  The
same function object is replaced in every deconv module that imported it,
so `from .grid_signal import fourier_at` call sites are traced too.
Spans live in memory until the benchmark writes them out at the end.

Self time is a span's duration minus the time covered by its child spans;
calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

from spec import MODULES, TRANSFORMS, per_layer_metrics

# Per-value formatter: its cost belongs to the writer that calls it, and a
# span per CSV field would cost more than the field.
UNTRACED = {"fileio.format_float"}

WAIT_NOTE = ("wait time: not reported; no layer queues work, every call "
             "runs to completion on the caller's thread")


# Work sizes "computed" from argument sizes: output points x input samples
# for the sums, characters for writes.  Each returns (work, points).
def _fourier_at(a):
    pts = np.size(a["lambdas"])
    return pts * a["signal"].size, pts


def _fourier_grid(a):
    pts = 2 * int(a["half_count"]) + 1
    return pts * a["signal"].size, pts


def _inverse_fourier(a):
    pts = int(a["count"])
    return pts * a["transform"].size, pts


def _laplace_parts(a):
    pts = np.size(a["zs"])
    return pts * a["signal"].size, pts


def _young_dual(a):
    pts = np.size(a["dual_grid"])
    return pts * a["profile"].finite_count, pts


def _atomic_write_text(a):
    return len(a["text"]), 1


SIZERS = {
    "grid_signal.fourier_at": _fourier_at,
    "grid_signal.fourier_grid": _fourier_grid,
    "grid_signal.inverse_fourier": _inverse_fourier,
    "grid_signal.laplace_parts": _laplace_parts,
    "tail_profile.young_dual": _young_dual,
    "fileio.atomic_write_text": _atomic_write_text,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    self_s: float = 0.0
    work: int = 0
    points: int = 0
    error: bool = False
    found: int = 0      # intervals found by measure_small_set

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the library's public functions and records spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.warnings = {}          # module -> count
        self._stack = []            # [span index, child time]
        self._patches = []          # (module, attribute, original)
        self._errors_seen = []      # exceptions already counted

    def install(self) -> None:
        modules = [importlib.import_module(f"deconv.{m}") for m in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{short}.{attr}" in UNTRACED):
                    continue
                originals[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, originals[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        sizer = SIZERS.get(name)
        signature = inspect.signature(fn) if sizer else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1][0] if stack else -1,
                        op=self.op)
            if sizer is not None:
                bound = signature.bind(*args, **kwargs)
                span.work, span.points = sizer(bound.arguments)
            index = len(spans)
            spans.append(span)
            frame = [index, 0.0]
            stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = not any(e is exc for e in self._errors_seen)
                self._errors_seen.append(exc)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.self_s = span.duration - frame[1]
                if stack:
                    stack[-1][1] += span.duration
            if name == "small_sets.measure_small_set":
                span.found = result.interval_count
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._errors_seen.clear()

    def record_warning(self) -> None:
        """Attribute one warning to the innermost active span's module."""
        module = (self.spans[self._stack[-1][0]].module if self._stack
                  else "unattributed")
        self.warnings[module] = self.warnings.get(module, 0) + 1

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def layer_metrics(self, ops: set, passes: int, wall_s: float,
                      overhead_s: float) -> dict:
        """Per-layer metrics per pass over the spans of the given ops."""
        spans = [s for s in self.spans if s.op in ops]
        calls, busy, self_s, work = {}, {}, {}, {}
        errors = {m: 0 for m in MODULES}
        for s in spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            busy[s.name] = busy.get(s.name, 0.0) + s.duration
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
            work[s.name] = work.get(s.name, 0) + s.work
            errors[s.module] = errors.get(s.module, 0) + int(s.error)

        def ratio(num, den):
            return num / den if den else 0.0

        def count(pred):
            return sum(1 for s in spans if pred(s))

        values = {}
        for name, _unit in per_layer_metrics():
            head, _, quantity = name.rpartition(".")
            if quantity == "calls":
                v = calls.get(head, 0)
            elif quantity == "busy_s":
                v = busy.get(head, 0.0)
            elif quantity == "self_s":
                v = self_s.get(head, 0.0)
            elif quantity in ("pairs", "bytes"):
                v = work.get(head, 0)
            elif quantity == "pairs_per_s":
                v = ratio(work.get(head, 0), busy.get(head, 0.0))
            elif quantity == "errors":
                v = errors.get(head, 0)
            elif quantity == "warnings":
                v = self.warnings.get(head, 0)
            else:
                continue
            values[name] = v

        msm = "small_sets.measure_small_set"
        fat = "grid_signal.fourier_at"
        probes = [s for s in spans if s.name == fat and s.parent >= 0
                  and self.spans[s.parent].name == msm]
        values["small_sets.scan_points"] = sum(s.points for s in probes
                                               if s.points > 1)
        values["small_sets.probe_points"] = sum(1 for s in probes
                                                if s.points == 1)
        values["small_sets.intervals"] = sum(s.found for s in spans
                                             if s.name == msm)

        cz = "entire_diagnostics.count_zeros"
        attempts = count(lambda s: s.name == "grid_signal.laplace_parts"
                         and s.parent >= 0
                         and self.spans[s.parent].name == cz)
        counted = count(lambda s: s.name == cz and not s.error)
        values["entire_diagnostics.winding_attempts"] = attempts
        values["entire_diagnostics.counts_per_attempt"] = ratio(counted,
                                                                attempts)

        rs = "regularization.run_single"
        rows = calls.get(rs, 0)
        values["regularization.radius_solves_per_run"] = ratio(
            count(lambda s: s.name == "regularization.solve_frequency_radius"
                  and self._has_ancestor(s, rs)), rows)
        values["regularization.transform_pairs_per_row"] = ratio(
            sum(s.work for s in spans
                if s.name in (fat, "grid_signal.inverse_fourier")
                and self._has_ancestor(s, rs)), rows)

        transform_self = sum(self_s.get(f"grid_signal.{fn}", 0.0)
                             for fn in TRANSFORMS)
        values["grid_signal.transform_self_share"] = ratio(
            transform_self / passes, wall_s)

        per_pass = {k: v / passes for k, v in values.items()
                    if not k.endswith(("pairs_per_s", "_per_attempt",
                                       "_per_run", "_per_row", "_share"))}
        values.update(per_pass)
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = overhead_s
        return values

    def span_records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "self_s": s.self_s,
                 "work": s.work, "error": s.error} for s in self.spans]
