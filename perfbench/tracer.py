"""Per-layer tracing of padicdisc from outside the program.

The tracer replaces each traced function with a wrapper wherever the package
binds it: in the defining module, in every module that imported it by name,
and in class dictionaries (``__rmul__ = __mul__`` is the same function).  A
name that still binds an original after installation is an unwrapped alias
and raises, because its calls would silently go uncounted.

Span targets record calls, self time (span duration minus the time of child
spans) and inclusive time (outermost activations only, so recursion is not
counted twice).  Count targets, the digit helpers called tens of millions of
times, only count.  Spans at and above the series layer are kept in memory
as (key, start, duration, parent) records and written out at the end;
scalar-level spans are only aggregated, because there are millions of them.
"""

from __future__ import annotations

import json
import sys
import time

SPAN, COUNT = "span", "count"

STAGES = ("field", "phi", "center", "fiber", "tree", "solutions", "vandermonde",
          "relation", "module", "direct_image", "upstairs_bases", "fundamental",
          "is_trivial_module", "optimal")

# (module, attribute, metric key, kind, fields reported)
TARGETS = [
    ("padic", "_bmul", "padic.bmul", COUNT, ("calls",)),
    ("padic", "_badd", "padic.badd", COUNT, ("calls",)),
    ("padic", "_bnorm", "padic.bnorm", COUNT, ("calls",)),
    ("padic", "PadicScalar.__mul__", "padic.scalar_mul", SPAN, ("calls", "self_s")),
    ("padic", "PadicScalar.__add__", "padic.scalar_add", SPAN, ("calls", "self_s")),
    ("padic", "PadicScalar.__truediv__", "padic.scalar_div", SPAN, ("calls", "self_s")),
    ("padic", "hensel_lift", "padic.hensel_lift", SPAN, ("calls", "self_s")),
] + [
    ("series", attr, "series." + key, SPAN, ("calls", "self_s"))
    for attr, key in (("TruncatedSeries.__mul__", "mul"), ("mult_inverse", "mult_inverse"),
                      ("reversion", "reversion"), ("compose", "compose"),
                      ("taylor_shift", "taylor_shift"), ("radius_estimate", "radius_estimate"))
] + [
    ("morphism", name, "morphism." + name, SPAN, ("calls", "self_s"))
    for name in ("fiber", "tree_over_point", "image_radius", "local_solution",
                 "monic_relation")
] + [
    ("diffmod", name, "diffmod." + name, SPAN, ("calls", "self_s", "incl_s"))
    for name in ("direct_image", "mat_inverse", "reduce_to_basis",
                 "local_solution_matrix", "horizontal_check")
] + [
    ("optimal", name, "optimal." + name, SPAN, ("calls", "self_s", "incl_s"))
    for name in ("vandermonde", "fundamental_solution_matrix", "optimal_basis",
                 "trivial_optimal_basis", "optimality_check")
] + [
    ("cli", "_Pipeline._" + stage, "cli.stage." + stage, SPAN, ("incl_s",))
    for stage in STAGES
] + [
    ("cli", "_run_checks", "cli.checks", SPAN, ("incl_s",)),
    ("cli", "run", "cli.run", SPAN, ("incl_s",)),
    ("cli", "serialize_report", "jsonio.serialize", SPAN, ("incl_s",)),
    ("jsonio", "series_to_json", "jsonio.series_to_json", COUNT, ("calls",)),
]

# Spans of these layers are aggregated but not stored one by one.
UNSTORED = ("padic.",)

UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}

DERIVED = [("morphism.local_solution.per_point", "ratio"), ("trace_overhead", "ratio")]


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("%s.%s" % (key, field), UNITS[field])
           for _, _, key, _, fields in TARGETS for field in fields]
    return out + DERIVED


class Tracer:
    """Installs wrappers into a padicdisc package and aggregates what they see."""

    def __init__(self):
        self.stats = {}          # key -> [calls, self_s, incl_s, depth]
        self.spans = []          # (key, start, duration, parent span index)
        self.fiber_points = 0
        self.missing = []
        self._stack = []         # [span index, child time] of open spans
        self._undo = []

    # -- wrappers ----------------------------------------------------------------

    def _count(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])

        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack, spans = self._stack, self.spans
        store = not key.startswith(UNSTORED)
        counts_points = key == "morphism.fiber"
        clock = time.perf_counter
        tracer = self

        def spanned(*args, **kwargs):
            index = -1
            if store:
                index = len(spans)
                spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame[1]
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += duration
                if stack:
                    stack[-1][1] += duration
                if store:
                    parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
                    spans[index] = (key, start, duration, parent)
            if counts_points:
                tracer.fiber_points += len(result.points)
            return result

        return spanned

    # -- installation --------------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [sys.modules[name] for name in sorted(sys.modules)
                               if name.startswith(package.__name__ + ".")]
        owners = {id(module): module for module in modules}
        for module in modules:
            owners.update((id(value), value) for value in vars(module).values()
                          if isinstance(value, type)
                          and value.__module__.startswith(package.__name__))
        owners = list(owners.values())
        originals = []
        for modname, path, key, kind, _ in TARGETS:
            owner = sys.modules.get("%s.%s" % (package.__name__, modname))
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = (self._span if kind == SPAN else self._count)(key, original)
            originals.append((key, original))
            self._rebind(owners, original, wrapper)
        for key, original in originals:
            for owner in owners:
                for name, value in vars(owner).items():
                    if value is original:
                        self.uninstall()
                        raise RuntimeError("unwrapped alias %s.%s of %s"
                                           % (getattr(owner, "__name__", owner), name, key))

    def _rebind(self, owners, original, wrapper):
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
                    self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values, trace_overhead excepted (the caller measures it)."""
        out = {}
        for _, _, key, _, fields in TARGETS:
            calls, self_s, incl_s, _ = self.stats.get(key, (0, 0.0, 0.0, 0))
            values = {"calls": calls, "self_s": self_s, "incl_s": incl_s}
            for field in fields:
                out["%s.%s" % (key, field)] = values[field]
        local = self.stats.get("morphism.local_solution", (0,))[0]
        out["morphism.local_solution.per_point"] = \
            local / self.fiber_points if self.fiber_points else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["key", "start_s", "duration_s", "parent"],
                       "spans": self.spans}, handle, separators=(",", ":"))
