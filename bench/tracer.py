"""In-memory span tracer that instruments a program from outside.

A traced name is replaced at every module attribute its callers look it up
through (``module.name`` at call time), so the program under test is not
edited.  Each call of a span-wrapped name records its name, start, end and
the span that caused it; per-name call counts, total and self time are
kept next to the spans.  Self time is a span's duration minus the time its
traced children cover.  Beyond ``SPAN_CAP`` calls of one name from one
calling module per pass only the aggregates grow.  ``leaf`` wrappers never
open a span: they are for names called millions of times per pass, which
would otherwise spend most of their time in the tracer.

The wrappers' own cost is kept out of the aggregates.  At start-up the
tracer times each wrapper around a no-op against the bare no-op; every
wrapped call then charges that cost, plus the time its hook took, as
overhead to the span it ran in, and each span's total and self time leave
out the overhead of the calls inside it.  The raw start and end of each
kept span still include it.

Spans are kept in a flat float array rather than as Python objects, so a
long traced run does not make the garbage collector rescan them.

Tracing switches itself off in forked children, so process-pool workers run
the original code and only parent-side calls are recorded.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter
from typing import Callable, Optional

Hook = Callable[[dict, Callable, tuple, dict, object], None]  # counts, fn, args, kwargs, result

PACKAGE = "nrfactory"
SPAN_CAP = 10_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.span_fields = ("pass", "id", "name", "parent", "start", "end")
        self.span_names: list[str] = []  # the name field indexes this list
        self._spans = array("d")
        self.absent: list[str] = []       # traced names the program no longer has
        self.pass_index = 0
        self.stats: dict[tuple[str, str], list] = {}  # (name, site) -> [calls, total_s, self_s]
        self.layers: dict[str, list] = {}             # layer -> [calls, s] entered from outside it
        self.counts: dict[str, float] = {}            # counters filled by hooks
        self._stack: list[list] = []                  # open spans: [id, layer, child_s, overhead_s]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        # per call: (seconds the wrapper adds, seconds of it inside the recorded duration)
        self.leaf_cost = self.span_cost = (0.0, 0.0)
        self.leaf_cost, self.span_cost = self._calibrate()
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False

    def _calibrate(self) -> tuple[tuple[float, float], ...]:
        """Time each wrapper around a no-op, inside an open span, against the bare no-op."""
        calls, repeats = 5_000, 15  # best of 15 short runs: about 0.1 s

        def noop(a, b):
            return None

        name = "calibrate.noop"
        self.span_names.append(name)
        frame = [0, "caller", 0.0, 0.0]  # another layer, as for real calls
        self._stack.append(frame)
        self.enabled = True

        def per_call(fn, stat: list) -> tuple[float, float]:
            best = (float("inf"), 0.0)
            for _ in range(repeats):
                frame[2] = stat[0] = 0  # a fresh pass each time: spans kept up to SPAN_CAP
                start = perf_counter()
                for _ in range(calls):
                    fn(1.0, 2.0)
                best = min(best, ((perf_counter() - start) / calls, frame[2] / calls))
            return best

        try:
            bare, _ = per_call(noop, [0])
            costs = []
            for make in (self._leaf, self._span):
                stat = [0, 0.0, 0.0]
                total, recorded = per_call(make(noop, name, stat), stat)
                costs.append((max(total - bare, 0.0), max(recorded - bare, 0.0)))
        finally:
            self.enabled = False
            self._stack.clear()
            self.span_names.clear()
            self._spans = array("d")
            self.layers.clear()
            self._next_id = 1
        return tuple(costs)

    def new_pass(self) -> None:
        """Start a new pass: aggregates restart, spans already kept stay."""
        self.pass_index += 1
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.layers.clear()
        self.counts.clear()

    def trace(self, module: str, attr: str, leaf: bool = False, hook: Optional[Hook] = None) -> bool:
        """Wrap ``nrfactory.<module>.<attr>`` wherever a package module holds it.

        The span name is ``<module>.<attr>``.  Leaf names take no hook.
        Returns False, and records the name as absent, when the module does
        not define the attribute.
        """
        home = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(home, attr, None) if home is not None else None
        name = f"{module}.{attr}"
        if original is None:
            self.absent.append(name)
            return False
        if name not in self.span_names:
            self.span_names.append(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            if mod.__dict__.get(attr) is original:
                site = mod_name.rsplit(".", 1)[-1]
                stat = self.stats.setdefault((name, site), [0, 0.0, 0.0])
                wrapper = self._leaf(original, name, stat) if leaf else self._span(original, name, stat, hook)
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))
        return True

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _account(self, layer: str, dur: float, overhead: float) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
            parent[3] += overhead
        if parent is None or parent[1] != layer:
            entry = self.layers.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += dur

    def _span(self, fn, name: str, stat: list, hook: Optional[Hook] = None):
        tracer = self
        stack = self._stack
        spans = self._spans
        layer = name.split(".", 1)[0]
        name_index = float(self.span_names.index(name))
        cost, recorded_cost = self.span_cost

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = stack[-1][0] if stack else 0
            frame = [span_id, layer, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start - frame[3] - recorded_cost
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[2]
                tracer._account(layer, dur, frame[3] + cost)
                if stat[0] <= SPAN_CAP:
                    spans.extend((tracer.pass_index, span_id, name_index, parent_id, start, end))
            if hook is not None:
                hook_start = perf_counter()
                hook(tracer.counts, fn, args, kwargs, result)
                if stack:
                    stack[-1][3] += perf_counter() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, name: str, stat: list):
        tracer = self
        stack = self._stack
        layer_totals = self.layers
        layer = name.split(".", 1)[0]
        cost, recorded_cost = self.leaf_cost

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start - recorded_cost
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur
                # _account inlined: this path runs millions of times per pass
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    parent[3] += cost
                    outer = parent[1] != layer
                else:
                    outer = True
                if outer:
                    entry = layer_totals.get(layer)
                    if entry is None:
                        entry = layer_totals[layer] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self) -> list[list]:
        """Every kept span as [pass, id, name, parent id, start, end]; parent 0 is none."""
        flat = self._spans.tolist()
        width = len(self.span_fields)
        rows = [flat[i:i + width] for i in range(0, len(flat), width)]
        for row in rows:
            row[0], row[1], row[3] = int(row[0]), int(row[1]), int(row[3])
            row[2] = self.span_names[int(row[2])]
        return rows

    def calls(self, name: str, site: Optional[str] = None) -> int:
        return sum(s[0] for (n, where), s in self.stats.items() if n == name and site in (None, where))

    def seconds(self, name: str, site: Optional[str] = None) -> float:
        return sum(s[1] for (n, where), s in self.stats.items() if n == name and site in (None, where))

    def self_seconds(self, name: str) -> float:
        return sum(s[2] for (n, _), s in self.stats.items() if n == name)

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.stats)


def argument(fn, args: tuple, kwargs: dict, name: str):
    """Value a call passed for parameter ``name`` (its default if omitted)."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


_signature = functools.lru_cache(maxsize=None)(inspect.signature)
