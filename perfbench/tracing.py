"""Spans and counters recorded around calls into wirebox's public functions.

``Tracer.install`` replaces each listed function at every ``wirebox.*``
module attribute that binds it (from-imports bind names per module), so
calls made inside the library pass through the wrapper too.  A wrapper
records a span (name, start, end, parent, op) and, for some functions,
counts taken from the arguments or the result.  Spans of the hottest
functions (called once per composite state or per trace word) are summed
in place instead of kept one by one, which bounds memory.

A span's self time is its duration minus the time its child spans cover.
Per-layer metrics are sums of self times, so they add up to the traced
op time without double counting.

Tracing is a benchmark concern: nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter

# module -> public functions wrapped; names missing from a module are skipped
TARGETS = {
    "wirebox.cli": ("dispatch",),
    "wirebox.fileformat": ("load", "loads", "load_kb_dir", "dump_system",
                           "dump_machine"),
    "wirebox.wiring": ("evaluate", "compose", "tensor", "normalize"),
    "wirebox.moore": ("apply_algebra", "run"),
    "wirebox.probes": ("run_test", "yoneda_filter", "compare_outcomes"),
    "wirebox.oracle": ("find_distinguishing_word", "bisimilar"),
    "wirebox.attacks": ("apply_script", "apply_rewrite", "apply_rewire",
                        "fingerprint_wiring", "fingerprint_components",
                        "attack_diff"),
    "wirebox.fincat": ("yoneda_check", "enumerate_nat"),
    "wirebox.dot": ("wiring_dot",),
}
METHODS = {"wirebox.attacks": (("CompositeSystem", "composite"),)}
# the YAML parser fileformat calls, traced as fileformat's parse phase
YAML_FUNCTIONS = ("safe_load", "load")

# spans summed in place, not stored one by one
HOT = frozenset({"wiring.evaluate", "moore.run", "probes.compare_outcomes"})

# per-layer metric -> span names whose self times it sums
TIME_METRICS = {
    "cli.dispatch_ms": ("cli.dispatch",),
    "fileformat.yaml_parse_ms": ("fileformat.yaml_parse",),
    "fileformat.resolve_ms": ("fileformat.load", "fileformat.loads",
                              "fileformat.load_kb_dir"),
    "fileformat.dump_ms": ("fileformat.dump_system", "fileformat.dump_machine"),
    "wiring.evaluate_ms": ("wiring.evaluate",),
    "wiring.compose_ms": ("wiring.compose",),
    "wiring.tensor_ms": ("wiring.tensor",),
    "wiring.normalize_ms": ("wiring.normalize",),
    "moore.apply_algebra_ms": ("moore.apply_algebra",),
    "moore.run_ms": ("moore.run",),
    "probes.run_test_ms.traces": ("probes.run_test.traces",),
    "probes.run_test_ms.states": ("probes.run_test.states",),
    "probes.run_test_ms.image": ("probes.run_test.image",),
    "probes.filter_ms": ("probes.yoneda_filter",),
    "oracle.distinguish_ms": ("oracle.find_distinguishing_word",),
    "oracle.bisim_ms": ("oracle.bisimilar",),
    "attacks.apply_script_ms": ("attacks.apply_script", "attacks.apply_rewrite",
                                "attacks.apply_rewire"),
    "attacks.fingerprint_ms": ("attacks.fingerprint_wiring",
                               "attacks.fingerprint_components"),
    "attacks.composite_ms": ("attacks.CompositeSystem.composite",),
    "attacks.diff_ms": ("attacks.attack_diff",),
    "fincat.yoneda_check_ms": ("fincat.yoneda_check",),
    "fincat.enumerate_nat_ms": ("fincat.enumerate_nat",),
    "dot.wiring_dot_ms": ("dot.wiring_dot",),
}
CALL_METRICS = {
    "fileformat.loads": "fileformat.loads",
    "wiring.evaluate_calls": "wiring.evaluate",
    "oracle.distinguish_calls": "oracle.find_distinguishing_word",
}
COUNT_METRICS = ("fileformat.bytes_loaded", "moore.composite_states",
                 "moore.composite_transitions", "moore.run_steps",
                 "probes.words_run", "probes.comparisons", "attacks.steps",
                 "fincat.transformations")
# ratio metric -> (numerator count, denominator count)
RATIO_METRICS = {
    "moore.reachable_ratio": ("moore.reachable_states", "moore.composite_states"),
    "probes.eliminating_ratio": ("probes.eliminating", "probes.comparisons"),
    "probes.repeat_outcome_ratio": ("probes.repeat_outcomes",
                                    "probes.outcome_requests"),
}


def reachable_states(m) -> int:
    """States reachable from init, by the benchmark's own search."""
    inputs = m.inputs()
    seen = {m.init}
    frontier = [m.init]
    while frontier:
        s = frontier.pop()
        for x in inputs:
            t = m.update[(s, x)]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return len(seen)


def _run_test_span(args, kwargs) -> str:
    # one span name per test kind: probes.run_test.traces and so on
    kind = type(_arg(args, kwargs, 0, "test").kind).__name__
    suffix = {"TraceSet": "traces", "StateSet": "states",
              "OutputImage": "image"}.get(kind, "other")
    return f"probes.run_test.{suffix}"


class Tracer:
    """Spans and counters for one process; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[tuple] = []     # (id, name, start, end, parent, op)
        self.self_s: Counter = Counter()  # span name -> self seconds
        self.total_s: Counter = Counter()  # span name -> inclusive seconds
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # [id, name, start, child seconds]
        self._next_id = 0
        self._machine_keys: dict = {}
        self._outcomes_seen: set = set()
        self._installed: list = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """A wrapper recording a span per call; ``name`` may be a callable
        of the arguments.  ``after(args, kwargs, result, parent)`` takes
        counts once the span has closed."""
        tracer = self
        clock = time.perf_counter
        if name in HOT:
            return self._wrap_leaf(name, fn, after)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, span_name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                tracer.self_s[span_name] += dur - frame[3]
                tracer.total_s[span_name] += dur
                tracer.calls[span_name] += 1
                if parent is not None:
                    parent[3] += dur
                tracer.spans.append((sid, span_name, frame[2], end,
                                     parent[0] if parent else None, tracer.op))
            if after is not None:
                tracer._count(after, args, kwargs, result, parent)
            return result

        return _like(wrapper, fn)

    def _wrap_leaf(self, name, fn, after):
        # hot functions call no traced function: no stack frame, no span
        # record, only sums; keeps the tracing overhead down
        tracer = self
        clock = time.perf_counter
        stack, self_s, total_s, calls = (self._stack, self.self_s,
                                         self.total_s, self.calls)

        def leaf(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur
                total_s[name] += dur
                calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
            if after is not None:
                tracer._count(after, args, kwargs, result, parent)
            return result

        return _like(leaf, fn)

    def _count(self, after, args, kwargs, result, parent):
        # counting is tracer work: charge it to no layer
        t0 = time.perf_counter()
        after(args, kwargs, result, parent)
        spent = time.perf_counter() - t0
        self.self_s["trace.counting"] += spent
        if parent is not None:
            parent[3] += spent

    def install(self):
        """Wrap every target at every ``wirebox.*`` attribute binding it."""
        import yaml

        import wirebox  # noqa: F401  (loads the package's modules)

        replace = {}
        for modname, names in TARGETS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            layer = modname.split(".")[1]
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None or fn in replace:
                    continue
                replace[fn] = self.wrap(*self._spec(layer, fname, fn))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wirebox" or n.startswith("wirebox."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapped = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapped is not None:
                    setattr(module, attr, wrapped)
                    self._installed.append((module, attr, value))
        for modname, pairs in METHODS.items():
            module = sys.modules.get(modname)
            for cls_name, meth in pairs:
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    continue
                layer = modname.split(".")[1]
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))
                self._installed.append((cls, meth, fn))
        for fname in YAML_FUNCTIONS:
            fn = getattr(yaml, fname, None)
            if fn is not None:
                setattr(yaml, fname, self.wrap("fileformat.yaml_parse", fn))
                self._installed.append((yaml, fname, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _spec(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        after = {
            "moore.apply_algebra": self._after_apply_algebra,
            "moore.run": self._after_run,
            "probes.compare_outcomes": self._after_compare,
            "attacks.apply_rewrite": self._after_step,
            "attacks.apply_rewire": self._after_step,
            "fincat.enumerate_nat": self._after_enumerate_nat,
            "fileformat.loads": self._after_loads,
        }.get(name)
        if name == "probes.run_test":
            return _run_test_span, fn, self._after_run_test
        return name, fn, after

    # -- counters ---------------------------------------------------------

    def _after_apply_algebra(self, args, kwargs, m, parent):
        self.counts["moore.composite_states"] += len(m.states)
        self.counts["moore.composite_transitions"] += len(m.update)
        self.counts["moore.reachable_states"] += reachable_states(m)

    def _after_run(self, args, kwargs, outs, parent):
        self.counts["moore.run_steps"] += len(outs)

    def _after_compare(self, args, kwargs, agree, parent):
        # only the learner's comparisons eliminate candidates
        if parent is not None and parent[1] == "probes.yoneda_filter":
            self.counts["probes.comparisons"] += 1
            if not agree:
                self.counts["probes.eliminating"] += 1

    def _after_step(self, args, kwargs, result, parent):
        self.counts["attacks.steps"] += 1

    def _after_enumerate_nat(self, args, kwargs, nats, parent):
        self.counts["fincat.transformations"] += len(nats)

    def _after_loads(self, args, kwargs, doc, parent):
        self.counts["fileformat.bytes_loaded"] += len(
            _arg(args, kwargs, 0, "text").encode("utf-8"))

    def _after_run_test(self, args, kwargs, outcome, parent):
        test = _arg(args, kwargs, 0, "test")
        m = _arg(args, kwargs, 1, "m")
        if type(test.kind).__name__ == "TraceSet":
            self.counts["probes.words_run"] += len(m.inputs()) ** test.kind.depth
        key = (self._machine_key(m), test)
        self.counts["probes.outcome_requests"] += 1
        if key in self._outcomes_seen:
            self.counts["probes.repeat_outcomes"] += 1
        else:
            self._outcomes_seen.add(key)

    def _machine_key(self, m):
        # structural identity: equal machines repeat an outcome request
        hit = self._machine_keys.get(id(m))
        if hit is not None and hit[0]() is m:
            return hit[1]
        key = hash((m.box, m.init, m.states, frozenset(m.update.items()),
                    frozenset(m.readout.items())))
        self._machine_keys[id(m)] = (weakref.ref(m), key)
        return key

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates, in the form ``merge`` accepts."""
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def to_json(self) -> dict:
        return {"summary": self.summary(), "spans": self.spans}

    def merge(self, summary: dict, spans=(), op=None):
        """Fold in another process's aggregates and spans."""
        for field in ("self_s", "total_s", "calls", "counts"):
            getattr(self, field).update(summary[field])
        base = self._next_id
        top = base
        for sid, name, start, end, parent, _ in spans:
            self.spans.append((base + sid, name, start, end,
                               None if parent is None else base + parent, op))
            top = max(top, base + sid + 1)
        self._next_id = top

    def layer_metrics(self, ops: int) -> dict:
        """Per-op self times, calls and counts, plus ratios, as
        ``{name: (value, unit)}``."""
        ops = max(ops, 1)
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = (1000 * sum(self.self_s[n] for n in names) / ops,
                           "ms")
        for metric, name in CALL_METRICS.items():
            out[metric] = (self.calls[name] / ops, "count")
        for metric in COUNT_METRICS:
            unit = "bytes" if metric.endswith("bytes_loaded") else "count"
            out[metric] = (self.counts[metric] / ops, unit)
        for metric, (num, den) in RATIO_METRICS.items():
            d = self.counts[den]
            out[metric] = (self.counts[num] / d if d else 0.0, "ratio")
        return out

    def write(self, path: str):
        """Write the spans (one JSON array per line) and the aggregates."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["id", "name", "start", "end",
                                           "parent", "op"],
                                "summary": self.summary()}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _like(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]
