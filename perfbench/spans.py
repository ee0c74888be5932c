"""Span recorder for the traced run, installed from outside the package.

Each public entry point of a querylab layer is wrapped at every module that
imported it, so a call reaches the wrapper whichever module makes it.  A
call records one span: name, start, end, parent span and item id.  Spans
stay in memory; `write` dumps them when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

import json
import statistics
import time
from collections import Counter

# (module, attribute, span name): every site that imported an entry point.
SITES = (
    ("harness", "solve_expected_game", "games.solve_expected_game"),
    ("harness", "solve_worstcase_depth", "games.solve_worstcase_depth"),
    ("harness", "det_complexity", "det.det_complexity"),
    ("harness", "certificate_complexity", "det.certificate_complexity"),
    ("harness", "block_sensitivity", "det.block_sensitivity"),
    ("harness", "fractional_block_sensitivity", "det.fractional_block_sensitivity"),
    ("harness", "sabotage", "constructions.sabotage"),
    ("harness", "unique_sabotage", "constructions.unique_sabotage"),
    ("harness", "parse_function", "core.parse_function"),
    ("games", "solve_lp", "lp.solve_lp"),
    ("games", "walk", "trees.walk"),
    ("games", "best_response", "games.best_response"),
    ("det", "solve_lp", "lp.solve_lp"),
    ("registry", "best_response", "games.best_response"),
    ("registry", "compose", "constructions.compose"),
    ("constructions", "sabotage", "constructions.sabotage"),
    ("cli", "parse_function", "core.parse_function"),
    ("cli", "main", "cli.main"),
    ("core", "parse_function", "core.parse_function"),
)

# (module, class, method, span name)
METHODS = (
    ("lp", "LPSolution", "verify", "lp.verify"),
    ("harness", "MeasureContext", "measure_entry", "harness.measure_entry"),
)

# Entry points whose spans count as a measure request reaching an engine.
ENGINES = (
    "games.solve_expected_game",
    "games.solve_worstcase_depth",
    "det.det_complexity",
    "det.certificate_complexity",
    "det.block_sensitivity",
    "det.fractional_block_sensitivity",
)


def _count_lp(counters, args, result):
    lp = args[0]
    counters["lp.rows_total"] += len(lp.rows)
    counters["lp.cols_total"] += lp.n_vars


def _count_game(counters, args, result):
    counters["games.colgen_iterations"] += result.iterations


_COUNTS = {"lp.solve_lp": _count_lp, "games.solve_expected_game": _count_game}


class Recorder:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.counters = Counter()
        self.item = None
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name in SITES:
            owner = self.modules[module]
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for module, cls, method, name in METHODS:
            owner = getattr(self.modules[module], cls)
            self._patch(owner, method, self.wrap(name, owner.__dict__[method]))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self):
        # In place: wrappers made earlier keep appending to these objects.
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def layer_stats(self):
        """calls and self seconds per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[k]
        engines = sum(calls[name] for name in ENGINES)
        entries = calls["harness.measure_entry"]
        stats = dict(self.counters)
        stats["harness.engine_calls_per_entry"] = engines / entries if entries else 0.0
        for name in calls:
            stats[f"{name}.calls"] = calls[name]
            stats[f"{name}.self_s"] = self_s[name]
        return stats

    def write(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def merge_rounds(rounds):
    """One stats dict from several traced rounds of identical work.

    Counts come from the first round and must repeat exactly in the others;
    times are medians.  Returns (stats, names of counts that differed).
    """
    merged, unstable = {}, []
    for key in rounds[0]:
        values = [r.get(key, 0) for r in rounds]
        if key.endswith("_s"):
            merged[key] = statistics.median(values)
        else:
            merged[key] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(key)
    return merged, unstable
