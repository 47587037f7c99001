"""In-memory span tracer for the benchmark's traced run.

Each wrapped public function records one span per call: name, start, end,
parent span and the item being run.  Self time is a span's duration minus
the durations of the wrapped calls made inside it, accumulated online on a
stack, so no span has to be revisited.  Observers attached to a few
functions turn arguments and results into work counts (sites, nodes,
draws, sweeps) measured where the work happens.

`cheat_model.triple` is called millions of times per pass and calls no
other wrapped function.  It gets a lean wrapper that only counts calls and
time, and charges its time to the enclosing span; storing a span per call
would cost more memory than the rest of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced run.
TARGETS = (
    ("walk", "optimize"),
    ("walk", "evaluate_policy"),
    ("walk", "improve_policy"),
    ("cheat_model", "triple"),
    ("game_tree", "annotate"),
    ("composer", "leading_order"),
    ("composer", "exact_outcome"),
    ("composer", "brute_force_min_pc"),
    ("rng", "np_stream_seeds"),
    ("rng", "np_draw_double"),
    ("simulate", "simulate_walk"),
    ("simulate", "simulate_tree"),
    ("cli", "main"),
)

HOT = {"cheat_model.triple"}

SPAN_FIELDS = ("name", "start", "end", "parent", "item")


def _observe_evaluate(tracer, parent, args, result):
    tracer.counters["walk.evaluate_policy.sites"] += 2 * args[0].n - 1
    if parent is not None and tracer.names[parent[1]] == "walk.optimize":
        tracer.counters["walk.sweeps"] += 1
        # W(0) = 1/2 + bias; a sweep is useful when it raised W(0)
        if parent[3] is not None and result.bias > parent[3]:
            tracer.counters["walk.useful_sweeps"] += 1
        parent[3] = result.bias


def _observe_improve(tracer, parent, args, result):
    tracer.counters["walk.improve_policy.sites"] += 2 * args[0].n - 1


def _observe_annotate(tracer, parent, args, result):
    tracer.counters["game_tree.annotate.nodes"] += len(result.nodes)


def _observe_draw(tracer, parent, args, result):
    tracer.counters["rng.draws"] += result.size
    if parent is not None and tracer.names[parent[1]].startswith("simulate."):
        tracer.counters["simulate.trial_steps"] += result.size


def _observe_simulate_walk(tracer, parent, args, result):
    tracer.counters["simulate.walk_trials"] += result.trials
    tracer.counters["simulate.overruns"] += result.overruns


OBSERVERS = {
    "walk.evaluate_policy": _observe_evaluate,
    "walk.improve_policy": _observe_improve,
    "game_tree.annotate": _observe_annotate,
    "rng.np_draw_double": _observe_draw,
    "simulate.simulate_walk": _observe_simulate_walk,
}


class Tracer:
    """Wraps TARGETS in every coincomp module that binds them."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.incl_s = [0.0] * len(TARGETS)
        self.counters = defaultdict(float)
        self.spans = []
        self.keep_spans = True
        self.item = -1
        self._stack = []  # frames: [span id, name index, child seconds, state]
        self._patches = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "coincomp" or name.startswith("coincomp.")]
        for idx, (mod_name, fn_name) in enumerate(TARGETS):
            orig = getattr(sys.modules[f"coincomp.{mod_name}"], fn_name)
            name = self.names[idx]
            wrapper = (self._wrap_hot(idx, orig) if name in HOT
                       else self._wrap(idx, orig, OBSERVERS.get(name)))
            # patch every binding, including `from x import f` copies
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, idx, fn, observe):
        stack, spans = self._stack, self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = -1
            if self.keep_spans:
                span_id = len(spans)
                spans.append(None)
            frame = [span_id, idx, 0.0, None]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.calls[idx] += 1
                self.incl_s[idx] += dur
                self.self_s[idx] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if span_id >= 0:
                    spans[span_id] = (idx, t0, t1,
                                      parent[0] if parent is not None else -1,
                                      self.item)
            if observe is not None:
                observe(self, parent, args, result)
            return result

        return wrapper

    def _wrap_hot(self, idx, fn):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                self.calls[idx] += 1
                self.incl_s[idx] += dur
                self.self_s[idx] += dur
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def stat(self, name: str):
        idx = self.names.index(name)
        return self.calls[idx], self.self_s[idx], self.incl_s[idx]

    def write_spans(self, path, t_origin: float) -> None:
        """Spans as JSON lines: a header naming the fields, then one array each."""
        lines = [json.dumps({"fields": SPAN_FIELDS, "names": self.names,
                             "time_origin": "start of the traced phase"})]
        for span in self.spans:
            if span is not None:
                idx, t0, t1, parent, item = span
                lines.append(json.dumps([self.names[idx], t0 - t_origin,
                                         t1 - t_origin, parent, item]))
        path.write_text("\n".join(lines) + "\n")
