"""In-memory spans around the public functions of the wavebath modules.

A span is (name, start, end, parent, failed, tags). `Tracer.install`
wraps every public function defined in a loaded ``wavebath.*`` module
and rebinds the wrapper under every name that refers to the original in
any ``wavebath`` module namespace, because modules import each other's
functions by name (``coupling`` binds ``transfer_function`` and
``is_inner``, ``waveline`` binds ``close_loops``). `Tracer.uninstall`
restores the originals, so untraced passes run the library unchanged.
Spans stay in memory until `write` is called at the end of a run.
"""

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("ratfun", "realization", "coupling", "waveline", "lattice",
          "statmech", "cli")

# Methods that get a span too, under the name given here.
METHODS = {
    ("waveline", "BoundaryTrace", "to_csv"): "waveline.BoundaryTrace.to_csv",
    ("ratfun", "RationalFunction", "__truediv__"): "ratfun.quotient",
}


def _run_line_tags(config, *args, **kwargs):
    return {"far_end": config.far_end, "cells": config.n_cells,
            "steps": config.n_steps}


def _close_loops_tags(load, *args, **kwargs):
    return {"dim": load.dim}


def _momentum_autocorr_tags(cfg, n_runs, *args, **kwargs):
    return {"entries": (cfg.n_steps + 1) * cfg.n_sites * n_runs}


# Problem sizes recorded with a span, for the per-unit costs.
TAGGERS = {
    "waveline.run_line": _run_line_tags,
    "coupling.close_loops": _close_loops_tags,
    "lattice.momentum_autocorr": _momentum_autocorr_tags,
}


class Tracer:
    """Span recorder for one process; single-threaded."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, failed, tags]
        self._stack = []
        self._patches = []    # (owner, attribute, original)

    def open(self, name, tags=None):
        """Start a span; it is the innermost open span until closed."""
        self.spans.append([name, time.perf_counter(), None, self.current(),
                           False, tags or {}])
        self._stack.append(len(self.spans) - 1)

    def close(self, failed, **tags):
        """End the innermost open span, adding `tags` to it."""
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        span[4] = failed
        span[5].update(tags)

    @contextmanager
    def span(self, name, tags=None):
        """A span around a block; failed when the block raises."""
        self.open(name, tags)
        failed = True
        try:
            yield
            failed = False
        finally:
            self.close(failed)

    def _wrap(self, name, fn):
        # Same bookkeeping as `span`, without a generator per call: the
        # wrapper runs on every call of a hot library function.
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name, tagger(*args, **kwargs) if tagger else None)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.close(failed)

        return traced

    def install(self):
        """Wrap public functions of every loaded wavebath module."""
        modules = {name[len("wavebath."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("wavebath.") and mod is not None}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = f"{layer}.{attr}"
        wrappers = {obj: self._wrap(name, obj)
                    for obj, name in originals.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for (layer, cls_name, attr), name in METHODS.items():
            if layer in modules:
                cls = getattr(modules[layer], cls_name)
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def current(self):
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def adopt(self, path):
        """Append the spans another process wrote to `path`.

        Its top-level spans become children of the innermost open span.
        """
        with open(path) as fh:
            spans = json.load(fh)
        base, parent = len(self.spans), self.current()
        for s in spans:
            par = s["parent"]
            self.spans.append([s["name"], s["start"], s["end"],
                               parent if par < 0 else par + base,
                               s["failed"], s["tags"]])

    def write(self, path):
        keys = ("name", "start", "end", "parent", "failed", "tags")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def summarize(spans):
    """Per-name totals and per-layer self time from a list of spans.

    Busy time of a name counts only its outermost spans, so a function
    that reaches itself is not counted twice. A span's self time is its
    duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, failed, tags in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    by_layer = {layer: {"calls": 0, "self_s": 0.0, "failed": 0}
                for layer in LAYERS}
    for i, (name, start, end, parent, failed, tags) in enumerate(spans):
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "failed": 0,
                                          "spans": []})
        entry["calls"] += 1
        entry["failed"] += int(failed)
        entry["spans"].append(i)
        if not _has_ancestor(spans, parent, name):
            entry["s"] += end - start
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer]["calls"] += 1
            by_layer[layer]["failed"] += int(failed)
            by_layer[layer]["self_s"] += (end - start) - child_time[i]
    return by_name, by_layer


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
