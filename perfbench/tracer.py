"""Spans and counts recorded around calls into the library's modules.

The tracer replaces a module attribute (``network.conv2d``,
``decoder.find_all_peaks``, ...) with a wrapper that calls the original
and records a span (name, start, end, parent span, item id, phase). The
program calls these functions through their module attributes, so its
outputs are unchanged. Hot leaf functions (``evalkit.oks``) get a
counting wrapper only. Spans stay in memory; ``to_json`` writes them out
when the run ends.
"""

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at the top
    item: int              # item id, -1 during set-up
    phase: str             # "setup" or "timed"
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}       # (phase, name) -> number
        self.phase = "setup"
        self.item = -1
        self._stack = []
        self._hooks = []       # (module, attr, wrapper)
        self._saved = []

    def add(self, name, value):
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, module, attr, name, on_return=None):
        """Record a span around ``module.attr``; ``on_return(tracer, span,
        args, kwargs, result)`` may add counts or span extras."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            sp = Span(name, 0.0, 0.0, parent, self.item, self.phase)
            self.spans.append(sp)
            self._stack.append(index)
            sp.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, sp, args, kwargs, result)
            return result

        self._hooks.append((module, attr, wrapper))

    def counter(self, module, attr, name):
        """Count calls to ``module.attr`` without recording spans."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return original(*args, **kwargs)

        self._hooks.append((module, attr, wrapper))

    def install(self):
        self._saved = [(m, a, getattr(m, a)) for m, a, _ in self._hooks]
        for module, attr, wrapper in self._hooks:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved = []

    def self_seconds(self):
        """Per-span duration minus the time its direct children cover."""
        own = [sp.seconds for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.seconds
        return own

    def to_json(self):
        return {
            "span_fields": ["name", "start", "end", "parent", "item", "phase"],
            "spans": [[sp.name, sp.start, sp.end, sp.parent, sp.item, sp.phase]
                      for sp in self.spans],
            "counts": [[phase, name, value]
                       for (phase, name), value in sorted(self.counts.items())],
        }


class PhaseTotals:
    """Per-layer totals taken from the phase a layer runs in.

    A name seen in the timed phase is reported per completed item; a
    name seen only during set-up (weight loading, scene generation, the
    crowd workload's rendering) is reported per set-up.
    """

    def __init__(self, tracer, timed_items, setups):
        self.timed_items = max(timed_items, 1)
        self.setups = max(setups, 1)
        self.seconds = {}      # (phase, name) -> self seconds
        for sp, own in zip(tracer.spans, tracer.self_seconds()):
            key = (sp.phase, sp.name)
            self.seconds[key] = self.seconds.get(key, 0.0) + own
        self.counts = dict(tracer.counts)

    def _per_unit(self, table, name):
        if ("timed", name) in table:
            return table[("timed", name)] / self.timed_items
        return table.get(("setup", name), 0) / self.setups

    def time(self, name):
        return self._per_unit(self.seconds, name)

    def count(self, name):
        return self._per_unit(self.counts, name)
