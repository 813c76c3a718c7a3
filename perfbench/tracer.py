"""Spans around calls into the library, recorded from outside it.

A :class:`Tracer` replaces a function by a timing wrapper under the name
the *calling* module looks it up by (``mflab.chaos.mala_sample``, not
``mflab.sampler.mala_sample``), so only the calls made along the benchmark
path are recorded.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records one span (name, start, end, parent) per wrapped call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.units: Counter = Counter()
        self.observed: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self.unreadable: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, span: str, units=None, observe=None):
        """Time every call of ``module.attr`` as a span named ``span``.

        ``units(*args, **kwargs)`` adds to a per-span work count and
        ``observe(result)`` keeps a value read from each result.  A name
        the module no longer has is listed in :attr:`missing`, and a hook
        that cannot read its call in :attr:`unreadable`.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span, start, end, parent)
            try:
                if units is not None:
                    self.units[span] += units(*args, **kwargs)
                if observe is not None:
                    self.observed[span].append(observe(result))
            except Exception as err:  # a changed signature must not stop the run
                self.unreadable.add(f"{span}: {type(err).__name__}: {err}")
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self):
        """Put every wrapped function back."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children[idx]
        return out

    def write(self, path):
        """One CSV row per span: run, id, parent, name, start_s, end_s."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run", "id", "parent", "name", "start_s", "end_s"])
            for idx, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([self.run_id, idx, parent, name,
                              f"{start:.9f}", f"{end:.9f}"])
