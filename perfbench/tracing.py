"""In-memory span tracer installed by wrapping qcdyn's public module attributes.

Spans are recorded from the benchmark's own files, around the calls into
each layer: the wrappers replace attributes such as ``qcdyn.render.render_julia``
for the length of one traced pass and put the originals back afterwards.
Library code that looks a name up in its own module (``cli`` calling
``render.render_locus``, ``jets`` calling ``compose_jets``) goes through the
wrapper too.  Hot scalar helpers (``apply_map``, ``jacobian``) are counted,
not spanned: a span per call would dwarf the call itself.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index, operation id]; counts keyed
    by (counter name, name of the outermost open span).

    One span stack serves the whole process: every wrapped name is called from
    the benchmark's thread (render's worker threads only run its private
    block kernel).
    """

    def __init__(self):
        self.scale = 1.0  # applied to the seconds of the summaries: the pass's unstolen share
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._root = None
        self._next_op = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, module, attr: str, name=None):
        """Replace module.attr by a wrapper recording one span per call.

        name is the span name, or a function of the call's (args, kwargs)
        returning it; default "<module tail>.<attr>".
        """
        original = getattr(module, attr)
        default = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = default if name is None else name if isinstance(name, str) else name(args, kwargs)
            if stack:
                parent = stack[-1]
                op = spans[parent][4]
            else:
                parent, op = None, self._next_op
                self._next_op += 1
                self._root = label
            rec = [label, 0.0, 0.0, parent, op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if not stack:
                    self._root = None

        self._install(module, attr, wrapper)

    def count(self, module, attr: str, counter: str):
        """Replace module.attr by a wrapper that only counts calls."""
        original = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter, self._root] += 1
            return original(*args, **kwargs)

        self._install(module, attr, wrapper)

    def _install(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- summaries ------------------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Total seconds spent inside each span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) * self.scale
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by its direct children."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += (end - start) * self.scale
            if parent is not None:
                out[self.spans[parent][0]] -= (end - start) * self.scale
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def counted(self, counter: str, root: str | None = None) -> int:
        """Calls of a counted helper, all of them or only under one outermost span name."""
        return sum(n for (c, r), n in self.counts.items() if c == counter and (root is None or r == root))

    def write(self, path) -> None:
        """Dump the spans as CSV: name, start, end (raw wall seconds), parent row, operation id."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "op"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, op in self.spans:
                w.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                            "" if parent is None else parent, op])
