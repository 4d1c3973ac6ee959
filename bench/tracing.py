"""Spans around the benchmark's calls into humsearch, kept in memory.

The tracer replaces a module attribute with a timing wrapper at each point
where the program looks a layer up (``cli`` calls ``audio.load_wav``,
``search`` calls its imported ``correlative_match``, ``power`` calls its
imported ``run_detector`` and ``detect_peaks``), so nothing in ``src/``
changes.  A span records its name, start, end, parent span and one count
taken from the call (samples, frames, onsets, anchor cells or trials).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time


def _cells(query, reference):
    # anchor cells of one correlative_match: (d+1)(d+2)/2 for d = |n - m|
    d = abs(len(query) - len(reference))
    return (d + 1) * (d + 2) // 2


# (module, attribute, span name, count taken from (bound arguments, result))
WRAP_POINTS = (
    ("humsearch.audio", "load_wav", "audio.load_wav",
     lambda a, r: len(r)),
    ("humsearch.spectral", "stft", "spectral.stft",
     lambda a, r: r.n_frames),
    ("humsearch.detect", "energy_detector", "detect.energy", None),
    ("humsearch.detect", "spectral_dissimilarity", "detect.sd", None),
    ("humsearch.detect", "dominant_spectral_dissimilarity", "detect.dsd",
     None),
    ("humsearch.peaks", "detect_peaks", "peaks.detect_peaks",
     lambda a, r: r.times.copy()),
    ("humsearch.store", "db_load", "store.db_load", None),
    ("humsearch.store", "db_save", "store.db_save", None),
    ("humsearch.search", "rank", "search.rank", None),
    ("humsearch.search", "correlative_match", "match.correlative_match",
     lambda a, r: _cells(a["query"].times, a["reference"].times)),
    ("humsearch.power", "monte_carlo_power", "power.monte_carlo_power",
     lambda a, r: a["trials"]),
    ("humsearch.power", "energy_power_curve", "power.energy_power_curve",
     None),
    ("humsearch.power", "energy_power_lower_bound", "power.bound_offset",
     None),
    ("humsearch.power", "synth_signal", "power.synth_signal", None),
    ("humsearch.power", "run_detector", "power.run_detector", None),
    ("humsearch.power", "detect_peaks", "peaks.detect_peaks",
     lambda a, r: r.times.copy()),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "count")

    def __init__(self, name, start, parent):
        self.name, self.start, self.parent = name, start, parent
        self.end = None
        self.count = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records nested spans; ``install`` wraps WRAP_POINTS, ``uninstall``
    puts the original functions back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if count is not None:
                span.count = count(signature.bind(*args, **kwargs).arguments,
                                   result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(i)
        return kids

    def self_ms(self, index: int, kids: dict[int, list[int]]) -> float:
        """A span's duration minus the time its direct children cover
        (children are nested and sequential, so they do not overlap)."""
        return self.spans[index].ms - sum(self.spans[c].ms
                                          for c in kids.get(index, ()))

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent, count)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                count = span.count
                if hasattr(count, "tolist"):
                    count = len(count)
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent, count]) + "\n")
