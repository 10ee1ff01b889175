"""Driver-side tracing for the traced run, installed from the benchmark.

The program has no tracing of its own, so the benchmark wraps the public
functions that the drivers look up by module attribute at call time and
records one span per wrapped call: name, start, end, parent span and call
id, kept in memory and written out when the run ends. Wrappers around
functions that start Spark jobs also set the job description
``"<layer> call=<id>"`` so that the event log's stages map to layers.

Patches reach the driver only; code running in the Python workers is seen
through the Spark event log (``eventlog.py``).

``Capture`` is separate and always on: it records the arguments and result
of the radius search so the checks can verify it independently. It reads
no clock and is the only hook present in the timed (untraced) runs.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

JOB_DESC = "spark.job.description"


def _patch(stack: ExitStack, owner, attr: str, wrapper_factory) -> None:
    """Replace ``owner.attr`` by ``wrapper_factory(original)`` until the
    stack closes. A boundary the program no longer has is skipped: its
    layer metrics then read 0 and, for the capture, the checks fail."""
    orig = getattr(owner, attr, None)
    if orig is None:
        return
    setattr(owner, attr, wrapper_factory(orig))
    stack.callback(setattr, owner, attr, orig)


class Tracer:
    """In-memory span recorder for the single-threaded driver."""

    def __init__(self, sc=None):
        self.sc = sc  # SparkContext for job descriptions, None without Spark
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.call_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: str | None = None):
        rec = {
            "name": name,
            "call": self.call_id,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        prev = None
        if job is not None and self.sc is not None:
            prev = self.sc.getLocalProperty(JOB_DESC)
            self.sc.setLocalProperty(JOB_DESC, f"{job} call={self.call_id}")
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if job is not None and self.sc is not None:
                self.sc.setLocalProperty(JOB_DESC, prev)
            self._stack.pop()

    def _wrap(self, name: str, job: str | None = None, attrs=None):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name, job) as rec:
                    out = fn(*args, **kwargs)
                    if attrs is not None:
                        rec["attrs"].update(attrs(args, out))
                    return out

            return wrapper

        return factory

    def _counting(self, name: str):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counters[self.call_id][name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return factory

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        from repro.core import search
        from repro.mapreduce import kcenter_outliers as mr
        from repro.streaming import coreset_outliers, doubling

        def process_attrs(args, out):
            return {"peak_size": out.peak_size, "final_size": out.size,
                    "points": len(args[1])}

        with ExitStack() as stack:
            _patch(stack, mr, "to_spark", self._wrap("data.to_spark"))
            _patch(stack, mr, "run_round1", self._wrap(
                "mapreduce.round1", job="mapreduce.round1",
                attrs=lambda a, out: {"coreset_size": out.size}))
            _patch(stack, mr, "radius_spark", self._wrap(
                "mapreduce.evaluate", job="mapreduce.evaluate"))
            search_span = self._wrap(
                "core.search.min_feasible_radius",
                attrs=lambda a, out: {"evaluations": out.evaluations})
            _patch(stack, mr, "min_feasible_radius", search_span)
            _patch(stack, coreset_outliers, "min_feasible_radius", search_span)
            _patch(stack, search, "outliers_cluster",
                   self._wrap("core.outliers_cluster"))
            _patch(stack, search, "cdist", self._wrap("core.search.dist_matrix"))
            _patch(stack, doubling, "cdist",
                   self._counting("streaming.doubling.cdist_calls"))
            _patch(stack, doubling.DoublingCoreset, "process", self._wrap(
                "streaming.doubling.process", attrs=process_attrs))
            yield self

    # -- reading the spans back ------------------------------------------

    def call_spans(self, call: int) -> list[dict]:
        return [s for s in self.spans if s["call"] == call]

    def self_times(self, call: int) -> dict[str, float]:
        """Self time per span name within one call: each span's duration
        minus the durations of its children (children never overlap, as the
        driver is single-threaded). The values sum to the root's duration."""
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s["call"] != call:
                continue
            kids = sum(
                c["end"] - c["start"] for c in self.spans if c["parent"] == i
            )
            out[s["name"]] += s["end"] - s["start"] - kids
        return dict(out)

    def totals(self, call: int, name: str) -> list[float]:
        """Durations of every span called ``name`` within one call."""
        return [
            s["end"] - s["start"]
            for s in self.call_spans(call)
            if s["name"] == name
        ]

    def attrs(self, call: int, name: str) -> dict:
        merged: dict = {}
        for s in self.call_spans(call):
            if s["name"] == name:
                merged.update(s["attrs"])
        return merged

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": {str(c): dict(v) for c, v in self.counters.items()},
        }


class Capture:
    """Records each radius search's input and result for the checks."""

    def __init__(self):
        self.searches: list[dict] = []

    def _factory(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            self.searches.append(
                {"T": bound["T"], "w": bound["weights"],
                 "eps_hat": bound["eps_hat"], "result": res}
            )
            return res

        return wrapper

    @contextmanager
    def installed(self):
        from repro.mapreduce import kcenter_outliers as mr
        from repro.streaming import coreset_outliers

        with ExitStack() as stack:
            _patch(stack, mr, "min_feasible_radius", self._factory)
            _patch(stack, coreset_outliers, "min_feasible_radius",
                   self._factory)
            yield self

    def pop(self) -> list[dict]:
        out, self.searches = self.searches, []
        return out
