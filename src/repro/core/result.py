"""The one record every algorithm entry point returns.

The MapReduce drivers, the sequential paths (the coreset pipeline with
ell = 1 and CHARIKARETAL) and the streams all return a ``Result``; a field
an entry point does not produce is None. ``timings`` maps each layer of
the call to its wall seconds, charged by one ``Clock`` that starts on the
entry point's first line and laps at each layer's end, so the values add
up to the call's wall time. The layers are:

* MapReduce: ``setup`` (checks, pids, ``to_spark``), ``round1``,
  ``round2`` and ``evaluate`` (the distributed radius);
* the coreset pipeline with ell = 1: ``setup``, ``round1``, ``round2``;
* CHARIKARETAL: ``setup`` and ``search``;
* streams: ``setup``, ``pass`` (the one pass over the stream) and ``final``
  (the step on what the pass kept).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.search import RadiusSearchResult


@dataclass(frozen=True)
class Result:
    """Centers plus what the experiments report about the call."""

    centers: np.ndarray  # (<= k, d)
    timings: dict[str, float]  # layer -> wall seconds, summing to the call
    radius: float | None = None  # the MR drivers' distributed z-radius
    coreset_size: int | None = None  # |T|, the set the final step ran on
    coreset_weight: int | None = None  # T's total proxy weight (= n)
    space: int | None = None  # a stream's peak number of stored points
    n_processed: int | None = None  # stream points read (= n)
    part_sizes: dict[int, int] | None = None  # |S_i| per round-1 subset
    search: RadiusSearchResult | None = None  # the radius search, if any


class Clock:
    """A lap timer: ``lap(layer)`` charges the wall time since the previous
    lap (or since the clock started) to ``layer``, once per layer."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, layer: str) -> None:
        start, self._t = self._t, time.perf_counter()
        self.timings[layer] = self._t - start
