"""Spans recorded around the package's public calls, from outside the package.

A span is (name, start, end, parent index).  ``instrument`` swaps module
attributes of sparsesteiner for timing wrappers and returns a function that
restores them; the package itself is not changed.  Spans stay in memory and
are written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.excluded: list[int] = []  # triples excluded by each engine step
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            name_, start, _, parent_ = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_)

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, child of the innermost open span."""
        self.spans.append((name, start, end, self._stack[-1] if self._stack else -1))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            **extra,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class RunClock:
    """Time spent inside process.run (always measured)."""

    def __init__(self) -> None:
        self.seconds = 0.0


def _patch(obj, attr: str, new, undo: list) -> None:
    old = obj.__dict__[attr]
    undo.append((obj, attr, old))
    setattr(obj, attr, new)


def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def instrument(clock: RunClock, tracer: Optional[Tracer], search_seed: int) -> Callable[[], None]:
    """Wrap process.run (for steps_per_s) and, when tracing, every layer call.

    Untraced, only process.run is wrapped, by one clock read on each side.
    Traced, each engine step is a span between consecutive ``on_step``
    callbacks, the drop in the available count gives the triples excluded per
    step, and each checkpoint first times ``process.excluded_by`` on a seeded
    sample of available triples.
    """
    from sparsesteiner import cli, configs, general_designs, process, sparse_check, stats, trajectory

    undo: list = []
    run = process.run

    def timed_run(state, stop=None, journal=None, on_step=None):
        if tracer is None:
            t0 = time.perf_counter()
            try:
                return run(state, stop, journal=journal, on_step=on_step)
            finally:
                clock.seconds += time.perf_counter() - t0
        last = [time.perf_counter(), state.avail_count]

        def step_done(st):
            now = time.perf_counter()
            tracer.add("process.step", last[0], now)
            tracer.excluded.append(last[1] - st.avail_count - 1)
            if on_step is not None:
                on_step(st)
            last[0] = time.perf_counter()
            last[1] = st.avail_count

        with tracer.span("process.run"):
            t0 = time.perf_counter()
            try:
                return run(state, stop, journal=journal, on_step=step_done)
            finally:
                clock.seconds += time.perf_counter() - t0

    _patch(process, "run", timed_run, undo)
    if tracer is None:
        return functools.partial(_restore, undo)

    rng = np.random.default_rng(search_seed)
    checkpoint = stats.checkpoint

    def traced_checkpoint(state, spec, params):
        _sample_searches(tracer, rng, state)
        with tracer.span("stats.checkpoint"):
            return checkpoint(state, spec, params)

    _patch(stats, "checkpoint", traced_checkpoint, undo)

    count_x_tjc = stats.count_X_Tjc

    def traced_x_tjc(state, t, j, c):
        with tracer.span(f"stats.X_Tjc.j{j}c{c}"):
            return count_x_tjc(state, t, j, c)

    _patch(stats, "count_X_Tjc", traced_x_tjc, undo)
    enumerate_erdos = configs.enumerate_erdos

    def traced_enumerate(j_max):
        with tracer.span(f"configs.enumerate.j{j_max}"):
            return enumerate_erdos(j_max)

    _patch(configs, "enumerate_erdos", traced_enumerate, undo)
    for obj, attr, name in (
        (process, "init", "process.init"),
        (stats, "count_X_e", "stats.X_e"),
        (stats, "export_series", "stats.export"),
        (cli, "write_sts", "cli.write_sts"),
        (cli, "read_sts", "cli.read_sts"),
        (sparse_check, "is_partial_steiner", "sparse_check.partial_steiner"),
        (sparse_check, "is_k_sparse", "sparse_check.exhaustive"),
        (sparse_check, "sampled_sparseness", "sparse_check.sampled"),
        (general_designs, "sparsify", "general_designs.sparsify"),
        (general_designs, "greedy_matching", "general_designs.matching"),
        (general_designs, "is_weakly_k_sparse", "general_designs.weak_check"),
    ):
        _patch(obj, attr, _timed(tracer, name, getattr(obj, attr)), undo)
    for cls, attr, name in (
        (trajectory.TrajectoryParams, "from_catalog", "trajectory.params"),
        (general_designs.AuxHypergraph, "build", "general_designs.aux_build"),
    ):
        _patch(cls, attr, staticmethod(_timed(tracer, name, getattr(cls, attr))), undo)
    return functools.partial(_restore, undo)


def _restore(undo: list) -> None:
    for obj, attr, old in reversed(undo):
        setattr(obj, attr, old)


SEARCH_SAMPLE = 20
SEARCH_DRAWS = 1 << 20


def _sample_searches(tracer: Tracer, rng: np.random.Generator, state) -> None:
    """Time excluded_by on up to SEARCH_SAMPLE available triples, drawn by
    rejection from all triples so the engine's own state and RNG are untouched."""
    from sparsesteiner import process

    n = state.n
    found = 0
    for _ in range(0, SEARCH_DRAWS, 4096):
        draws = np.sort(rng.integers(n, size=(4096, 3)), axis=1)
        draws = draws[(draws[:, 0] < draws[:, 1]) & (draws[:, 1] < draws[:, 2])]
        for a, b, c in draws.tolist():
            if not state.is_available((a, b, c)):
                continue
            with tracer.span("process.search"):
                process.excluded_by(state, (a, b, c))
            found += 1
            if found == SEARCH_SAMPLE:
                return
