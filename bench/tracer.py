"""Spans around covtest's public calls, recorded in memory by the benchmark.

:meth:`Tracer.install` replaces each traced public function, in every covtest
module that holds a reference to it, with a wrapper that opens a span (name,
start, end, parent) and, for the layers that report one, measures the
tracemalloc peak inside it. Nothing under ``src/`` changes;
:meth:`Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# Public calls traced, by layer module. ProfileSolver's methods are traced on
# the class, so both observed_statistic and the study's sweep are covered.
FUNCTIONS = {
    "data_io": ("load_csv",),
    "spline_basis": ("place_knots", "build_design", "smoother_kernel"),
    "exact_lrt": (
        "spectral_decompose", "default_lambda_grid", "simulate_null",
        "simulate_null_cached", "observed_statistic", "attach_pvalue", "p_value",
    ),
    "null_fit": ("fit_ols", "fit_reml_random_intercept", "reml_projection"),
    "score_test": ("run_score_test", "score_statistic"),
    "cusum_test": ("cumulative_process", "multiplier_null", "sup_test"),
    "sim_study": ("generate_dataset",),
}
METHODS = {"exact_lrt": {"ProfileSolver": ("__init__", "statistics")}}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    peak_bytes: int = 0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder. Spans nest by call order.

    Spans named in ``peaks`` also measure the tracemalloc peak above their
    starting allocation. tracemalloc runs only while such a span is open, so
    the rest of the replay runs at full speed.
    """

    def __init__(self, peaks: frozenset = frozenset()):
        self.peaks = peaks
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._measuring: list[list] = []   # [span index, start bytes, running peak, owns tracing]
        self._restore: list[tuple[object, str, object]] = []

    def _begin(self, name: str, info: dict) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, parent=parent, info=info))
        idx = len(self.spans) - 1
        self._open.append(idx)
        if name in self.peaks:
            owns = not tracemalloc.is_tracing()
            if owns:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self._measuring:
                outer = self._measuring[-1]
                outer[2] = max(outer[2], peak)
            tracemalloc.reset_peak()
            self._measuring.append([idx, current, current, owns])
        self.spans[idx].start = time.perf_counter()

    def _end(self) -> None:
        end = time.perf_counter()
        idx = self._open.pop()
        span = self.spans[idx]
        span.end = end
        if self._measuring and self._measuring[-1][0] == idx:
            _, base, running, owns = self._measuring.pop()
            running = max(running, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = running - base
            if self._measuring:
                outer = self._measuring[-1]
                outer[2] = max(outer[2], running)
            if owns:
                tracemalloc.stop()
            else:
                tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str, **info):
        self._begin(name, info)
        try:
            yield self.spans[-1]
        finally:
            self._end()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = {}
            after = None
            if note:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after = note(bound, info)
            self._begin(name, info)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()
                if after is not None:
                    after()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a covtest module references it."""
        package = importlib.import_module("covtest")
        modules = [package] + [
            importlib.import_module(f"covtest.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"covtest.{layer}")
            for name in names:
                original = getattr(home, name)
                traced = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, traced)
        for layer, classes in METHODS.items():
            home = importlib.import_module(f"covtest.{layer}")
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "peak_bytes": s.peak_bytes, "info": s.info}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# Counts recorded at the call boundary. A note reads the bound arguments
# before the call, fills the span's info, and may return a callback to run
# after it.


def _cache_event(bound, info):
    cache_dir = bound.arguments.get("cache_dir")
    if cache_dir is None:
        info["cache"] = "off"
        return None

    def listing():
        return set(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else set()

    before = listing()

    def after():
        info["cache"] = "miss" if listing() - before else "hit"

    return after


def _draws(bound, info):
    info["draws"] = int(bound.arguments["n_sims"])


def _resamples(bound, info):
    info["resamples"] = int(bound.arguments["n_resamples"])


def _replicate(bound, info):
    seed = bound.arguments["seed"]
    seed = (seed,) if isinstance(seed, int) else tuple(int(s) for s in seed)
    info["replicate"] = [int(bound.arguments["m"]), float(bound.arguments["sigma"]), list(seed)]


_NOTES = {
    "exact_lrt.simulate_null_cached": _cache_event,
    "exact_lrt.simulate_null": _draws,
    "cusum_test.multiplier_null": _resamples,
    "sim_study.generate_dataset": _replicate,
}
