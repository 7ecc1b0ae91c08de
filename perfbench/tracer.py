"""In-memory spans and counts around the program's layer functions.

The program is not instrumented.  :class:`Tracer` replaces a layer's
public function at the module attribute its caller looks it up through
(``cli.t1_map``, ``pipeline.fit_hyperbola``, ...) with a wrapper that
records a span (name, start, end, parent) and, where a hook is given,
counts or keeps the call's result.  :meth:`Tracer.uninstall` puts the
original functions back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ok: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_tls(tr, result, args, kwargs):
    tr.add("ensemble.n_tls", len(result.tls_list))


def _lorentz_terms(tr, result, args, kwargs):
    ensemble, _design, plan, freq = args[:4]
    n_bias = sum(seg.bias.size for seg in plan)
    tr.add("spectro.lorentz_terms", n_bias * len(freq) * len(ensemble.tls_list))


def _written_dataset(tr, result, args, kwargs):
    tr.captured["simulated"] = args[0]
    tr.add("dataio.csv_bytes", os.path.getsize(args[1]))


def _read_dataset(tr, result, args, kwargs):
    tr.captured["read"] = result
    tr.add("dataio.csv_bytes", os.path.getsize(args[0]))


def _analysis(tr, result, args, kwargs):
    tr.captured["analysis"] = result


def _n_traces(tr, result, args, kwargs):
    tr.add("traces.n_traces", len(result))


def _n_tracks(tr, result, args, kwargs):
    tr.add("traces.n_tracks", len(result))


def _n_points(tr, result, args, kwargs):
    tr.add("pairfit.n_points", result.n_points)


#: (module, attribute, span name, hook).  The attribute is the one the
#: caller resolves at call time: cli imported most layer functions by
#: name, pipeline imported the trace and hyperbola functions by name,
#: and pairfit imports ``traces.extract_traces`` inside the function.
TARGETS = (
    ("tls_scope.cli", "generate_ensemble", "ensemble.generate_ensemble", _n_tls),
    ("tls_scope.cli", "t1_map", "spectro.t1_map", _lorentz_terms),
    ("tls_scope.dataio", "write_dataset", "dataio.write_dataset", _written_dataset),
    ("tls_scope.dataio", "read_dataset", "dataio.read_dataset", _read_dataset),
    ("tls_scope.dataio", "write_ground_truth", "dataio.write_ground_truth", None),
    ("tls_scope.dataio", "write_fit_report", "dataio.write_fit_report", None),
    ("tls_scope.cli", "analyze_dataset", "pipeline.analyze_dataset", _analysis),
    ("tls_scope.pipeline", "extract_traces", "traces.extract_traces", _n_traces),
    ("tls_scope.pipeline", "link_tracks", "traces.link_tracks", _n_tracks),
    ("tls_scope.pipeline", "fit_hyperbola", "hyperbola.fit_hyperbola", None),
    ("tls_scope.metrics", "material_report", "metrics.material_report", None),
    ("tls_scope.cli", "panel_points_from_dataset", "pairfit.panel_points", None),
    ("tls_scope.traces", "extract_traces", "traces.extract_traces", None),
    ("tls_scope.cli", "fit_coupled_pair", "pairfit.fit_coupled_pair", _n_points),
    ("tls_scope.coupled", "crossing_geometry", "coupled.crossing_geometry", None),
    ("tls_scope.coupled", "eigensolve_hermitian", "linalg.eigensolve_hermitian", None),
)


class Tracer:
    """Spans, counts and captured results of one traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.captured: dict = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(sp)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            sp.ok = False
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> "Tracer":
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, hook))
            self._patches.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, name, hook):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    # -- summaries -----------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of all spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str, ok_only: bool = False) -> int:
        return sum(1 for s in self.spans if s.name == name and (s.ok or not ok_only))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time of their direct children.

        Children of one span run one after the other, so their durations
        add up to the part of the parent they cover.
        """
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                children = sum(c.duration for c in self.spans if c.parent == i)
                total += s.duration - children
        return total

    def children_of(self, index: int) -> dict[str, float]:
        """Summed duration per name of the direct children of span ``index``."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.parent == index:
                out[s.name] = out.get(s.name, 0.0) + s.duration
        return out
