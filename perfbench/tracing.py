"""Per-layer tracing from outside the library.

`Tracer.install` wraps the public functions of the six `backflow` modules
listed in LAYERS and rebinds every name in every `backflow.*` namespace
that refers to one of them (padegen, for instance, imports
`make_line_wavefunction` by name). Coarse functions get spans (name, start,
end, parent, op id), kept in memory and written out when the run ends.
Per-point scalar functions get call counters only, since a span per point
would cost more than the point. A layer's self time is its span duration
minus the time its child spans cover.

No layer queues work, so there are no wait metrics.

Which end-to-end metric each layer should move, and on which workload:

| layer    | should move                         | workload                         |
|----------|-------------------------------------|----------------------------------|
| polyring | success_rate, op_ms_p90             | design (little on survey)        |
| contwave | ops_per_s, op_ms_p50                | survey, design (small on cli)    |
| ringwave | ops_per_s (survey), op_ms_p90 (cli) | survey, cli (none on design)     |
| padegen  | ops_per_s                           | design (minor on cli)            |
| oracle   | op_ms_p90 (cli verify), ops_per_s   | cli, survey (construction path)  |
| cli      | ops_per_s, op_ms_p50                | cli only; no change elsewhere    |
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function, kind, extra statistics). A "span" function is timed; a
# "count" function is only counted. Each statistic maps a name to a function
# of (args, kwargs, result) whose value is summed over calls.
LAYERS = [
    ("polyring", "real_roots", "span", {
        "degree": lambda a, k, r: a[0].degree,
        "roots": lambda a, k, r: sum(root.multiplicity for root in r),
    }),
    ("polyring", "complex_roots", "span", {}),
    ("polyring", "series_quotient", "span", {"order": lambda a, k, r: len(r.coeffs)}),
    ("contwave", "make_line_wavefunction", "span", {}),
    ("contwave", "momentum_spectrum", "span", {}),
    ("contwave", "backflow_intervals", "span", {}),
    ("contwave", "local_wavenumber", "count", {}),
    ("contwave", "probability_current", "count", {}),
    ("contwave", "eval_spectrum", "count", {}),
    ("ringwave", "make_ring_wavefunction", "span", {"taylor_terms": lambda a, k, r: len(r.taylor_coeffs)}),
    ("ringwave", "ring_spectrum", "span", {}),
    ("ringwave", "ring_backflow_intervals", "span", {}),
    ("ringwave", "ring_wavenumber", "count", {}),
    ("ringwave", "ring_current", "count", {}),
    ("padegen", "design_wavefunction", "span", {}),
    ("padegen", "pade_numerator", "span", {}),
    ("oracle", "norm_quadrature", "span", {"evals": lambda a, k, r: r.evaluations}),
    ("oracle", "fourier_quadrature", "span", {"evals": lambda a, k, r: r.evaluations}),
    ("oracle", "phase_gradient_fd", "count", {}),
    ("cli", "main", "span", {}),
    ("cli", "build_wavefunction", "span", {}),
    ("cli", "sample_field", "span", {}),
    ("cli", "write_csv", "span", {"bytes": lambda a, k, r: os.path.getsize(a[0])}),
    ("cli", "write_json", "span", {"bytes": lambda a, k, r: os.path.getsize(a[0])}),
]

STAT_UNITS = {"degree": "count", "roots": "count", "order": "count", "taylor_terms": "count",
              "evals": "count", "bytes": "B"}


def _layer_metrics() -> list[tuple[str, str, str, str]]:
    """(metric, unit, layer function, statistic) for each wrapped function."""
    out = []
    for module, func, kind, stats in LAYERS:
        base = f"{module}.{func}"
        out.append((f"{base}.calls", "count", base, "calls"))
        if kind == "span":
            out.append((f"{base}.self_ms", "ms", base, "self_ms"))
        out.extend((f"{base}.{stat}", STAT_UNITS[stat], base, stat) for stat in stats)
    return out


DERIVED = [
    ("polyring.real_roots.root_yield", "fraction"),  # real roots per unit of degree
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),  # traced minus untraced time per op
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in table order."""
    return [(name, unit) for name, unit, _, _ in _layer_metrics()] + DERIVED


class Tracer:
    """Owns the wrappers, the open-span stack and the recorded spans."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, children's time]
        self._next_id = 0
        self._patched: list[tuple] = []  # (namespace, attribute, original)

    def _span(self, name, fn, stats):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, name, start, end, parent, self.op_id))
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            for stat, value in stats.items():
                self.stats[f"{name}.{stat}"] += value(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        namespaces = [mod for key, mod in sys.modules.items() if key == "backflow" or key.startswith("backflow.")]
        for module, func, kind, stats in LAYERS:
            original = getattr(sys.modules[f"backflow.{module}"], func)
            name = f"{module}.{func}"
            wrapper = self._span(name, original, stats) if kind == "span" else self._counter(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def per_op(self, ops: int, overhead_ms: float) -> dict[str, float]:
        """Totals divided by the number of traced operations."""
        out = {}
        for name, _unit, base, stat in _layer_metrics():
            if stat == "calls":
                total = self.calls[base]
            elif stat == "self_ms":
                total = 1e3 * self.self_s[base]
            else:
                total = self.stats[name]
            out[name] = total / ops
        degree = self.stats["polyring.real_roots.degree"]
        out["polyring.real_roots.root_yield"] = (
            self.stats["polyring.real_roots.roots"] / degree if degree else 0.0
        )
        out["trace.spans"] = len(self.spans) / ops
        out["trace.overhead_ms"] = overhead_ms
        return out

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
