"""Span tracer for the benchmark's traced runs.

The package imports with ``from .x import y``, so each function is wrapped
under the name its caller looks up (``tridephase.bath.integrate_semi_infinite``,
not ``tridephase.numerics.integrate_semi_infinite``).  Every wrapper opens a
span; a span's self time is its duration minus the time covered by spans
opened inside it.  Calls and self time are summed per span name in memory.

A name that a later version of the package no longer has is listed in
``Tracer.absent`` and its counts read 0.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

import numpy.linalg

# (module where the caller looks the name up, attribute, span name)
SPANS = (
    ("tridephase.runner", "parse_config", "runner.parse"),
    ("tridephase.runner", "run_scenarios", "runner.run"),
    ("tridephase.runner", "trace_csv_bytes", "runner.csv"),
    ("tridephase.runner", "coherence_trace", "dynamics.trace"),
    ("tridephase.dynamics", "propagate_grid", "dynamics.propagate"),
    ("tridephase.dynamics", "validate", "states.validate"),
    ("tridephase.dynamics", "rel_entropy_coherence", "measures.cr"),
    ("tridephase.dynamics", "ode_propagate", "numerics.rk4"),
    ("tridephase.measures", "hermitian_eigendecomposition", "numerics.eig"),
    ("tridephase.bath", "dephasing_rate", "bath.kernel"),
    ("tridephase.bath", "cumulative_decoherence", "bath.kernel"),
    ("tridephase.bath", "integrate_semi_infinite", "numerics.quad"),
)

# numpy eigensolvers counted (not timed) by the number of matrices factorized
LINALG = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.absent: list[str] = []
        self._open: list[float] = []  # time covered by child spans, per open span

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                covered = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - covered
        return traced

    def _kernel(self, name, fn):
        traced = self.span(name, fn)

        def kernel(*args, **kwargs):
            before = self.calls["numerics.quad"]
            try:
                return traced(*args, **kwargs)
            finally:
                if self.calls["numerics.quad"] == before:
                    self.counts["bath.without_quad"] += 1
        return kernel

    def _quad(self, name, fn):
        def integrate(f, *args, **kwargs):
            def integrand(x):
                self.counts["numerics.quad_evals"] += x.size
                return f(x)
            return fn(integrand, *args, **kwargs)
        return self.span(name, integrate)

    def _rk4(self, name, fn):
        def ode_propagate(derivative, *args, **kwargs):
            return fn(self.span("dynamics.rhs", derivative), *args, **kwargs)
        return self.span(name, ode_propagate)

    def _csv(self, name, fn):
        def render(*args, **kwargs):
            data = fn(*args, **kwargs)
            self.counts["runner.csv_bytes"] += len(data)
            return data
        return self.span(name, render)

    def _count_matrices(self, fn):
        def eig(a, *args, **kwargs):
            self.counts["linalg.eig_matrices"] += math.prod(numpy.shape(a)[:-2])
            return fn(a, *args, **kwargs)
        return eig

    def install(self) -> None:
        """Wrap every name in SPANS and LINALG; call once per process."""
        special = {"bath.kernel": self._kernel, "numerics.quad": self._quad,
                   "numerics.rk4": self._rk4, "runner.csv": self._csv}
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, special.get(name, self.span)(name, fn))
        for attr in LINALG:
            setattr(numpy.linalg, attr, self._count_matrices(getattr(numpy.linalg, attr)))

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); times are self times."""
        def ms(name):
            return 1e3 * self.self_s[name]

        kernel_calls = self.calls["bath.kernel"]
        hit_ratio = self.counts["bath.without_quad"] / kernel_calls if kernel_calls else 0.0
        return {
            "numerics.quad_calls": (self.calls["numerics.quad"], "count"),
            "numerics.quad_evals": (self.counts["numerics.quad_evals"], "count"),
            "numerics.quad_ms": (ms("numerics.quad"), "ms"),
            "bath.kernel_calls": (kernel_calls, "count"),
            "bath.kernel_ms": (ms("bath.kernel"), "ms"),
            "bath.cache_hit_ratio": (hit_ratio, "ratio"),
            # classical RK4 evaluates the derivative four times per substep
            "numerics.rk4_substeps": (self.calls["dynamics.rhs"] // 4, "count"),
            "numerics.rk4_ms": (ms("numerics.rk4"), "ms"),
            "dynamics.rhs_calls": (self.calls["dynamics.rhs"], "count"),
            "dynamics.rhs_ms": (ms("dynamics.rhs"), "ms"),
            "numerics.eig_calls": (self.calls["numerics.eig"], "count"),
            "numerics.eig_ms": (ms("numerics.eig"), "ms"),
            "linalg.eig_matrices": (self.counts["linalg.eig_matrices"], "count"),
            "measures.cr_calls": (self.calls["measures.cr"], "count"),
            "measures.cr_ms": (ms("measures.cr"), "ms"),
            "states.validate_calls": (self.calls["states.validate"], "count"),
            "states.validate_ms": (ms("states.validate"), "ms"),
            "dynamics.propagate_calls": (self.calls["dynamics.propagate"], "count"),
            "dynamics.propagate_ms": (ms("dynamics.propagate"), "ms"),
            "dynamics.trace_ms": (ms("dynamics.trace"), "ms"),
            "runner.parse_ms": (ms("runner.parse"), "ms"),
            "runner.csv_ms": (ms("runner.csv"), "ms"),
            "runner.csv_bytes": (self.counts["runner.csv_bytes"], "bytes"),
            "runner.self_ms": (ms("runner.run"), "ms"),
        }

    def shares(self) -> dict[str, float]:
        """Each span name's share of the traced time (the sum of all self times)."""
        total = sum(self.self_s.values())
        return {name: s / total for name, s in self.self_s.items()} if total else {}
