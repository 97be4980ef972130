"""In-memory spans around the calls into each layer of `sparse_noma`.

The traced run replaces the layer functions listed below with wrappers,
in every `sparse_noma` module that bound them by name (and in the `checks.CHECKS`
table), so nested calls nest their spans.  Nothing in the package itself is
edited; `instrument` returns an undo function that puts every original back.

A span is [id, parent id, name, start s, end s, tag, child seconds].  A layer's
self time is the sum over its spans of duration minus the time covered by
direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager



def _shape(args) -> str:
    sig = args[0]
    return f"p{sig.d}_{sig.beta_d}_n{sig.n_resources}_k{sig.n_users}"


# span name "<module>.<function>" -> function of the positional arguments giving
# the span's tag, or None
FUNCTIONS = {
    "baselines.sweep_load": None,
    "baselines.solve_rate_at_ebn0": None,
    "baselines.baseline_rate": None,
    "baselines.timeshare_envelope": None,
    "capacity.capacity_optimum": None,
    "capacity.capacity_lmmse": None,
    "capacity.capacity_integral_oracle": None,
    "capacity.lmmse_error": None,
    "spectral.integrate_against_density": None,
    "spectral.limiting_cdf": None,
    "spectral.stieltjes": None,
    "montecarlo.generate_signature": lambda args: f"p{args[1]}_{args[2]}_n{args[0]}",
    "montecarlo.empirical_spectrum": _shape,
    "montecarlo.lmmse_diagonal": _shape,
    "montecarlo.ks_distance": None,
    "montecarlo.empirical_capacity_opt": None,
    "montecarlo.empirical_capacity_lmmse": None,
}
# span name -> (class, method) of montecarlo.SignatureMatrix
METHODS = {
    "montecarlo.signature_validate": ("SignatureMatrix", "validate"),
    "montecarlo.to_sparse": ("SignatureMatrix", "to_sparse"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = [sid, parent, name, time.perf_counter(), None, tag, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][6] += rec[4] - rec[3]

    def wrap(self, name: str, fn, tag_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, tag_fn(args) if tag_fn else None):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def tagged(self, name: str) -> list[tuple[str, float]]:
        return [(s[5], s[4] - s[3]) for s in self.spans if s[2] == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[4] - s[3]) - s[6]
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times in microseconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name", "start_us", "end_us", "tag"]}) + "\n")
            for sid, parent, name, start, end, tag, _ in self.spans:
                fh.write(json.dumps([sid, parent, name, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), tag]) + "\n")


def instrument(tracer: Tracer):
    """Wrap every FUNCTIONS and METHODS entry and each named check; returns the undo function."""
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    package = [m for name, m in sys.modules.items() if name.startswith("sparse_noma.") and m]
    for span_name, tag_fn in FUNCTIONS.items():
        mod_name, attr = span_name.split(".")
        original = getattr(importlib.import_module(f"sparse_noma.{mod_name}"), attr)
        wrapped = tracer.wrap(span_name, original, tag_fn)
        for m in package:
            for name, value in list(vars(m).items()):
                if value is original:
                    replace(m, name, wrapped)
    montecarlo = importlib.import_module("sparse_noma.montecarlo")
    for span_name, (cls_name, meth) in METHODS.items():
        cls = getattr(montecarlo, cls_name)
        replace(cls, meth, tracer.wrap(span_name, getattr(cls, meth)))

    checks = importlib.import_module("sparse_noma.checks")
    table = []
    for name, fn, slow in checks.CHECKS:
        wrapped = tracer.wrap(f"checks.{name}", fn)
        table.append((name, wrapped, slow))
        replace(checks, fn.__name__, wrapped)
    replace(checks, "CHECKS", tuple(table))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
