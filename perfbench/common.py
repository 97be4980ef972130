"""Ops, the timed loop, and edge-list checks shared by the workloads."""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    """One timed call into the program.

    key identifies the inputs: ops with equal keys must give equal outputs.
    fixed marks inputs that do not depend on --seed; only such an op may be
    counted as failed, every other miss makes the run incorrect.  span names
    the benchmark-side span of the traced run (the CLI layer).
    """

    kind: str
    key: tuple
    fn: Callable[[], Any]
    fixed: bool = False
    span: str | None = None


@dataclass
class OpResult:
    op: Op
    seconds: float
    value: Any
    error: str | None


def cli_call(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str, str]:
    """Run `sparse-noma argv` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_ops(ops: list[Op], tracer=None) -> list[OpResult]:
    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    value = op.fn()
            else:
                value = op.fn()
            error = None
        except Exception as exc:  # judged in verification, like any wrong output
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append(OpResult(op, time.perf_counter() - t0, value, error))
    return results


def feasible_n(n: int, d: int, beta_d: int) -> int:
    """Smallest N >= n with an integer user count N * beta_d / d."""
    while n * beta_d % d:
        n += 1
    return n


def structure_problems(sig, n: int, d: int, beta_d: int) -> list[str]:
    """Exact degrees, a simple graph and unit-modulus weights, from the edge list."""
    k = n * beta_d // d
    rows, cols, w = np.asarray(sig.rows), np.asarray(sig.cols), np.asarray(sig.weights)
    out = []
    if (sig.n_resources, sig.n_users, sig.d, sig.beta_d) != (n, k, d, beta_d):
        out.append(f"shape ({sig.n_resources},{sig.n_users}) for n={n}, k={k}")
        return out
    if not (len(rows) == len(cols) == len(w) == k * d):
        return out + [f"{len(rows)} edges, expected {k * d}"]
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= k:
        return out + ["edge index out of range"]
    if not np.all(np.bincount(cols, minlength=k) == d):
        out.append("user degrees are not all d")
    if not np.all(np.bincount(rows, minlength=n) == beta_d):
        out.append("resource degrees are not all beta_d")
    if len(np.unique(rows.astype(np.int64) * k + cols)) != len(rows):
        out.append("repeated edge: the graph is not simple")
    if np.max(np.abs(np.abs(w) - 1.0)) > 1e-12:
        out.append("a weight is off the unit circle")
    return out


def small_gram(sig) -> np.ndarray:
    """Dense (1/d) A^H A or (1/d) A A^H, whichever side is smaller, from the edges."""
    a = np.zeros((sig.n_resources, sig.n_users), dtype=complex)
    a[sig.rows, sig.cols] = sig.weights
    if sig.n_users <= sig.n_resources:
        return (a.conj().T @ a) / sig.d
    return (a @ a.conj().T) / sig.d


def rel_dev(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)
