"""The functions the benchmark's tracer wraps by name exist, and its undo puts every original back.

perfbench/spans.py names package functions as strings, so a rename in the
package breaks every traced benchmark run but no other test.
"""

import importlib.util
import sys
from pathlib import Path

import sparse_noma.cli  # noqa: F401  (imports every layer the tracer wraps)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    """id of every name bound in a loaded sparse_noma module and of each wrapped method, by (owner, name)."""
    out = {
        (mod_name, attr): id(value)
        for mod_name, module in list(sys.modules.items())
        if mod_name.startswith("sparse_noma.") and module
        for attr, value in vars(module).items()
    }
    montecarlo = sys.modules["sparse_noma.montecarlo"]
    for cls_name, meth in spans.METHODS.values():
        out[(cls_name, meth)] = id(vars(getattr(montecarlo, cls_name))[meth])
    return out


def test_instrument_wraps_every_name_and_restore_puts_the_originals_back():
    spans = load_spans()
    before = bindings(spans)
    restore = spans.instrument(spans.Tracer())
    try:
        during = bindings(spans)
        for span_name in spans.FUNCTIONS:
            mod_name, attr = span_name.split(".")
            assert during[(f"sparse_noma.{mod_name}", attr)] != before[(f"sparse_noma.{mod_name}", attr)]
        for cls_name, meth in spans.METHODS.values():
            assert during[(cls_name, meth)] != before[(cls_name, meth)]
        assert during[("sparse_noma.checks", "CHECKS")] != before[("sparse_noma.checks", "CHECKS")]
    finally:
        restore()
    assert bindings(spans) == before
