"""The names the benchmark's tracer wraps stay importable.

perfbench/tracing.py replaces module attributes such as
``auxsel.loocv.warm_fit_b`` with timing wrappers, and fails at install
when one is gone.  This test reads its tables from the checkout, as they
are, so a refactor that removes a wrapped name fails here first.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    sites = [site for sites in tracing.SPANS.values() for site in sites]
    sites += list(tracing.COUNTED.values())
    assert sites
    missing = [f"auxsel.{module}.{attr}" for module, attr in sites
               if not callable(getattr(importlib.import_module(f"auxsel.{module}"), attr, None))]
    assert not missing, missing
