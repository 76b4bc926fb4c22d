"""Names that tools outside the package look up in it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_perfbench_traced_names_resolve():
    # the benchmark's tracer wraps these (module, attribute) pairs where
    # callers look them up; a name deleted here would only fail a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.WRAPPED
    assert missing == []
