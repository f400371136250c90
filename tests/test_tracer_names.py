"""The benchmark tracer patches program functions by name; every name must exist.

``perfbench/tracing.py`` lists in ``LAYERS`` each (module, attribute) it
replaces during a traced run.  A rename in the program that leaves a stale
entry there would crash traced benchmark runs, which this suite does not
otherwise exercise, so the names are checked here.  The tracer file is only
loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.LAYERS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
