"""The traced benchmark run wraps functions by name; a rename in ``src/``
would break only that run, so every traced name must resolve here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr in tracing.TRACED:
        target = importlib.import_module(f"chernforms.{module_name}")
        for name in attr.split("."):
            assert hasattr(target, name), f"chernforms.{module_name}.{attr}"
            target = getattr(target, name)
        assert callable(target), f"chernforms.{module_name}.{attr}"
        assert module_name in tracing.LAYERS
