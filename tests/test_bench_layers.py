"""The bench tracer wraps esnlab's public functions by name, so a rename or a
deletion in esnlab would break ``bench/run.py --trace 1`` silently."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_its_layer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"esnlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"esnlab.{layer}.{name}"
