"""Every function and method that perfbench/tracing.py patches exists in
picardlab, so deleting a traced name fails here as well as in the traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for span, module, attr in tracing.FUNCTIONS:
        owner = importlib.import_module(f"picardlab.{module}")
        assert callable(getattr(owner, attr, None)), (span, module, attr)
    for span, module, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(f"picardlab.{module}"), cls_name, None)
        # The tracer patches the class's own attribute, not an inherited one.
        assert isinstance(cls, type) and attr in vars(cls), (span, module, cls_name, attr)
