"""Every function and method that perfbench/tracing.py patches exists in
picardlab, so deleting a traced name fails here as well as in the traced
benchmark run; and the CLI loads every module the tracer patches, while the
package and a leaf module load nothing more than themselves."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import picardlab

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


def _loaded_after(statement):
    """The picardlab modules in sys.modules after a fresh interpreter runs statement."""
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m[:10] == 'picardlab.'))"
    env = dict(os.environ, PYTHONPATH=str(Path(picardlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return ast.literal_eval(result.stdout)


def test_each_import_loads_only_what_it_needs():
    assert _loaded_after("import picardlab") == []
    assert _loaded_after("import picardlab.polynomials") == ["picardlab.polynomials"]
    # The tracer looks up sys.modules["picardlab.<module>"] for every name it
    # patches, so the CLI must load each of those modules before any command.
    tracing = _tracing()
    traced = {f"picardlab.{t[1]}" for t in (*tracing.FUNCTIONS, *tracing.METHODS)}
    assert traced <= set(_loaded_after("import picardlab.cli"))
