"""The benchmark's tracer names pqcent functions by string; each must exist.

`perfbench/run.py` only warns when a traced name is missing, so a renamed
or deleted function would silently drop its per-layer figures.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pqcent.verify import CHECK_IDS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr, name", tracing.FUNCTIONS,
                         ids=[name for *_, name in tracing.FUNCTIONS])
def test_traced_functions_exist(module, attr, name):
    assert callable(getattr(importlib.import_module(f"pqcent.{module}"),
                            attr, None)), name


@pytest.mark.parametrize("module, cls, meth, name", tracing.METHODS,
                         ids=[name for *_, name in tracing.METHODS])
def test_traced_methods_exist(module, cls, meth, name):
    # the tracer patches the method on the class itself
    owner = getattr(importlib.import_module(f"pqcent.{module}"), cls)
    assert meth in owner.__dict__, name


def test_traced_check_ids_exist():
    assert set(tracing.VERIFY_IDS) <= set(CHECK_IDS)
