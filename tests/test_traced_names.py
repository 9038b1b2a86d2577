"""Every name that perfbench/tracer.py wraps still resolves in hesslab.

The tracer records a missing name instead of failing, so deleting a traced
function would otherwise show only in perfbench/selftest.py.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr, span", tracer.FUNCTIONS,
                         ids=[span for *_, span in tracer.FUNCTIONS])
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr, span", tracer.METHODS,
                         ids=[span for *_, span in tracer.METHODS])
def test_traced_method_resolves(module, cls, attr, span):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(vars(owner).get(attr))
