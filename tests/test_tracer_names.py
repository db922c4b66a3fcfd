"""Every name the benchmark tracer wraps exists in a form it can wrap.

``perfbench/tracer.py`` patches the functions listed in its ``SPANS`` and
``COUNTS`` by name.  A renamed function, or a method turned into a property,
would break a traced run or silently count the wrong thing, so the names are
checked here against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
WRAPPED = [(module, attr) for module, attr, _ in _tracer.SPANS + _tracer.COUNTS]


@pytest.mark.parametrize("module, attr", WRAPPED,
                         ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_is_a_function(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = vars(getattr(mod, cls_name))[meth]
        if isinstance(raw, classmethod):
            raw = raw.__func__
    else:
        raw = getattr(mod, attr)
    assert inspect.isfunction(raw), f"{module}.{attr} is {type(raw).__name__}"
