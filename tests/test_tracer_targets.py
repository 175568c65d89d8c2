"""The benchmark's tracer wraps library callables by name; a rename in the
library would break `perfbench/run.py --trace 1` without failing any test
here, so check every name it wraps is still defined where it looks."""

import importlib.util
from pathlib import Path

from persimod import field
from persimod.filtered_complex import FilteredComplex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_exists():
    tracer = load_tracer()
    wrapped = {(owner, attr) for owner, attr, _, _ in tracer.TARGETS}
    assert (FilteredComplex, "__post_init__") in wrapped
    assert (FilteredComplex, "cells_of_degree") in wrapped
    assert {(field, name) for name in tracer.FIELD_FUNCS} <= wrapped
    for owner, attr in wrapped:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
