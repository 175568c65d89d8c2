"""The benchmark's tracer wraps library callables by name and counts from
their outputs; a rename in the library would break `perfbench/run.py
--trace 1` without failing any test here, so check every name it wraps is
still defined where it looks, and that its counters still read the
outputs."""

import importlib.util
from pathlib import Path

import numpy as np

from persimod import field
from persimod.complexes import FiniteMetricSpace, rips_complex
from persimod.filtered_complex import FilteredComplex, barannikov_reduce, barcode_of_complex

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


def test_counters_read_the_traced_outputs():
    tracer = load_tracer()
    space = FiniteMetricSpace.from_points(np.random.default_rng(0).normal(size=(8, 2)))
    c = rips_complex(space, 2)
    jp, bc = barannikov_reduce(c), barcode_of_complex(c)
    cells = tracer._count_cells((space, 2), c)
    assert cells.pop("complexes.cells") == c.n_cells() == sum(cells.values())
    counts = tracer._count_pairs((c,), jp)
    assert counts["filtered_complex.pairs"] == sum(map(len, jp.pairing.values())) > 0
    assert counts["filtered_complex.pairs"] <= counts["filtered_complex.columns"] <= c.n_cells()
    assert tracer._count_bars((c,), bc) == {"filtered_complex.bars": len(bc.finite_bars())}
    assert tracer._reduce_metric((c,)) == "filtered_complex.reduce_gf2_s"
