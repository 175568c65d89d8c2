"""The benchmark's workloads call library names and its tracer wraps
library callables by name and counts from their outputs; a rename or
deletion in the library would break `perfbench/run.py` without failing
any test here, so check every name they use is still defined where they
look, and that the tracer's counters still read the outputs."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from persimod import field
from persimod.complexes import FiniteMetricSpace, rips_complex
from persimod.filtered_complex import (Cell, FilteredComplex, barannikov_reduce,
                                       barcode_of_complex)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_every_library_name_the_benchmark_uses_exists():
    used = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}    # local name -> persimod module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("persimod"):
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(owner, alias.name), \
                        f"{path.name}: {node.module}.{alias.name} is gone"
                    value = getattr(owner, alias.name)
                    if isinstance(value, types.ModuleType):
                        modules[alias.asname or alias.name] = value
                    used += 1
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = modules[node.value.id]
                assert hasattr(module, node.attr), \
                    f"{path.name}: {module.__name__}.{node.attr} is gone"
                used += 1
    assert used > 20


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
    hand_made = FilteredComplex(
        [Cell("v", 0, 0.0), Cell("w", 0, 1.0), Cell("e", 1, 2.0), Cell("f", 1, 2.0)],
        {"e": {"v": 1, "w": 2}, "f": {"w": 1, "v": 2}}, 3)
    for complex_ in (c, hand_made):
        jp = barannikov_reduce(complex_)
        assert list(jp.order) == list(jp.values) == list(range(complex_.max_degree + 1))
        for k in jp.order:
            cells = complex_.cells_of_degree(k)
            assert jp.order[k] == [cell.id for cell in cells]
            assert jp.values[k] == [cell.value for cell in cells]
