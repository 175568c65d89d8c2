"""Outside-in span recorder for persimod's layers.

`Tracer.install()` replaces public callables of the library with wrappers
that record a span (callable name, start, end, parent span, op id) and a
few counts taken from the arguments and the result.  Nothing in `src/` is
edited: every module-level binding of a wrapped function in the loaded
`persimod` modules is swapped for the wrapper (that catches
`from .x import f` copies and the re-exports), and the two methods are
swapped on the class.  `restore()` puts the originals back.

A layer's self time is a span's duration minus the time covered by its
child spans.  Field calls made inside another field call (`rank` calling
`row_echelon`) are not recorded, so the field metrics attribute time to the
outermost call.  Scalar helpers (`inv_mod`, `zeros`, `eye`) are not wrapped:
they run inside every column addition and would cost more to record than
they take.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from persimod import barcode, complexes, field, filtered_complex, module_rep

# per-layer metrics in report order; "_s" metrics are summed self time
LAYER_METRICS = (
    "complexes.build_s", "complexes.cells", "complexes.cells_d0",
    "complexes.cells_d1", "complexes.cells_d2",
    "filtered_complex.validate_s", "filtered_complex.order_s",
    "filtered_complex.reduce_gf2_s", "filtered_complex.reduce_fp_s",
    "filtered_complex.extract_s", "filtered_complex.columns",
    "filtered_complex.pairs", "filtered_complex.pivot_ratio",
    "filtered_complex.bar_yield", "filtered_complex.homology_module_s",
    "field.rank_s", "field.kernel_basis_s", "field.solve_s", "field.other_s",
    "field.calls", "field.entries",
    "module_rep.barcode_s", "module_rep.interleaving_s",
    "barcode.bottleneck_s", "barcode.candidates_s", "barcode.candidates",
    "barcode.mu_s", "barcode.mu_endpoints", "barcode.query_s",
    "trace.overhead_frac",
)

FIELD_TIMERS = {"rank": "field.rank_s", "kernel_basis": "field.kernel_basis_s",
                "solve": "field.solve_s"}
FIELD_FUNCS = ("matmul", "row_echelon", "rank", "in_span", "kernel_basis",
               "column_space_basis", "solve", "coordinates_in_basis")


# counters take (args, result) and return {metric: amount}


def _count_cells(args, c) -> dict:
    out = {f"complexes.cells_d{k}": n
           for k, n in Counter(cell.degree for cell in c.cells).items()}
    out["complexes.cells"] = len(c.cells)
    return out


def _count_pairs(args, jp) -> dict:
    return {"filtered_complex.columns": sum(len(ids) for k, ids in jp.order.items() if k > 0),
            "filtered_complex.pairs": sum(len(m) for m in jp.pairing.values())}


def _count_bars(args, b) -> dict:
    return {"filtered_complex.bars": len(b.finite_bars())}


def _count_entries(args, out) -> dict:
    return {"field.calls": 1, "field.entries": sum(a.size for a in args if hasattr(a, "size"))}


def _count_candidates(args, out) -> dict:
    return {"barcode.candidates": len(out)}


def _count_endpoints(args, out) -> dict:
    return {"barcode.mu_endpoints": len(args[0].finite_endpoints())}


def _reduce_metric(args) -> str:
    return "filtered_complex.reduce_gf2_s" if args[0].p == 2 else "filtered_complex.reduce_fp_s"


# (owner, attribute, self-time metric or a function of the arguments, counter)
TARGETS = [
    (complexes, "torus_grid_complex", "complexes.build_s", _count_cells),
    (complexes, "rips_complex", "complexes.build_s", _count_cells),
    (filtered_complex.FilteredComplex, "__post_init__", "filtered_complex.validate_s", None),
    (filtered_complex.FilteredComplex, "cells_of_degree", "filtered_complex.order_s", None),
    (filtered_complex, "barannikov_reduce", _reduce_metric, _count_pairs),
    (filtered_complex, "barcode_of_complex", "filtered_complex.extract_s", _count_bars),
    (filtered_complex, "homology_module", "filtered_complex.homology_module_s", None),
    (barcode, "bottleneck_distance", "barcode.bottleneck_s", None),
    (barcode, "optimal_matching", "barcode.bottleneck_s", None),
    (barcode, "bottleneck_candidates", "barcode.candidates_s", _count_candidates),
    (barcode, "multiplicity_function", "barcode.mu_s", _count_endpoints),
    (barcode, "nu", "barcode.query_s", None),
    (barcode, "ell", "barcode.query_s", None),
    (barcode, "beta_k", "barcode.query_s", None),
    (module_rep, "barcode", "module_rep.barcode_s", None),
    (module_rep, "interleaving_from_matching", "module_rep.interleaving_s", None),
] + [(field, name, FIELD_TIMERS.get(name, "field.other_s"), _count_entries)
     for name in FIELD_FUNCS]


class Tracer:
    def __init__(self):
        # each span: [callable name, start, end, parent index or -1, op id, metric, counts]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, metric, counter):
        spans, stack = self.spans, self._stack
        is_field = isinstance(metric, str) and metric.startswith("field.")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_field and parent >= 0 and spans[parent][5].startswith("field."):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, self.op,
                    metric if isinstance(metric, str) else metric(args), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "persimod" or n.startswith("persimod."))]
        for owner, attr, metric, counter in TARGETS:
            orig = owner.__dict__[attr]
            name = f"{getattr(owner, '__name__', owner)}.{attr}".replace("persimod.", "")
            wrapper = self._wrap(orig, name, metric, counter)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self times and counts summed over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, metric, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter({m: 0 for m in LAYER_METRICS if m != "trace.overhead_frac"})
        for i, (name, start, end, parent, op, metric, counts) in enumerate(self.spans):
            totals[metric] += end - start - child[i]
            if counts:
                totals.update(counts)
        columns = totals["filtered_complex.columns"]
        pairs = totals["filtered_complex.pairs"]
        bars = totals.pop("filtered_complex.bars", 0)
        totals["filtered_complex.pivot_ratio"] = pairs / columns if columns else 0.0
        totals["filtered_complex.bar_yield"] = bars / pairs if pairs else 0.0
        return dict(totals)

    def dump(self) -> list:
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, round(start - t0, 7), round(end - t0, 7), parent, op]
                for name, start, end, parent, op, metric, counts in self.spans]
