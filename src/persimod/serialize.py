"""
JSON schema for barcodes, the universal interchange format.
"""

from __future__ import annotations

import json
import math

from .barcode import Bar, Barcode, check_degree

INF = math.inf


def _num_out(x: float):
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    # 17 significant digits round-trip any double exactly
    return float(f"{x:.17g}")


def _num_in(x) -> float:
    if x == "inf":
        return INF
    if x == "-inf":
        return -INF
    # JSON true/false load as bool, which is an int subclass
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"not a number: {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("number out of the float range") from None


def barcode_to_dict(b: Barcode) -> dict:
    return {"bars": [{"birth": _num_out(bar.birth),
                      "death": _num_out(bar.death),
                      "degree": bar.degree} for bar in sorted(b.bars)]}


def barcode_from_dict(d: dict) -> Barcode:
    if not isinstance(d, dict) or "bars" not in d or not isinstance(d["bars"], list):
        raise ValueError('barcode JSON must be {"bars": [...]}')
    bars = []
    for i, rec in enumerate(d["bars"]):
        if not isinstance(rec, dict) or "birth" not in rec or "death" not in rec:
            raise ValueError(f"bar {i}: need birth and death")
        degree = rec.get("degree")
        check_degree(i, degree)
        bars.append(Bar(_num_in(rec["birth"]), _num_in(rec["death"]), degree))
    return Barcode(bars)


def dump_barcode(b: Barcode, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(barcode_to_dict(b), fh, indent=1)
        fh.write("\n")


def load_barcode(path: str) -> Barcode:
    with open(path) as fh:
        return barcode_from_dict(json.load(fh))
