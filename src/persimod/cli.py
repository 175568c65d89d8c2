"""
Command-line front end: pipeline commands emitting barcode JSON (and
optional SVG), distance and invariant queries, and scenario reproduction.

Exit codes: 0 success, 1 input error, 2 assertion/acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .barcode import Bar, Barcode, beta_k, boundary_depth, bottleneck_distance, \
    ell, infinite_endpoint_spectrum, multiplicity_function, mu_odd, nu
from .complexes import (FiniteMetricSpace, Triangulation, cech_barcode,
                        circle_complex, parse_distance_matrix, parse_grid,
                        parse_point_cloud, rips_barcode, sublevel_filtration,
                        torus_grid_complex)
from .filtered_complex import barcode_of_complex
from .reproduce import SCENARIOS, run_scenario
from .serialize import barcode_to_dict, load_barcode
from .svg import barcode_to_svg


MAX_WINDOW_POINTS = 100_000    # rows of the ellipsoid table


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _emit(bc: Barcode, args) -> None:
    payload = json.dumps(barcode_to_dict(bc), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(barcode_to_svg(bc))


def _cmd_rips(args) -> int:
    text = _read(args.input)
    if args.distance_matrix:
        space = parse_distance_matrix(text)
    else:
        space = FiniteMetricSpace.from_points(parse_point_cloud(text).points)
    _emit(rips_barcode(space, args.max_dim, args.field), args)
    return 0


def _cmd_cech(args) -> int:
    cloud = parse_point_cloud(_read(args.input))
    _emit(cech_barcode(cloud, args.max_dim, args.field), args)
    return 0


def _cmd_sublevel(args) -> int:
    simplices = []
    for ln, raw in enumerate(_read(args.input).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        simplices.append(tuple(line.split()))
    values_rows = parse_point_cloud(_read(args.values))
    flat = values_rows.points.reshape(-1)
    vertices = sorted({v for s in simplices for v in s})
    if len(flat) != len(vertices):
        raise InputError(f"{len(vertices)} vertices but {len(flat)} values")
    vert_values = dict(zip(vertices, flat.tolist()))
    tri = Triangulation(simplices)
    _emit(barcode_of_complex(sublevel_filtration(tri, vert_values, args.field)), args)
    return 0


def _cmd_circle(args) -> int:
    samples = parse_point_cloud(_read(args.input)).points.reshape(-1)
    _emit(barcode_of_complex(circle_complex(samples.tolist(), args.field)), args)
    return 0


def _cmd_torus(args) -> int:
    grid = parse_grid(_read(args.input))
    _emit(barcode_of_complex(torus_grid_complex(grid, args.field)), args)
    return 0


def _cmd_distance(args) -> int:
    b1 = load_barcode(args.barcode1)
    b2 = load_barcode(args.barcode2)
    d = bottleneck_distance(b1, b2)
    print("inf" if d == math.inf else f"{d:.12g}")
    return 0


def _cmd_invariants(args) -> int:
    bc = load_barcode(args.barcode)
    report: dict = {"bars": len(bc.bars)}
    report["boundary_depth"] = boundary_depth(bc)
    if args.beta_k:
        report["beta_k"] = {k: beta_k(bc, k) for k in args.beta_k}
    if args.mu_k:
        report["mu_k"] = {k: multiplicity_function(bc, k) for k in args.mu_k}
    if args.mu_odd:
        report["mu_odd"] = mu_odd(bc)
    if args.ell:
        lo, hi = args.ell
        report["ell"] = ell(bc, lo, hi)
    if args.nu is not None:
        report["nu"] = nu(bc, args.nu)
    if args.spectrum:
        report["infinite_endpoint_spectrum"] = infinite_endpoint_spectrum(bc)

    def sanitize(x):
        if isinstance(x, dict):
            return {str(k): sanitize(v) for k, v in x.items()}
        if isinstance(x, list):
            return [sanitize(v) for v in x]
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x

    print(json.dumps(sanitize(report), indent=1))
    return 0


def _cmd_ellipsoid(args) -> int:
    from .symplectic import DegeneratePathError, EllipsoidSpec, \
        ellipsoid_sh_degree, sbm_lower_bound
    spec = EllipsoidSpec(1.0, args.aspect, args.n)
    other = None if args.compare is None else EllipsoidSpec(*args.compare, args.n)
    lo, hi, step = args.window
    if not all(map(math.isfinite, args.window)) or lo <= 0 or step <= 0 or hi <= lo:
        raise InputError("window grid must be finite lo hi step with 0 < lo < hi and step > 0")
    if lo + step == lo:
        raise InputError(f"window step {step:g} does not advance from {lo:g}")
    span = (hi + 1e-12 - lo) / step
    if not span < MAX_WINDOW_POINTS:
        raise InputError(f"window grid has more than {MAX_WINDOW_POINTS} points")
    print(f"# degrees for E(1, {args.aspect:g}, ..) in complex dimension {args.n}")
    print("# a degree")
    for i in range(math.floor(span) + 1):
        a = lo + i * step
        try:
            print(f"{a:.6g} {ellipsoid_sh_degree(a, args.n, args.aspect)}")
        except DegeneratePathError:
            print(f"{a:.6g} spectral")
    if other is not None:
        d = sbm_lower_bound(spec, other)
        print(f"# rescaling lower bound vs E({other.r:g}, {other.r * other.N:g}, ..): {d:.12g}")
    return 0


def _cmd_reproduce(args) -> int:
    if not 0 <= args.slack < math.inf:
        raise InputError("slack must be finite and >= 0")
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    failed = 0
    for name in names:
        try:
            result = run_scenario(name, seed=args.seed, slack=args.slack / 100.0)
        except KeyError as e:
            raise InputError(str(e)) from None
        print(result.report())
        failed += 0 if result.passed else 1
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="persimod",
        description="Barcodes of filtered complexes and persistence-module machinery.")
    sub = ap.add_subparsers(dest="command", required=True)

    def pipeline(p, dims=False):
        p.add_argument("--field", type=int, default=2, metavar="P",
                       help="prime field characteristic (default 2)")
        if dims:
            p.add_argument("--max-dim", type=int, default=2, metavar="K",
                           help="maximum simplex dimension (default 2)")
        p.add_argument("--out", metavar="PATH", help="write barcode JSON here")
        p.add_argument("--svg", metavar="PATH", help="also render an SVG")

    p = sub.add_parser("rips", help="Rips barcode of a point cloud or distance matrix")
    p.add_argument("input")
    p.add_argument("--distance-matrix", action="store_true",
                   help="treat the input as an n x n distance matrix")
    pipeline(p, dims=True)
    p.set_defaults(fn=_cmd_rips)

    p = sub.add_parser("cech", help="Cech barcode of a low-dimensional point cloud")
    p.add_argument("input")
    pipeline(p, dims=True)
    p.set_defaults(fn=_cmd_cech)

    p = sub.add_parser("sublevel", help="sublevel barcode of a triangulation")
    p.add_argument("input", help="file with one maximal simplex per line (vertex names)")
    p.add_argument("--values", required=True,
                   help="CSV of vertex values, sorted by vertex name")
    pipeline(p)
    p.set_defaults(fn=_cmd_sublevel)

    p = sub.add_parser("circle", help="barcode of cyclic samples")
    p.add_argument("input", help="CSV of sample values")
    pipeline(p)
    p.set_defaults(fn=_cmd_circle)

    p = sub.add_parser("torus", help="sublevel barcode of a periodic grid")
    p.add_argument("input", help="grid CSV: ny lines of nx values")
    pipeline(p)
    p.set_defaults(fn=_cmd_torus)

    p = sub.add_parser("distance", help="bottleneck distance of two barcode files")
    p.add_argument("barcode1")
    p.add_argument("barcode2")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("invariants", help="scalar invariants of a barcode file")
    p.add_argument("barcode")
    p.add_argument("--beta-k", type=int, nargs="*", default=[], metavar="K")
    p.add_argument("--mu-k", type=int, nargs="*", default=[], metavar="K")
    p.add_argument("--mu-odd", action="store_true")
    p.add_argument("--ell", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--nu", type=float, metavar="C")
    p.add_argument("--spectrum", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("ellipsoid", help="filtered-homology degree table of a round ellipsoid")
    p.add_argument("--n", type=int, default=1, help="complex dimension")
    p.add_argument("--aspect", type=float, default=1.0, help="aspect ratio N")
    p.add_argument("--window", type=float, nargs=3, default=[0.5, 4.5, 1.0],
                   metavar=("LO", "HI", "STEP"), help="grid of window values a")
    p.add_argument("--compare", type=float, nargs=2, metavar=("R", "N"),
                   help="also print the rescaling lower bound vs E(r, rN, ..)")
    p.set_defaults(fn=_cmd_ellipsoid)

    p = sub.add_parser("reproduce", help="run a named worked-example scenario")
    p.add_argument("name", help="scenario name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slack", type=float, default=5.0, metavar="PCT",
                   help="tolerance percentage for inequality scenarios")
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as e:
        # an input too large for this process is an input error, not a crash
        print(f"error: input too large ({type(e).__name__})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
