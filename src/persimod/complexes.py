"""
Builders turning geometric or function data into filtered complexes:
Vietoris-Rips and Cech filtrations, sublevel filtrations of
triangulations, cyclic sample complexes and periodic torus grids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import field as ff
from .barcode import UNTAGGED, Bar, Barcode
from .filtered_complex import FilteredComplex, barcode_of_complex

INF = math.inf
MAX_NERVE_CELLS = 5_000_000    # Rips on 300 points to dimension 2 has 4,500,250


@dataclass
class FiniteMetricSpace:
    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")
        if not np.allclose(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix needs a zero diagonal")
        if np.any(d < 0):
            raise ValueError("distances must be nonnegative")
        self.dist = d

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        pts = np.asarray(points, dtype=float)
        # distances past the float range become inf, which __post_init__ rejects
        with np.errstate(over="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            return cls(np.sqrt((diff ** 2).sum(axis=2)))


@dataclass
class PointCloud:
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must be an (n, d) array with d >= 1")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class GridFunction:
    """Samples of a function on a regular grid; values[i, j] is the value
    at (i * period / nx, j * period / ny) of the torus."""

    values: np.ndarray
    period: float = 2 * math.pi

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("grid values must be 2-dimensional")
        if (bad := np.argwhere(~np.isfinite(v))).size:
            raise ValueError(f"vertex {tuple(bad[0].tolist())} has the non-finite value "
                             f"{v[tuple(bad[0])]}")
        self.values = v

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]


@dataclass
class Triangulation:
    """Abstract simplicial complex, closed under taking faces."""

    simplices: list[tuple]

    def __post_init__(self):
        for s in self.simplices:
            if len(set(s)) != len(s):
                raise ValueError(f"simplex {tuple(s)} repeats a vertex")
        have = {tuple(sorted(s)) for s in self.simplices}
        closed = set(have)
        for s in have:
            for r in range(1, len(s)):
                closed.update(itertools.combinations(s, r))
        self.simplices = sorted(closed, key=lambda s: (len(s), s))

    def vertices(self) -> list:
        return sorted({v for s in self.simplices for v in s})


def _repr_rank(labels: Sequence) -> np.ndarray:
    """rank[v]: the place of repr(labels[v]) among the labels' reprs."""
    return np.argsort(sorted(range(len(labels)), key=[repr(x) for x in labels].__getitem__))


def _first_max(columns) -> np.ndarray:
    """Elementwise max of the columns that keeps the first of equal maxima,
    as Python's max does; np.maximum would keep the last of -0.0 and 0.0."""
    return functools.reduce(lambda out, col: np.where(col > out, col, out), columns)


def _nerve(n: int, max_dim: int, own, p: int) -> FilteredComplex:
    """Every vertex subset of size <= max_dim + 1, entering at the max of
    its facets' values and own(rows of subsets); vertices enter at 0."""
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    top = min(max_dim, n - 1)    # no subset has more than n vertices
    count = sum(math.comb(n, k + 1) for k in range(top + 1))
    if count > MAX_NERVE_CELLS:
        raise ValueError(f"{count} simplices on {n} points up to dimension {max_dim} "
                         f"exceed the limit of {MAX_NERVE_CELLS}")
    # in lexicographic order: each row of the size below, then each vertex above its last
    subsets = [np.arange(n)[:, None]]
    for _ in range(top):
        rows = subsets[-1]
        more = n - 1 - rows[:, -1]
        last = np.arange(more.sum()) + np.repeat(rows[:, -1] + 1 - (np.cumsum(more) - more), more)
        subsets.append(np.column_stack([np.repeat(rows, more, axis=0), last]))

    def value(k, facet_values):
        return _first_max([*facet_values.T, own(subsets[k])]) if k else np.zeros(n)

    return FilteredComplex._of_simplices(range(n), _repr_rank(range(n)), subsets, value, p)


def _lower_star(labels: Sequence, rank, simplices: list, vertex_values, p: int) -> FilteredComplex:
    """Each simplex enters at the max of its vertex values over its sorted
    row, as a Triangulation's sorted simplex would; simplices[k] holds the
    degree-k ones as rows of vertex indices into labels, in any order.
    rank is as for FilteredComplex._of_simplices."""
    vv = np.array(vertex_values, dtype=float)
    if (bad := np.flatnonzero(~np.isfinite(vv))).size:
        raise ValueError(f"vertex {labels[bad[0]]!r} has the non-finite value {vv[bad[0]]}")
    rows = [np.sort(given, axis=1) for given in simplices]
    return FilteredComplex._of_simplices(labels, rank, rows,
                                         lambda k, _: _first_max(vv[rows[k]].T), p)


def rips_complex(x: FiniteMetricSpace, max_dim: int,
                 p: int = ff.DEFAULT_P) -> FilteredComplex:
    """Flag complex with entry value the simplex diameter (vertices at 0);
    a simplex is present at parameter t exactly when t exceeds its value."""
    # the facets already carry every other pair, so a simplex only adds
    # the distance between its first and last vertex
    return _nerve(x.n, max_dim, lambda rows: x.dist[rows[:, 0], rows[:, -1]], p)


def drop_top_degree(b: Barcode, max_dim: int) -> Barcode:
    """Remove bars of degree >= max_dim.

    Homology in the truncation dimension of a dimension-capped complex is
    an artifact of the missing higher cells, so pipelines report only the
    degrees below it.
    """
    return b._take(np.flatnonzero((b.degrees < max_dim) | (b.degrees == UNTAGGED)))


def rips_barcode(x: FiniteMetricSpace, max_dim: int,
                 p: int = ff.DEFAULT_P) -> Barcode:
    """Degree-tagged Rips barcode in degrees 0 .. max_dim-1."""
    return drop_top_degree(barcode_of_complex(rips_complex(x, max_dim, p)), max_dim)


def cech_barcode(cloud: PointCloud, max_dim: int,
                 p: int = ff.DEFAULT_P) -> Barcode:
    """Degree-tagged Cech barcode in degrees 0 .. max_dim-1."""
    return drop_top_degree(barcode_of_complex(cech_complex(cloud, max_dim, p)), max_dim)


def meb_radius(points) -> float:
    """Exact minimal enclosing ball radius of up to dim+1 points in R^d,
    d <= 4, by exhausting boundary-support subsets."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    n, dim = pts.shape
    if dim > 4:
        raise ValueError("minimal enclosing ball supported up to dimension 4")
    # the slack absorbs rounding in the circumcenter solve, which grows
    # with the size of the coordinates
    slack = 1e-12 * max(1.0, float(np.abs(pts).max(initial=0.0)))
    best = INF
    # squares past the float range become inf or nan, and fail the test
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, min(n, dim + 1) + 1):
            for support in itertools.combinations(range(n), r):
                center = _circumcenter(pts[list(support)])
                if center is None:
                    continue
                radius = float(np.linalg.norm(pts[list(support)[0]] - center))
                if np.all(np.linalg.norm(pts - center, axis=1) <= radius + slack):
                    best = min(best, radius)
    if not math.isfinite(best):
        raise ValueError("enclosing ball radii must be finite")
    return best


def _circumcenter(pts: np.ndarray) -> Optional[np.ndarray]:
    """Center equidistant from all pts, inside their affine hull."""
    p0 = pts[0]
    if len(pts) == 1:
        return p0
    a = pts[1:] - p0
    g = 2.0 * (a @ a.T)
    b = (a * a).sum(axis=1)
    try:
        t = np.linalg.solve(g, b)
    except np.linalg.LinAlgError:
        return None
    return p0 + t @ a


def cech_complex(cloud: PointCloud, max_dim: int,
                 p: int = ff.DEFAULT_P) -> FilteredComplex:
    """Nerve of balls of radius t/2: entry value of a simplex is twice the
    minimal enclosing ball radius of its vertices."""
    pts = cloud.points
    return _nerve(cloud.n, max_dim,
                  lambda rows: np.array([2.0 * meb_radius(pts[s]) for s in rows]), p)


def log2_rescale(b: Barcode) -> Barcode:
    """log2 of every endpoint; births at 0 become -inf (proper bars)."""
    out = []
    for bar in b.bars:
        if bar.birth < 0 and bar.birth != -INF:
            raise ValueError("log rescale needs nonnegative births")
        if bar.death <= 0:
            raise ValueError("log rescale needs positive deaths")
        birth = -INF if bar.birth in (0.0, -INF) else math.log2(bar.birth)
        death = INF if bar.death == INF else math.log2(bar.death)
        out.append(Bar(birth, death, bar.degree))
    return Barcode(out)


def sublevel_filtration(t: Triangulation, vertex_values: dict,
                        p: int = ff.DEFAULT_P) -> FilteredComplex:
    """Lower-star extension u(sigma) = max of the vertex values."""
    labels = t.vertices()
    missing = [v for v in labels if v not in vertex_values]
    if missing:
        raise ValueError(f"missing values for vertices {missing}")
    index = {v: i for i, v in enumerate(labels)}
    # t.simplices run by size, so each group is one degree
    simplices = [np.array([[index[v] for v in s] for s in same])
                 for _, same in itertools.groupby(t.simplices, len)]
    return _lower_star(labels, _repr_rank(labels), simplices, [vertex_values[v] for v in labels], p)


def circle_complex(samples: Sequence[float], p: int = ff.DEFAULT_P) -> FilteredComplex:
    """Cyclic graph on the samples: vertex values as given, each edge at
    the max of its endpoints."""
    n = len(samples)
    if n < 3:
        raise ValueError("need at least 3 cyclic samples")
    i = np.arange(n)
    return _lower_star(range(n), _repr_rank(range(n)),
                       [i[:, None], np.stack([i, (i + 1) % n], axis=1)],
                       [float(x) for x in samples], p)


def _torus_squares(nx: int, ny: int):
    """The vertex labels (i, j) of the periodic nx x ny grid, and as
    indices i * ny + j into them the corners a, b, c, d = (i, j),
    (i+1, j), (i, j+1), (i+1, j+1) of every square."""
    a = np.arange(nx * ny).reshape(nx, ny)
    b, c = np.roll(a, -1, axis=0), np.roll(a, -1, axis=1)
    return ([(i, j) for i in range(nx) for j in range(ny)],
            [v.ravel() for v in (a, b, c, np.roll(b, -1, axis=1))])


def torus_grid_complex(g: GridFunction, p: int = ff.DEFAULT_P) -> FilteredComplex:
    """Periodic grid triangulated with the fixed lower-left-to-upper-right
    diagonal; lower-star values."""
    nx, ny = g.nx, g.ny
    if nx < 4 or ny < 4:
        raise ValueError("grid too small; need at least 4x4")
    labels, (a, b, c, d) = _torus_squares(nx, ny)
    edges = np.concatenate([np.stack(e, axis=1) for e in ((a, b), (a, c), (a, d))])
    triangles = np.concatenate([np.stack(t, axis=1) for t in ((a, b, d), (a, c, d))])
    # repr((i, j)) orders like (str(i), str(j)): "," and ")" sort below the digits
    rank = (_repr_rank(range(nx))[:, None] * ny + _repr_rank(range(ny))).ravel()
    return _lower_star(labels, rank, [a[:, None], edges, triangles], g.values.ravel(), p)


def oscillation(t: Triangulation, vertex_values: dict) -> float:
    """Largest spread of the values over a (maximal) simplex."""
    spread = 0.0
    for s in t.simplices:
        vals = [vertex_values[v] for v in s]
        spread = max(spread, max(vals) - min(vals))
    return spread


def grid_triangulation(g: GridFunction) -> tuple[Triangulation, dict]:
    """The torus grid as a Triangulation plus its vertex values."""
    labels, (a, b, c, d) = _torus_squares(g.nx, g.ny)
    tris = [tuple(labels[v] for v in t) for corners in ((a, b, d), (a, c, d))
            for t in np.stack(corners, axis=1).tolist()]
    values = {(i, j): float(g.values[i, j]) for i in range(g.nx) for j in range(g.ny)}
    return Triangulation(tris), values


# ---------------------------------------------------------------------------
# small geometric constructions used across tests and the CLI


def regular_polygon_points(n: int) -> np.ndarray:
    """Vertices of a regular n-gon with unit side length."""
    radius = 1.0 / (2 * math.sin(math.pi / n))
    ang = 2 * math.pi * np.arange(n) / n
    return np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)


def tree_metric_net(rng, n_edges: int = 6, max_len: float = 2.0,
                    spacing: float = 0.35) -> tuple[FiniteMetricSpace, float]:
    """A finite net on a random metric tree.

    Edges of random length are attached to random existing nodes and
    subdivided at most `spacing` apart, so the returned point set is
    spacing/2-dense in the tree.  Returns the net and its density radius.
    """
    # nodes: positions on the tree encoded by (parent, offset along edge)
    dist = np.zeros((1, 1))
    points_per_edge: list[list[int]] = []
    for _ in range(n_edges):
        attach = rng.randrange(dist.shape[0])
        length = rng.uniform(0.5, max_len)
        n_sub = max(1, int(math.ceil(length / spacing)))
        step = length / n_sub
        base = dist.shape[0]
        m = dist.shape[0] + n_sub
        new = np.zeros((m, m))
        new[:base, :base] = dist
        for t in range(1, n_sub + 1):
            idx = base + t - 1
            off = t * step
            for other in range(base):
                new[idx, other] = new[other, idx] = dist[attach, other] + off
            for t2 in range(1, t):
                idx2 = base + t2 - 1
                new[idx, idx2] = new[idx2, idx] = (t - t2) * step
        dist = new
    return FiniteMetricSpace(dist), spacing / 2


# ---------------------------------------------------------------------------
# CSV ingestion


def parse_point_cloud(text: str) -> PointCloud:
    rows = []
    width = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(tok) for tok in line.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"line {ln}: not a number row: {raw!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {ln}: non-finite value: {raw!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"line {ln}: expected {width} coordinates, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError("empty point-cloud file")
    return PointCloud(np.array(rows))


def parse_distance_matrix(text: str) -> FiniteMetricSpace:
    cloud = parse_point_cloud(text)
    m = cloud.points
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"distance matrix must be square, got {m.shape}")
    return FiniteMetricSpace(m)


def parse_grid(text: str) -> GridFunction:
    cloud = parse_point_cloud(text)
    # rows of the file run along y; transpose so values[i, j] = f(x_i, y_j)
    return GridFunction(cloud.points.T.copy())
