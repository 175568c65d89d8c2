import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persimod.cli
import persimod.reproduce
from persimod.barcode import Bar, Barcode, bottleneck_distance
from persimod.cli import main
from persimod.complexes import regular_polygon_points
from persimod.serialize import (barcode_from_dict, barcode_to_dict,
                                dump_barcode, load_barcode)
from persimod.svg import barcode_to_svg

INF = math.inf


def write_hexagon_csv(path):
    pts = regular_polygon_points(6)
    path.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")


def test_json_roundtrip():
    b = Barcode([Bar(0.1, INF, 0), Bar(-INF, 2.25, None), Bar(1 / 3, 2 / 3, 5),
                 Bar(0, 1, 2 ** 31 - 1)])
    assert barcode_from_dict(json.loads(json.dumps(barcode_to_dict(b)))) == b


@pytest.mark.parametrize("degree", [True, False, 1.0, np.int64(1), "1"])
def test_barcode_refuses_degrees_the_loader_refuses(degree):
    # each of them used to reach barcode_to_dict, whose JSON the loader then
    # refused (or json.dumps failed on, for the numpy integer)
    with pytest.raises(ValueError, match="^bar 1: degree must be an integer or null$"):
        Barcode([Bar(0, 1, 0), Bar(0, 1, degree)])


def test_json_schema_errors():
    with pytest.raises(ValueError):
        barcode_from_dict({"nope": []})
    with pytest.raises(ValueError):
        barcode_from_dict({"bars": [{"birth": 0}]})
    with pytest.raises(ValueError):
        barcode_from_dict({"bars": [{"birth": 0, "death": 1, "degree": "x"}]})
    with pytest.raises(ValueError):
        barcode_from_dict({"bars": [{"birth": "oops", "death": 1}]})
    with pytest.raises(ValueError, match="out of the float range"):
        barcode_from_dict({"bars": [{"birth": 10 ** 400, "death": 1}]})
    # JSON booleans are not numbers, though Python's bool is an int
    for bar in ({"birth": False, "death": 1}, {"birth": 0, "death": True},
                {"birth": 0, "death": 1, "degree": True}):
        with pytest.raises(ValueError):
            barcode_from_dict({"bars": [bar]})


@pytest.mark.parametrize("bar, err", [
    ('{"birth": false, "death": true, "degree": true}', "bar 0: degree must be an integer"),
    ('{"birth": false, "death": true}', "not a number: False"),
])
def test_cmd_invariants_rejects_boolean_bars(tmp_path, capsys, bar, err):
    path = tmp_path / "b.json"
    path.write_text('{"bars": [%s]}' % bar)
    assert main(["invariants", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: " + err)


@pytest.mark.parametrize("degree", [10 ** 23, 2 ** 31, -1, -3])
@pytest.mark.parametrize("command", ["invariants", "distance"])
def test_cmd_refuses_degrees_outside_the_array_range(tmp_path, capsys, degree, command):
    # degrees are stored in an int64 array with -1 for "untagged"
    path = tmp_path / "b.json"
    path.write_text('{"bars": [{"birth": 0, "death": 1, "degree": 0}, '
                    '{"birth": 0, "death": 2, "degree": %d}]}' % degree)
    assert main([command] + [str(path)] * (2 if command == "distance" else 1)) == 1
    assert capsys.readouterr().err == (
        f"error: bar 1: degree {degree} is outside 0 .. 2147483647\n")
    with pytest.raises(ValueError, match=f"bar 0: degree {degree} is outside"):
        Barcode([Bar(0, 1, degree)])
    assert Barcode([Bar(0, 1, 2 ** 31 - 1), Bar(0, 1, 0), Bar(0, 1)]).degrees.tolist() \
        == [2 ** 31 - 1, 0, -1]


def test_cmd_rips_hexagon(tmp_path):
    csv = tmp_path / "hexagon.csv"
    write_hexagon_csv(csv)
    out = tmp_path / "barcode.json"
    code = main(["rips", str(csv), "--max-dim", "3", "--out", str(out)])
    assert code == 0
    bc = load_barcode(str(out))
    degrees = sorted(b.degree for b in bc.bars)
    assert degrees == [0, 0, 0, 0, 0, 0, 1, 2]
    deg2 = [b for b in bc.bars if b.degree == 2][0]
    assert abs(deg2.birth - math.sqrt(3)) < 1e-9 and abs(deg2.death - 2) < 1e-9


def test_cmd_rips_rejects_missing_and_bad_files(tmp_path, capsys):
    assert main(["rips", str(tmp_path / "absent.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,numbers\n")
    assert main(["rips", str(bad)]) == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["rips", str(empty)]) == 1


# finite points whose distance overflows have no bad cell to point at
OVERFLOWING_POINTS = "1e300,0\n-1e300,0\n"


@pytest.mark.parametrize("argv, text", [
    (["rips"], "0,0\n1,nan\n0,1\n"),
    (["rips", "--distance-matrix"], "0,1\n1,inf\n"),
    (["torus"], "1,2\n3,NaN\n"),
    (["circle"], "0\nnan\n1\n"),
    (["circle"], "0\n-inf\n1\n"),
    (["rips"], OVERFLOWING_POINTS),
])
def test_cmd_rejects_non_finite_values(tmp_path, capsys, argv, text):
    csv = tmp_path / "in.csv"
    csv.write_text(text)
    assert main([argv[0], str(csv), *argv[1:]]) == 1
    err = "error: distances must be finite\n" if text == OVERFLOWING_POINTS \
        else "error: line 2: non-finite value"
    assert capsys.readouterr().err.startswith(err)


def test_cmd_rips_overflowing_difference_prints_only_the_error(tmp_path):
    # 1e308 - (-1e308) overflows in the subtraction itself, before any square
    csv = tmp_path / "in.csv"
    csv.write_text("1e308 1e308\n-1e308 -1e308\n")
    src = os.path.dirname(os.path.dirname(persimod.cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "persimod.cli", "rips", str(csv)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert proc.stderr == "error: distances must be finite\n"


def test_cmd_cech_overflowing_radius_prints_only_the_error(tmp_path):
    csv = tmp_path / "in.csv"
    csv.write_text("1e200 0\n-1e200 0\n0 1e200\n")
    src = os.path.dirname(os.path.dirname(persimod.cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "persimod.cli", "cech", str(csv)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert proc.stderr == "error: enclosing ball radii must be finite\n"


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_main_reports_resource_errors(monkeypatch, capsys, exc):
    def run_out(args):
        raise exc()
    monkeypatch.setattr(persimod.cli, "_cmd_distance", run_out)
    assert main(["distance", "a.json", "b.json"]) == 1
    assert capsys.readouterr().err == f"error: input too large ({exc.__name__})\n"


def test_cmd_distance(tmp_path, capsys):
    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    dump_barcode(Barcode([Bar(1, 2)]), str(b1))
    dump_barcode(Barcode([Bar(2, 3)]), str(b2))
    assert main(["distance", str(b1), str(b1)]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["distance", str(b1), str(b2)]) == 0
    assert capsys.readouterr().out.strip() == "0.5"
    dump_barcode(Barcode([Bar(0, INF)]), str(b2))
    assert main(["distance", str(b1), str(b2)]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_cmd_distance_many_near_equal_bars(tmp_path, capsys):
    # on 1500 stacked near-equal bars the graph at the floor is dense; the
    # floor, 0.001, is the answer, and each side's greedy start is perfect,
    # so no search runs here (test_barcode's
    # test_search_follows_a_path_as_long_as_the_pool runs a 1500-step one
    # under the same stack limit); the start must cost no cubic time
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    dump_barcode(Barcode([Bar(0.0, 1 + i * 1e-6) for i in range(1500)]), str(b1))
    dump_barcode(Barcode([Bar(1e-3, 1 + 1e-3 + i * 1e-6) for i in range(1500)]), str(b2))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert main(["distance", str(b1), str(b2)]) == 0
    finally:
        sys.setrecursionlimit(old_limit)
    assert capsys.readouterr().out.strip() == "0.001"


def test_cmd_distance_huge_endpoints_print_only_the_distance(tmp_path):
    # 1e308 - (-1e308) overflows to +inf in costs and lengths, which is the
    # right value there; no numpy warning may reach stderr
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    dump_barcode(Barcode([Bar(-1e308, 1e308), Bar(-1e308, INF)]), str(b1))
    dump_barcode(Barcode([Bar(-1e308, 0.5e308), Bar(0.0, INF)]), str(b2))
    src = os.path.dirname(os.path.dirname(persimod.cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "persimod.cli", "distance", str(b1), str(b2)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1e+308\n", "")


def test_cmd_invariants(tmp_path, capsys):
    path = tmp_path / "heart.json"
    dump_barcode(Barcode([Bar(0, INF, 0), Bar(1, 2, 1), Bar(3, INF, 2)]), str(path))
    code = main(["invariants", str(path), "--beta-k", "1", "2",
                 "--mu-k", "1", "--mu-odd", "--ell", "0", "3",
                 "--nu", "0.5", "--spectrum"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["boundary_depth"] == 1
    assert report["beta_k"]["1"] == 1 and report["beta_k"]["2"] == 0
    assert report["nu"] == 1
    assert report["ell"] == 4
    assert report["infinite_endpoint_spectrum"] == [0, 3]


@pytest.mark.parametrize("flag, err", [
    (["--ell", "nan", "nan"], "need lo <= hi"), (["--ell", "0", "nan"], "need lo <= hi"),
    (["--nu", "nan"], "threshold must be >= 0"),
])
def test_cmd_invariants_rejects_nan_flags(tmp_path, capsys, flag, err):
    path = tmp_path / "b.json"
    dump_barcode(Barcode([Bar(0, 1, 0)]), str(path))
    assert main(["invariants", str(path), *flag]) == 1
    out, got = capsys.readouterr()
    assert out == "" and got == f"error: {err}\n"


def test_cmd_circle_and_torus(tmp_path):
    samples = tmp_path / "cos.csv"
    n = 32
    samples.write_text("\n".join(repr(float(v)) for v in np.cos(2 * np.pi * np.arange(n) / n)))
    out = tmp_path / "bc.json"
    assert main(["circle", str(samples), "--out", str(out)]) == 0
    bc = load_barcode(str(out))
    assert sorted(bc.bars) == [Bar(-1, INF, 0), Bar(1, INF, 1)]

    grid = tmp_path / "grid.csv"
    grid.write_text("\n".join(",".join(["1.5"] * 6) for _ in range(6)))
    assert main(["torus", str(grid), "--out", str(out)]) == 0
    bt = load_barcode(str(out))
    assert sorted(b.degree for b in bt.bars) == [0, 1, 1, 2]


def test_cmd_sublevel(tmp_path):
    simp = tmp_path / "path.txt"
    simp.write_text("a b\nb c\n")
    vals = tmp_path / "vals.csv"
    vals.write_text("0\n2\n1\n")
    out = tmp_path / "bc.json"
    assert main(["sublevel", str(simp), "--values", str(vals), "--out", str(out)]) == 0
    bc = load_barcode(str(out))
    assert sorted(bc.bars) == [Bar(0, INF, 0), Bar(1, 2, 0)]


def test_barcode_json_emitted_roundtrip(tmp_path):
    csv = tmp_path / "pts.csv"
    csv.write_text("0,0\n1,0\n0,1\n")
    out = tmp_path / "bc.json"
    assert main(["rips", str(csv), "--out", str(out)]) == 0
    bc = load_barcode(str(out))
    dump_barcode(bc, str(out))
    assert bottleneck_distance(load_barcode(str(out)), bc) == 0


def test_svg_deterministic(tmp_path):
    b = Barcode([Bar(0, 1, 0), Bar(0.5, INF, 1), Bar(-INF, 0.25, 0)])
    s1 = barcode_to_svg(b)
    s2 = barcode_to_svg(Barcode(list(reversed(b.bars))))
    assert s1 == s2
    assert "marker-end" in s1 and "marker-start" in s1
    csv = tmp_path / "pts.csv"
    csv.write_text("0,0\n2,0\n")
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert main(["rips", str(csv), "--out", str(tmp_path / "x.json"),
                 "--svg", str(svg1)]) == 0
    assert main(["rips", str(csv), "--out", str(tmp_path / "y.json"),
                 "--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_cmd_reproduce(capsys):
    assert main(["reproduce", "hexagon"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] hexagon")
    assert main(["reproduce", "no-such-scenario"]) == 1
    capsys.readouterr()
    for slack in ("nan", "inf", "-1"):
        assert main(["reproduce", "length-inequality", "--slack", slack]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: slack must be finite and >= 0\n", slack


def test_cmd_reproduce_failure_exit_code(capsys, monkeypatch):
    # a failing scenario must be signalled with exit code 2, whatever
    # state the pinned scenarios are in
    def always_red(result, seed, slack):
        result.expect("deliberate failure", False)

    monkeypatch.setitem(persimod.reproduce.SCENARIOS, "always-red", always_red)
    assert main(["reproduce", "always-red"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "persimod.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rips" in proc.stdout


def test_cmd_ellipsoid(capsys):
    assert main(["ellipsoid", "--n", "2", "--aspect", "8",
                 "--window", "0.5", "2.5", "1.0", "--compare", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.5 0" in out and "1.5 -2" in out and "2.5 -4" in out
    assert "0.693147" in out   # ln 2 lower bound
    capsys.readouterr()
    # every argument is checked before the table starts
    for argv in (["--window", "1", "0", "1"], ["--aspect", "0"], ["--aspect", "-1"],
                 ["--aspect", "nan"], ["--aspect", "inf"], ["--n", "0"],
                 ["--window", "nan", "2", "1"], ["--window", "0.5", "inf", "1"],
                 ["--window", "0.5", "2", "nan"], ["--window", "-1", "2", "1"],
                 ["--compare", "0", "2"], ["--compare", "2", "nan"],
                 ["--window", "1e17", "2e17", "1"], ["--window", "1", "1e300", "1e-300"]):
        assert main(["ellipsoid", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv


@pytest.mark.parametrize("p", ["2", "3"])
@pytest.mark.parametrize("simplices, values, bad", [
    ("a a\nb c\n", "1\n2\n3\n", "('a', 'a')"),
    ("a a b\n", "1\n2\n", "('a', 'a', 'b')"),
])
def test_cmd_sublevel_rejects_repeated_vertices(tmp_path, capsys, p, simplices, values, bad):
    simp, vals = tmp_path / "s.txt", tmp_path / "v.csv"
    simp.write_text(simplices)
    vals.write_text(values)
    assert main(["sublevel", str(simp), "--values", str(vals), "--field", p]) == 1
    assert capsys.readouterr().err == f"error: simplex {bad} repeats a vertex\n"


def test_cmd_large_characteristics(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    rng = np.random.default_rng(8)
    csv.write_text("\n".join(f"{x!r},{y!r}" for x, y in rng.random((8, 2)).tolist()))
    assert main(["rips", str(csv)]) == 0
    gf2 = capsys.readouterr().out
    # 2^61 - 1 is prime and its entry products need Python ints
    assert main(["rips", str(csv), "--field", str(2 ** 61 - 1)]) == 0
    assert capsys.readouterr().out == gf2
    # a prime past the int64 entries
    assert main(["rips", str(csv), "--field", "18446744073709551557"]) == 1
    assert capsys.readouterr().err.startswith("error: field characteristic must be below 2^63")


@pytest.mark.parametrize("command", ["rips", "cech"])
def test_cmd_refuses_too_many_simplices(tmp_path, capsys, command):
    csv = tmp_path / "pts.csv"
    rng = np.random.default_rng(9)
    csv.write_text("\n".join(f"{x!r},{y!r}" for x, y in rng.random((400, 2)).tolist()))
    # C(400, 1) + ... + C(400, 4) cells: refused before any is enumerated
    assert main([command, str(csv), "--max-dim", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: 1061406900 simplices on 400 points up to dimension 3 "
        "exceed the limit of 5000000\n")


def test_cmd_rips_single_point(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("0.0,0.0\n")
    assert main(["rips", str(csv)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"bars": [{"birth": 0.0, "death": "inf", "degree": 0}]}


@pytest.mark.parametrize("command", ["rips", "cech"])
def test_cmd_max_dim_past_the_points_is_the_full_simplex(tmp_path, capsys, command):
    # no subset of 3 points has more than 3 vertices, so a huge --max-dim
    # answers at once, with the JSON of --max-dim 3
    csv = tmp_path / "pts.csv"
    csv.write_text("0.0,0.0\n1.0,0.0\n0.25,0.5\n")
    assert main([command, str(csv), "--max-dim", "3"]) == 0
    small = capsys.readouterr().out
    assert main([command, str(csv), "--max-dim", "1000000000"]) == 0
    assert capsys.readouterr().out == small


def test_cmd_mu_of_a_window_wider_than_the_float_range_prints_no_warning(tmp_path):
    # the window (-1e308, 1e308] is 2e308 wide, past the float range
    path = tmp_path / "wide.json"
    dump_barcode(Barcode([Bar(-1e308, 1e308)]), str(path))
    src = os.path.dirname(os.path.dirname(persimod.cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "persimod.cli", "invariants", str(path),
                           "--mu-k", "1", "--mu-odd"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["mu_k"] == {"1": 5e307} and report["mu_odd"] == 5e307


def test_cmd_invariants_empty_barcode(tmp_path, capsys):
    path = tmp_path / "empty.json"
    dump_barcode(Barcode([]), str(path))
    assert main(["invariants", str(path), "--beta-k", "1", "--mu-odd",
                 "--nu", "0.1", "--spectrum"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["boundary_depth"] == 0
    assert report["beta_k"]["1"] == 0
    assert report["mu_odd"] == 0
    assert report["nu"] == 0
    assert report["infinite_endpoint_spectrum"] == []


# ---------------------------------------------------------------------------
# fuzzing: whatever the file holds, the CLI exits 0 or 1 with no traceback

_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "#", "x", "1e400", "1e300", "-0.0", "nan", "inf", ",", "0x1", "1_0"]),
    st.text(max_size=3))
_csv = st.lists(st.lists(_tokens, max_size=5).map(",".join), max_size=7).map("\n".join)


def _numeric_csv(rows, cols):
    return st.lists(st.lists(st.sampled_from(["0", "-0.0", "1", "0.5", "-2", "1e-300"]),
                             min_size=cols, max_size=cols).map(",".join),
                    min_size=rows, max_size=rows).map("\n".join)


_end = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
                 st.sampled_from(["inf", "-inf", "x", None, [], {}, 10 ** 400, -10 ** 400]))
_bar = st.one_of(st.fixed_dictionaries({"birth": _end, "death": _end},
                                       optional={"degree": st.one_of(st.integers(-1, 3),
                                                                     st.sampled_from([None, "1", 1.5, True]))}),
                 st.sampled_from([None, [], 0, "bar"]))
_barcode_json = st.one_of(
    st.lists(_bar, max_size=6).map(lambda bars: json.dumps({"bars": bars})),
    st.sampled_from(["", "{", "[]", "null", '{"bars": 3}', '{"bars": [[0, 1]]}']),
    st.text(max_size=20))


def _run_cli(argv, files):
    """main(argv), each key of files in argv replaced by a temp file holding its text."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [path if a == name else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", os.path.join(tmp, "bc.json")]
                        if argv[0] in ("rips", "cech", "sublevel", "torus", "circle") else argv)
    assert code in (0, 1), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")


@settings(max_examples=50, deadline=None)
@given(st.one_of(_csv, st.integers(1, 5).flatmap(lambda n: _numeric_csv(n, n)),
                 st.integers(1, 5).flatmap(lambda n: _numeric_csv(n, 2))),
       st.booleans(), st.integers(-1, 2), st.sampled_from(["2", "3", "4"]))
def test_fuzz_cli_rips(text, distance_matrix, max_dim, p):
    argv = ["rips", "IN", "--max-dim", str(max_dim), "--field", p]
    _run_cli(argv + ["--distance-matrix"] * distance_matrix, {"IN": text})


@settings(max_examples=50, deadline=None)
@given(st.one_of(_csv, st.tuples(st.integers(3, 5), st.integers(3, 5)).flatmap(
    lambda shape: _numeric_csv(*shape))), st.sampled_from(["2", "3"]))
def test_fuzz_cli_torus(text, p):
    _run_cli(["torus", "GRID", "--field", p], {"GRID": text})


@settings(max_examples=50, deadline=None)
@given(st.one_of(_csv, st.integers(1, 8).flatmap(lambda n: _numeric_csv(n, 1))),
       st.sampled_from(["2", "3"]))
def test_fuzz_cli_circle(text, p):
    _run_cli(["circle", "SAMPLES", "--field", p], {"SAMPLES": text})


def _sublevel_files(lines):
    """A simplex file of these lines of vertex names and a values CSV with
    one row per distinct name."""
    n = len({v for line in lines for v in line})
    return st.tuples(st.just("\n".join(map(" ".join, lines))), _numeric_csv(n, 1))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    # names may repeat within a line
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), max_size=5).flatmap(
        _sublevel_files),
    st.tuples(_csv, _csv)), st.sampled_from(["2", "3"]))
def test_fuzz_cli_sublevel(files, p):
    simplices, values = files
    _run_cli(["sublevel", "SIMPLICES", "--values", "VALUES", "--field", p],
             {"SIMPLICES": simplices, "VALUES": values})


@settings(max_examples=30, deadline=None)
@given(st.one_of(_csv, st.tuples(st.integers(1, 5), st.integers(1, 3)).flatmap(
    lambda shape: _numeric_csv(*shape))), st.integers(-1, 2), st.sampled_from(["2", "3"]))
def test_fuzz_cli_cech(text, max_dim, p):
    _run_cli(["cech", "IN", "--max-dim", str(max_dim), "--field", p], {"IN": text})


@settings(max_examples=50, deadline=None)
@given(_barcode_json, _barcode_json)
def test_fuzz_cli_distance(a, b):
    _run_cli(["distance", "A", "B"], {"A": a, "B": b})


@settings(max_examples=50, deadline=None)
@given(_barcode_json, st.sampled_from([[], ["--mu-odd"], ["--beta-k", "0", "1"],
                                       ["--mu-k", "1", "2"], ["--ell", "0", "2"],
                                       ["--nu", "0.5"], ["--spectrum"]]))
def test_fuzz_cli_invariants(text, flags):
    _run_cli(["invariants", "BC"] + flags, {"BC": text})
