import math
import random

import numpy as np
import pytest

from persimod.barcode import Bar, Barcode, bottleneck_distance, nu
from persimod.complexes import GridFunction, circle_complex, torus_grid_complex
from persimod.filtered_complex import barcode_of_complex
from persimod.function_theory import (TrigPolynomial2D, alternance_bound,
                                      barcode_range, circle_ell_identity,
                                      grid_norms, perturbation_inequalities,
                                      random_trig_polynomial, total_length,
                                      verify_length_inequality)


def test_trig_polynomial_frequency_cap():
    TrigPolynomial2D({(1, 0): (1.0, 0.0)}, lam=1)
    with pytest.raises(ValueError):
        TrigPolynomial2D({(2, 2): (1.0, 0.0)}, lam=4)


def test_grid_norms_zero_and_sin():
    z = grid_norms(GridFunction(np.zeros((8, 8))))
    assert z.sup == z.l2 == z.laplacian_l2 == z.gradient_sup == 0
    m = 128
    xs = 2 * np.pi * np.arange(m) / m
    norms = grid_norms(GridFunction(np.sin(xs)[:, None] + 0 * xs[None, :]))
    assert abs(norms.sup - 1) < 1e-6
    assert abs(norms.l2 - math.sqrt(2) * math.pi) < 0.01 * norms.l2
    assert abs(norms.laplacian_l2 - norms.l2) < 0.01 * norms.l2  # eigenvalue 1
    assert abs(norms.gradient_sup - 1) < 1e-2


def test_laplacian_eigen_bound():
    rng = random.Random(3)
    for _ in range(6):
        p = random_trig_polynomial(rng, 9)
        norms = grid_norms(p.on_grid(64))
        assert norms.laplacian_l2 <= 9 * norms.l2 * 1.02


def test_length_inequality_constant_and_sin():
    rep = verify_length_inequality(GridFunction(np.full((8, 8), 2.0)))
    assert rep["holds"] and rep["ell"] == 0
    m = 64
    xs = 2 * np.pi * np.arange(m) / m
    vals = np.sin(2 * xs)[:, None] + np.sin(2 * xs)[None, :]
    rep = verify_length_inequality(GridFunction(vals))
    assert rep["holds"]
    assert abs(rep["ell"] - 20) < 0.4
    assert abs(rep["rhs"] - 6 * math.pi * 5) < 0.05 * 6 * math.pi * 5


def test_circle_identity_examples():
    assert circle_ell_identity([1.0, 1.0, 1.0]) == (0.0, 0.0)
    n = 64
    lhs, rhs = circle_ell_identity(np.cos(2 * np.pi * np.arange(n) / n))
    assert abs(lhs - 2) < 1e-12 and abs(rhs - 2) < 1e-12
    lhs, rhs = circle_ell_identity([0, 2, 1, 3, 0])
    assert abs(lhs - rhs) < 1e-12


def test_circle_identity_random():
    rng = random.Random(6)
    for _ in range(50):
        samples = [round(rng.uniform(-2, 2), 3) for _ in range(rng.randint(3, 20))]
        lhs, rhs = circle_ell_identity(samples)
        assert abs(lhs - rhs) < 1e-9


def test_alternance_bound():
    n = 5
    samples = np.cos(n * 2 * np.pi * np.arange(256) / 256)
    hbc = barcode_of_complex(circle_complex(samples))
    assert nu(hbc, 1.99) == n - 1
    assert alternance_bound(hbc, 2 * n - 2, 1.99, zeta=2) == pytest.approx(0.995)
    assert alternance_bound(hbc, 2 * n, 1.99, zeta=2) is None
    assert alternance_bound(Barcode([]), 1, 0.5, zeta=2) == 0.25  # 1 < 0 + 2
    with pytest.raises(ValueError):
        alternance_bound(hbc, 1, 0.0, zeta=2)


def test_barcode_range_and_total_length():
    b = Barcode([Bar(0, math.inf, 0), Bar(1, 2, 1), Bar(3, math.inf, 2)])
    assert barcode_range(b) == (0, 3)
    assert total_length(b) == 3 + 1 + 0


def test_perturbation_inequalities():
    rng = random.Random(4)
    base = random_trig_polynomial(rng, 4).on_grid(16)
    fb = barcode_of_complex(torus_grid_complex(base))
    same = perturbation_inequalities(fb, fb, 0.0, zeta=4)
    assert same["ell_holds"] and same["nu_holds"]
    assert same["ell_f"] == same["ell_h"]
    for _ in range(5):
        eps = rng.uniform(0.01, 0.2)
        noise = eps * np.cos(3 * 2 * np.pi * np.arange(16) / 16)[None, :] * np.ones((16, 16))
        hb = barcode_of_complex(torus_grid_complex(GridFunction(base.values + noise)))
        rep = perturbation_inequalities(fb, hb, float(np.abs(noise).max()), zeta=4)
        assert rep["ell_holds"] and rep["nu_holds"]


def test_nu_monotone_in_threshold():
    rng = random.Random(5)
    bars = [Bar(rng.uniform(0, 2), rng.uniform(2.1, 5)) for _ in range(6)]
    b = Barcode(bars)
    values = [nu(b, c) for c in np.linspace(0, 6, 40)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_sublevel_stability_master_property():
    rng = random.Random(7)
    for _ in range(20):
        f = random_trig_polynomial(rng, 4).on_grid(12)
        g = random_trig_polynomial(rng, 4).on_grid(12)
        diff = float(np.abs(f.values - g.values).max())
        bf = barcode_of_complex(torus_grid_complex(f))
        bg = barcode_of_complex(torus_grid_complex(g))
        assert bottleneck_distance(bf, bg) <= diff + 1e-9
