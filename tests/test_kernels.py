"""Kernel module: group kernels, box dictionaries, limit kernels, serialization.

Every closed form is checked against an independent route: trigonometric sums
for the periodized sine ratio, classical Bessel functions for the edge
kernels, direct numerical tail integrals for the Robin edge, and the spectral
solver for the closed mode families.
"""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import jv, jvp

from fermibox import kernels as kn
from fermibox.boundary import make_boundary, make_preset
from fermibox.spectral import DECAY, LINEAR, TRIG, solve_spectrum
from fermibox.thermo import fermi_factor, solve_lambda, solve_mu

RNG = np.random.default_rng(523)
TWO_PI = 2.0 * np.pi


def gauss_legendre(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# periodized sine ratio


def test_sn_ratio_matches_exponential_sum():
    z = RNG.uniform(-10.0, 10.0, size=64)
    for n in (1, 2, 5, 8):
        if n % 2:
            ks = np.arange(-(n - 1) // 2, (n - 1) // 2 + 1)
        else:
            ks = np.arange(-n + 1, n, 2) / 2.0
        direct = np.sum(np.exp(1j * np.outer(ks, z)), axis=0).real / TWO_PI
        assert_allclose(kn.sn_ratio(n, z), direct, atol=1e-12)


def test_sn_ratio_center_values():
    assert_allclose(kn.sn_ratio(5, 0.0), 5.0 / TWO_PI, rtol=1e-15)
    # odd order: periodic with period 2pi; even order: antiperiodic
    assert_allclose(kn.sn_ratio(5, TWO_PI), 5.0 / TWO_PI, rtol=1e-12)
    assert_allclose(kn.sn_ratio(4, TWO_PI), -4.0 / TWO_PI, rtol=1e-12)
    assert_allclose(kn.sn_ratio(4, 2 * TWO_PI), 4.0 / TWO_PI, rtol=1e-12)


def test_sn_ratio_series_window_is_smooth():
    # values just inside and outside the series window must agree
    for n in (3, 8):
        for m in (-1, 0, 2):
            z0 = TWO_PI * m
            inner = kn.sn_ratio(n, z0 + 9e-7)
            outer = kn.sn_ratio(n, z0 + 1.1e-6)
            assert abs(inner - outer) < 1e-10 * n


def test_sn_ratio_rejects_bad_order():
    with pytest.raises(ValueError):
        kn.sn_ratio(0, 1.0)


# ---------------------------------------------------------------------------
# group kernels


def test_group_kernel_diagonals():
    # U(n) has constant eigenangle density n/2pi
    q = kn.group_kernel("U", 9)
    xs = RNG.uniform(0, TWO_PI, size=16)
    assert_allclose(q(xs, xs), np.full(16, 9 / TWO_PI), rtol=1e-12)


def test_group_kernel_traces_count_eigenvalues():
    # integral of the diagonal over the domain gives the number of free
    # eigenangles (pairs fold to [0, pi); fixed +-1 eigenvalues drop out)
    cases = [("U", 9, TWO_PI, 9.0), ("Sp", 8, np.pi, 4.0),
             ("SO", 8, np.pi, 4.0), ("SO", 9, np.pi, 4.0)]
    for g, n, top, expect in cases:
        q = kn.group_kernel(g, n)
        xs, w = gauss_legendre(400, 0.0, top)
        assert_allclose(np.sum(w * q(xs, xs)), expect, atol=1e-10), (g, n)


def test_group_kernel_projection_property():
    # each folded kernel reproduces itself under its own domain integral
    for g, n, top in [("U", 7, TWO_PI), ("Sp", 10, np.pi),
                      ("SO", 10, np.pi), ("SO", 11, np.pi)]:
        q = kn.group_kernel(g, n)
        xs, w = gauss_legendre(300, 0.0, top)
        mat = kn.evaluate_grid(q, xs, xs)
        err = np.max(np.abs(mat @ (w[:, None] * mat) - mat))
        assert err < 1e-10, (g, n, err)


def test_group_kernel_validation():
    with pytest.raises(ValueError):
        kn.group_kernel("Sp", 7)
    with pytest.raises(ValueError):
        kn.group_kernel("O", 4)
    with pytest.raises(ValueError):
        kn.group_kernel("U", 0)


# ---------------------------------------------------------------------------
# ground-state dictionary


DICTIONARY = [
    ("dirichlet", "Sp", lambda n: 2 * n, 0.5),
    ("neumann", "SO", lambda n: 2 * n, 0.5),
    ("zaremba", "SO", lambda n: 2 * n + 1, 0.5),
]


def test_angle_doubling_dictionary():
    n = 7
    xs = np.linspace(0.05, TWO_PI - 0.05, 13)
    for preset, group, size, half in DICTIONARY:
        box = kn.ground_state_kernel(preset, n)
        grp = kn.group_kernel(group, size(n))
        got = kn.evaluate_grid(box, xs, xs)
        want = half * grp(xs[:, None] / 2.0, xs[None, :] / 2.0)
        assert_allclose(got, want, atol=1e-12), preset


def test_periodic_dictionary_is_unitary_group():
    n = 7
    xs = np.linspace(0.0, TWO_PI, 11, endpoint=False)
    box = kn.ground_state_kernel("periodic", 2 * n + 1)
    grp = kn.group_kernel("U", 2 * n + 1)
    assert_allclose(kn.evaluate_grid(box, xs, xs),
                    kn.evaluate_grid(grp, xs, xs), atol=1e-12)


def test_closed_families_match_solver():
    xs = np.linspace(0.2, TWO_PI - 0.2, 9)
    for preset in ("dirichlet", "neumann", "zaremba", "periodic"):
        spectrum = solve_spectrum(make_preset(preset), count=5)
        closed = kn.ground_state_kernel(preset, 5)
        solved = kn.ground_state_kernel(spectrum, 5)
        diff = np.max(np.abs(kn.evaluate_grid(closed, xs, xs)
                             - kn.evaluate_grid(solved, xs, xs)))
        assert diff < 1e-9, (preset, diff)


def test_even_periodic_count_is_projection():
    # a half-filled top shell: the chosen cosine member must still give a
    # rank-n projection
    n = 6
    k = kn.ground_state_kernel("periodic", n)
    xs, w = gauss_legendre(400, 0.0, TWO_PI)
    mat = kn.evaluate_grid(k, xs, xs)
    assert_allclose(np.sum(w * np.real(np.diag(mat))), float(n), atol=1e-10)
    err = np.max(np.abs(mat @ (w[:, None] * mat) - mat))
    assert err < 1e-10


def test_ground_state_kernel_generic_route():
    # a boundary condition with no closed form still yields a projection
    k = kn.ground_state_kernel({"preset": "robin", "params": [np.pi / 2]}, 5)
    xs, w = gauss_legendre(400, 0.0, TWO_PI)
    mat = kn.evaluate_grid(k, xs, xs)
    err = np.max(np.abs(mat @ (w[:, None] * mat) - mat))
    assert err < 1e-8


def test_ground_state_modes_validation():
    with pytest.raises(ValueError):
        kn.ground_state_modes("dirichlet", 0)
    with pytest.raises(TypeError):
        kn.ground_state_modes(3.14, 2)


# ---------------------------------------------------------------------------
# mode families

# cell midpoints, refinement subcells, a single point and points off the box
MODE_XS = (np.linspace(0.0, TWO_PI, 4097)[:-1] + np.pi / 4096,
           np.linspace(1.0, 1.001, 64), np.array([2.5]),
           np.random.default_rng(11).uniform(-1.0, 7.0, 301))


def closed_rows(label, count, x):
    """The separable presets' modes, one closed formula per mode."""
    sp, sq = np.sqrt(np.pi), np.sqrt(TWO_PI)
    if label == "dirichlet":
        return [np.sin(k * x / 2.0) / sp for k in range(1, count + 1)]
    if label == "neumann":
        return ([np.full_like(x, 1.0 / sq)]
                + [np.cos(k * x / 2.0) / sp for k in range(1, count)])
    if label == "zaremba":
        return [np.sin((k + 0.5) * x / 2.0) / sp for k in range(count)]
    ks = [0] + [s * m for m in range(1, count) for s in (-1, 1)]
    rows = [np.exp(1j * k * x) / sq for k in ks[:count]]
    if count % 2 == 0:
        rows[-1] = np.cos(2 * (count // 2) * x / 2.0) / sp
    return rows


def test_closed_families_equal_closed_formulas_bitwise():
    for label in ("dirichlet", "neumann", "zaremba", "periodic"):
        for n in (1, 2, 7, 8, 100):
            fam = kn.ground_state_modes(label, n)
            for x in MODE_XS:
                want = np.array(closed_rows(label, n, x), dtype=complex)
                assert np.array_equal(fam.eval_matrix(x), want), (label, n)


def test_finite_t_shells_equal_closed_formulas_bitwise():
    for t, mu in ((1.0, 2.0), (2.0, 9.0), (30.0, 40.0)):
        dirichlet = kn.finite_t_modes("dirichlet", t, mu)
        periodic = kn.finite_t_modes("periodic", t, mu)
        j = (len(periodic) - 1) // 2
        for x in MODE_XS:
            want = np.array(closed_rows("dirichlet", len(dirichlet), x), dtype=complex)
            assert np.array_equal(dirichlet.eval_matrix(x), want)
            want = np.array([np.exp(1j * k * x) / np.sqrt(TWO_PI)
                             for k in range(-j, j + 1)])
            assert np.array_equal(periodic.eval_matrix(x), want)
        assert np.array_equal(periodic.energies, np.arange(-j, j + 1) ** 2.0)


def solver_row(kind, energy, a, b, x):
    """One solved mode from its scalars: w = sqrt(|E|), and for a bound
    state (a, b) is the decaying pair (c1, c2)."""
    if kind == TRIG:
        w = float(np.sqrt(energy))
        return a * np.cos(w * x) + b * np.sin(w * x)
    if kind == LINEAR:
        return a + b * x
    assert kind == DECAY
    k = float(np.sqrt(-energy))
    return a * np.exp(-k * x) + b * np.exp(-k * (TWO_PI - x))


def test_solver_families_equal_eigenfunction_eval_bitwise():
    custom_periodic = make_boundary(make_preset("periodic").matrix)
    for bc, n in ((make_preset("robin", -2.5), 20), (make_preset("delta", 1.0), 30),
                  (custom_periodic, 9)):
        spectrum = solve_spectrum(bc, count=n)
        fam = kn.ground_state_modes(spectrum, n)
        scalars = list(zip(*(v.tolist() for v in (fam.kind, fam.energies, fam.a, fam.b))))
        for x in MODE_XS:
            want = np.array([solver_row(*row, x) for row in scalars], dtype=complex)
            assert np.array_equal(fam.eval_matrix(x), want), bc.label
    kinds = set(solve_spectrum(make_preset("robin", -2.5), count=3).modes.kind.tolist())
    assert kinds == {DECAY, TRIG}
    assert solve_spectrum(custom_periodic, count=1).modes.kind[0] == LINEAR


def test_sub_family_rows_equal_parent_rows():
    fam = kn.ground_state_modes(make_preset("robin", -2.5), 20)
    x = MODE_XS[-1]
    for idx in ([0, 1, 5, 19], slice(2, 9), fam.energies < 3.0):
        sub = fam[idx]
        assert np.array_equal(sub.eval_matrix(x), fam.eval_matrix(x)[idx])
        assert np.array_equal(sub.energies, fam.energies[idx])
    assert len(fam[[3, 4]]) == 2
    assert fam.eval_matrix(0.5).shape == (20,)


# ---------------------------------------------------------------------------
# finite temperature


def test_cue_kernel_matches_direct_sum():
    t, mu = 3.0, 9.0
    ks = np.arange(-220, 221)
    p = fermi_factor(ks.astype(float) ** 2, t, mu)
    xs = RNG.uniform(0, TWO_PI, size=7)
    ys = RNG.uniform(0, TWO_PI, size=7)
    direct = np.sum(p[:, None] * np.exp(1j * np.outer(ks, xs - ys)), axis=0).real / TWO_PI
    k = kn.finite_t_kernel("periodic", t, mu)
    assert_allclose(k(xs, ys), direct, atol=1e-13)


def test_cue_kernel_cold_limit_is_group_kernel():
    n = 10
    energies = np.sort(np.array(
        [float(k * k) for k in range(0, 40) for _ in range(1 if k == 0 else 2)]))
    mu = solve_mu(energies, 1e-3, 2 * n + 1)
    xs = np.linspace(0, TWO_PI, 37, endpoint=False)
    cold = kn.evaluate_grid(kn.finite_t_kernel("periodic", 1e-3, mu), xs, xs)
    grp = kn.evaluate_grid(kn.group_kernel("U", 2 * n + 1), xs, xs)
    assert np.max(np.abs(cold - grp)) < 1e-8


def test_cue_kernel_midpoint_chemical_potential_misses():
    # putting the potential exactly on a doubly degenerate level leaves that
    # shell half occupied and shifts the kernel by 1/2pi at coincidence
    n = 10
    xs = np.linspace(0, TWO_PI, 23, endpoint=False)
    cold = kn.evaluate_grid(kn.finite_t_kernel("periodic", 1e-3, float(n * n)), xs, xs)
    grp = kn.evaluate_grid(kn.group_kernel("U", 2 * n + 1), xs, xs)
    assert_allclose(np.max(np.abs(cold - grp)), 1.0 / TWO_PI, rtol=1e-10)


def test_finite_t_closed_families_match_mode_sums():
    # every kind of mode row, on a grid call and on a paired call, against a
    # per-pair sum over the same modes
    t, mu = 1.3, 4.0
    xs = np.linspace(0.1, TWO_PI - 0.1, 9)
    custom_periodic = make_boundary(make_preset("periodic").matrix)   # linear zero mode
    cases = [(kn.finite_t_kernel(p, t, mu), kn.ground_state_modes(p, 80), True)
             for p in ("dirichlet", "neumann", "zaremba", "periodic")]
    cases += [(kn.ground_state_kernel(bc, n), kn.ground_state_modes(bc, n), False)
              for bc, n in (("periodic", 6), ("periodic", 7),
                            (make_preset("robin", -2.5), 20),
                            (make_preset("delta", 1.0), 20), (custom_periodic, 9))]
    for k, fam, thermal in cases:
        w = fermi_factor(fam.energies, t, mu) if thermal else np.ones(len(fam))
        phi = fam.eval_matrix(xs)
        direct = np.einsum("k,ki,kj->ij", w, phi, phi.conj()).real
        assert_allclose(kn.evaluate_grid(k, xs, xs), direct, atol=1e-11, err_msg=str(k.spec))
        assert_allclose(k(xs, xs), np.diagonal(direct), atol=1e-11, err_msg=str(k.spec))


def test_mode_sum_grid_memory_grows_with_axes_not_pairs():
    # 200 modes on a 200 x 200 grid: modes x 200 values per axis, where
    # evaluating every mode at every grid pair allocates over 250 MB
    k = kn.ground_state_kernel("dirichlet", 200)
    xs = np.linspace(0.0, TWO_PI, 200)
    tracemalloc.start()
    try:
        kn.evaluate_grid(k, xs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_finite_t_generic_route_matches_closed():
    # force the solver path by handing the dirichlet matrix without its label
    bc = make_boundary(-np.eye(2))
    t, mu = 1.0, 2.5
    xs = np.linspace(0.3, TWO_PI - 0.3, 7)
    generic = kn.evaluate_grid(kn.finite_t_kernel(bc, t, mu), xs, xs)
    closed = kn.evaluate_grid(kn.finite_t_kernel("dirichlet", t, mu), xs, xs)
    assert np.max(np.abs(generic - closed)) < 1e-8


def test_finite_t_spectrum_source_must_cover_tail():
    spectrum = solve_spectrum(make_preset("dirichlet"), count=4)
    with pytest.raises(ValueError):
        kn.finite_t_modes(spectrum, 2.0, 3.0)


def test_finite_t_validation():
    with pytest.raises(ValueError):
        kn.finite_t_kernel("dirichlet", 0.0, 1.0)
    with pytest.raises(ValueError):
        kn.finite_t_kernel("periodic", -1.0, 1.0)
    for t, mu in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, -np.inf)):
        with pytest.raises(ValueError):
            kn.finite_t_modes("periodic", t, mu)


# ---------------------------------------------------------------------------
# limit kernels


def classical_bessel_form(nu, x, y):
    a, b = (np.pi * x) ** 2, (np.pi * y) ** 2
    num = jv(nu, np.sqrt(a)) * np.sqrt(b) * jvp(nu, np.sqrt(b)) \
        - np.sqrt(a) * jvp(nu, np.sqrt(a)) * jv(nu, np.sqrt(b))
    return 2.0 * np.pi**2 * np.sqrt(x * y) * num / (2.0 * (a - b))


def test_sine_kernel_basics():
    k = kn.kernel_sine()
    assert_allclose(k(0.4, 0.4), 1.0, rtol=1e-15)
    assert_allclose(k(1.0, 0.0), 0.0, atol=1e-15)
    assert_allclose(k(0.25, 0.0), np.sin(np.pi / 4) / (np.pi / 4), rtol=1e-14)


def test_bessel_kernels_match_classical_form():
    km = kn.kernel_bessel(-1)
    kp = kn.kernel_bessel(+1)
    pts = [(0.31, 0.72), (1.24, 0.13), (0.05, 2.11), (3.0, 0.9)]
    for x, y in pts:
        assert_allclose(km(x, y), classical_bessel_form(0.5, x, y), atol=1e-12)
        assert_allclose(kp(x, y), classical_bessel_form(-0.5, x, y), atol=1e-12)


def test_bessel_kernel_edge_behavior():
    km = kn.kernel_bessel(-1)
    kp = kn.kernel_bessel(+1)
    assert_allclose(km(0.0, 0.7), 0.0, atol=1e-15)   # vanishes at the wall
    assert_allclose(kp(0.0, 0.0), 2.0, rtol=1e-15)   # doubles at the wall
    with pytest.raises(ValueError):
        km(-0.1, 0.5)
    with pytest.raises(ValueError):
        kn.kernel_bessel(2)


def test_robin_edge_against_direct_tail_integral():
    c = 1.0
    k = kn.kernel_robin_edge(c)
    for x, y in [(0.0, 0.0), (0.3, 0.7), (1.5, 0.2), (2.0, 2.0)]:
        s = x + y
        tail, _ = quad(lambda xi: np.sinc(s + xi) * np.exp(-c * xi),
                       0.0, 200.0, limit=2000)
        direct = np.sinc(x - y) + np.sinc(s) - 2.0 * c * tail
        assert_allclose(k(x, y), direct, atol=1e-11)


def test_robin_edge_origin_value():
    for c in (0.3, 1.0, 5.0):
        k = kn.kernel_robin_edge(c)
        assert_allclose(k(0.0, 0.0),
                        2.0 - (2.0 * c / np.pi) * np.arctan(np.pi / c),
                        rtol=1e-13)


def test_robin_edge_interpolates_hard_edges():
    pts = [(0.3, 0.7), (1.1, 0.4)]
    hard = kn.kernel_robin_edge(1e6)
    soft = kn.kernel_robin_edge(1e-7)
    minus = kn.kernel_bessel(-1)
    plus = kn.kernel_bessel(+1)
    for x, y in pts:
        assert abs(hard(x, y) - minus(x, y)) < 1e-4
        assert abs(soft(x, y) - plus(x, y)) < 1e-5


def test_robin_edge_far_from_wall_looks_translation_invariant():
    k = kn.kernel_robin_edge(1.0)
    assert abs(k(40.2, 40.5) - np.sinc(-0.3)) < 1e-2


def test_scaled_e1_continued_fraction_vs_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for z in (40.0 - 5.0j, 31.0 - 31.0j, 200.0 - 600.0j, 5000.0 - 15.7j):
        ref = complex(mp.e1(mp.mpc(z.real, z.imag)) * mp.exp(mp.mpc(z.real, z.imag)))
        got = kn._scaled_e1(z)
        assert abs(got - ref) < 1e-14 * abs(ref) + 1e-16, z


def test_scaled_e1_accurate_on_both_sides_of_switchover():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    # the scipy branch just below |z| = 30 and the continued fraction just
    # above must both track the reference
    for ang in (-0.05, -0.7, -1.4):
        for r in (29.8, 30.2):
            z = complex(r * np.exp(1j * ang))
            ref = complex(mp.e1(mp.mpc(z.real, z.imag)) * mp.exp(mp.mpc(z.real, z.imag)))
            assert abs(kn._scaled_e1(z) - ref) < 1e-13 * abs(ref), z


def test_delta_edge_reduces_to_sine_at_zero_strength():
    k = kn.kernel_delta_edge(0.0)
    for x, y in [(0.3, 0.9), (1.5, 1.5)]:
        assert_allclose(k(x, y), np.sinc(x - y), atol=1e-12)
    with pytest.raises(ValueError):
        kn.kernel_delta_edge(-0.5)


def test_delta_edge_against_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    c = 1.0
    k = kn.kernel_delta_edge(c)
    for x, y in [(0.2, 0.5), (1.3, 0.1)]:
        s = x + y
        extra = float(mp.quad(
            lambda u: mp.im(c * mp.expjpi(s * u) / (2 * mp.pi * u + 1j * c)),
            [0, 1]))
        assert_allclose(k(x, y), np.sinc(x - y) + extra, atol=1e-10)


def test_delta_edge_matches_scattering_modes():
    # Independent build of the same projection: odd modes sin(p x) pass the
    # scatterer untouched, even modes cos(p x + delta) pick up the phase
    # shift tan(delta) = -c / 2p; fill the band p <= pi and integrate.
    c = 1.7
    k = kn.kernel_delta_edge(c)

    def direct(x, y):
        def integrand(p):
            delta = -np.arctan2(c, 2.0 * p)
            odd = np.sin(p * x) * np.sin(p * y)
            even = np.cos(p * x + delta) * np.cos(p * y + delta)
            return (odd + even) / np.pi

        val, _ = quad(integrand, 0.0, np.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    for x, y in [(0.3, 0.3), (0.25, 1.4), (1.9, 0.8)]:
        assert_allclose(k(x, y), direct(x, y), atol=1e-9)


def test_delta_edge_strong_coupling_decouples_to_absorbing_edge():
    k = kn.kernel_delta_edge(1e8)
    hard = kn.kernel_bessel(-1)
    for x, y in [(0.4, 0.4), (0.7, 1.6)]:
        assert abs(k(x, y) - hard(x, y)) < 1e-6


def test_finite_t_sine_diagonal_is_unit_density():
    for c in (0.5, 1.7):
        lam = solve_lambda(c)
        k = kn.kernel_finite_t_sine(c, lam)
        assert_allclose(k(0.4, 0.4), 1.0, atol=1e-9)


def test_finite_t_sine_against_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    c, lam = 1.0, 3.0
    k = kn.kernel_finite_t_sine(c, lam)
    for d in (0.0, 0.37, 2.1):
        ref = float(mp.quad(
            lambda u: mp.cos(mp.pi * d * u) / (1 + mp.exp(u * u / c) / lam),
            [0, mp.sqrt(c * 40)]))
        assert_allclose(k(d, 0.0), ref, atol=1e-9)


def test_finite_t_sine_cold_limit_is_sine():
    c = 0.005
    k = kn.kernel_finite_t_sine(c, solve_lambda(c))
    for d in (0.3, 1.2):
        assert abs(k(d, 0.0) - np.sinc(d)) < 0.02


def test_half_line_robin_at_unit_cut_equals_robin_edge():
    c = 1.0
    proj = kn.half_line_robin_projection(c, np.pi**2)
    edge = kn.kernel_robin_edge(c)
    for x, y in [(0.1, 0.4), (1.0, 1.7), (0.0, 0.0)]:
        assert_allclose(proj(x, y), edge(x, y), atol=1e-9)


def test_half_line_robin_diagonal_grows_with_cut():
    c = 2.0
    vals = [kn.half_line_robin_projection(c, e)(1.0, 1.0)
            for e in (1.0, 4.0, 16.0)]
    assert vals[0] < vals[1] < vals[2]


def test_delta_line_projection_symmetries():
    k = kn.delta_line_projection(1.5, np.pi**2)
    pts = [(0.4, -0.8), (1.2, 0.3)]
    for x, y in pts:
        assert_allclose(k(x, y), k(-x, -y), atol=1e-12)  # reflect through scatterer
        assert_allclose(k(x, y), k(y, x), atol=1e-12)    # symmetric kernel
    k0 = kn.delta_line_projection(0.0, np.pi**2)
    assert_allclose(k0(0.4, -0.8), np.sinc(1.2), atol=1e-10)


@pytest.mark.parametrize("spec", [
    {"FiniteTSine": {"c": 0.7, "lam": 2.0}},
    {"DeltaEdge": {"c": 1.5}},
    {"RobinEdge": {"c": 1.0}},
    {"HalfLineRobin": {"c": 1.0, "e": 30.0}},
    {"DeltaLine": {"c": 0.5, "e": 20.0}},
])
def test_quadrature_kernel_grid_equals_scalar_calls(spec):
    # a grid integrates once per distinct argument; every repeated x - y and
    # x + y must still get exactly the value a scalar call gives
    k = kn.parse_kernel_spec({"Limit": spec})
    xs = np.array([0.0, 0.25, 0.5, 0.5, 1.0])
    ys = np.array([0.25, 0.5, 0.75])
    scalar = np.array([[k(x, y) for y in ys] for x in xs])
    assert np.array_equal(kn.evaluate_grid(k, xs, ys), scalar)


def test_edge_limit_validation():
    with pytest.raises(ValueError):
        kn.kernel_robin_edge(0.0)
    with pytest.raises(ValueError):
        kn.half_line_robin_projection(1.0, -1.0)
    with pytest.raises(ValueError):
        kn.kernel_finite_t_sine(1.0, -2.0)
    k = kn.half_line_robin_projection(1.0, 4.0)
    with pytest.raises(ValueError):
        k(-0.5, 1.0)


# ---------------------------------------------------------------------------
# serialization and grids


ROUND_TRIP_SPECS = [
    {"Limit": {"Sine": {}}},
    {"Limit": {"BesselMinus": {}}},
    {"Limit": {"BesselPlus": {}}},
    {"Limit": {"RobinEdge": {"c": 1.0}}},
    {"Limit": {"DeltaEdge": {"c": 0.5}}},
    {"Limit": {"FiniteTSine": {"c": 1.0, "lam": 3.0}}},
    {"Limit": {"HalfLineRobin": {"c": 1.0, "e": 9.0}}},
    {"Limit": {"DeltaLine": {"c": 2.0, "e": 9.0}}},
    {"Group": {"G": "U", "N": 7}},
    {"Group": {"G": "Sp", "N": 14}},
    {"GroundState": {"source": "dirichlet", "N": 7}},
    {"GroundState": {"source": {"preset": "robin", "params": [1.2]}, "N": 4}},
    {"FiniteT": {"source": "periodic", "T": 1.0, "mu": 4.0}},
]


def test_kernel_spec_round_trips():
    for spec in ROUND_TRIP_SPECS:
        k = kn.parse_kernel_spec(json.dumps(spec))
        assert kn.kernel_spec(k) == spec


def test_parse_rejects_malformed_specs():
    for bad in (
        {"Limit": {"Sine": {}, "BesselPlus": {}}},
        {"Limit": {"Gumbel": {}}},
        {"Nope": {}},
        {"Group": {"G": "Sp", "N": 7}},
        [1, 2],
    ):
        with pytest.raises(ValueError):
            kn.parse_kernel_spec(bad)


def test_ad_hoc_kernel_has_no_spec():
    k = kn.ground_state_kernel(solve_spectrum(make_preset("dirichlet"), count=3), 3)
    with pytest.raises(ValueError):
        kn.kernel_spec(k)


def test_evaluate_grid_shape_and_broadcast():
    k = kn.kernel_sine()
    xs = np.linspace(0, 1, 5)
    ys = np.linspace(0, 1, 3)
    mat = kn.evaluate_grid(k, xs, ys)
    assert mat.shape == (5, 3)
    assert_allclose(mat[2, 1], k(xs[2], ys[1]), rtol=1e-15)
