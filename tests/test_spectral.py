"""Spectral solver against closed-form spectra and its own invariants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from fermibox import boundary as fb
from fermibox import spectral as fs

from test_boundary import random_unitary

# frozen regression value: det of the Dirichlet pencil at e = 0.5, equal to
# -4 sin(2 pi / sqrt(2)); an mpmath cross-check lives in test_secular_oracles
SECULAR_DIRICHLET_HALF = 3.855610131399509


def solve(name, *params, count=None, e_max=None):
    return fs.solve_spectrum(fb.make_preset(name, *params), count=count, e_max=e_max)


def pencil_det(bc, e):
    """det of the boundary pencil at trial energy e > 0, (cos, sin) basis."""
    return complex(np.linalg.det(fs._pencil(bc.matrix, *fs._trig_pq(np.sqrt(e)))))


class TestClosedFormSpectra:
    def test_dirichlet(self):
        sp = solve("dirichlet", count=10)
        expect = [(k / 2.0) ** 2 for k in range(1, 11)]
        assert_allclose(sp.energies, expect, atol=1e-10)

    def test_neumann(self):
        sp = solve("neumann", count=10)
        expect = [0.0] + [(k / 2.0) ** 2 for k in range(1, 10)]
        assert_allclose(sp.energies, expect, atol=1e-10)

    def test_zaremba(self):
        sp = solve("zaremba", count=10)
        expect = [((2 * k + 1) / 4.0) ** 2 for k in range(10)]
        assert_allclose(sp.energies, expect, atol=1e-10)

    def test_periodic_with_degeneracies(self):
        sp = solve("periodic", count=11)
        expect = [0.0, 1, 1, 4, 4, 9, 9, 16, 16, 25, 25]
        assert_allclose(sp.energies, expect, atol=1e-9)

    def test_pseudo_periodic_split(self):
        alpha = 0.3
        sp = solve("pseudo_periodic", alpha, count=7)
        ks = [0, -1, 1, -2, 2, -3, 3]
        expect = sorted((k + alpha / (2 * np.pi)) ** 2 for k in ks)
        assert_allclose(sp.energies, expect, rtol=1e-9, atol=1e-9)

    def test_zaremba_eigenfunctions(self):
        # sin((2k+1) x / 4) / sqrt(pi)
        sp = solve("zaremba", count=4)
        x = np.linspace(0.3, 6.0, 23)
        for k, got in enumerate(sp.modes.eval_matrix(x)):
            expect = np.sin((2 * k + 1) * x / 4) / np.sqrt(np.pi)
            assert_allclose(got, expect, atol=1e-9)

    def test_dirichlet_eigenfunctions(self):
        sp = solve("dirichlet", count=4)
        x = np.linspace(0.0, 2 * np.pi, 17)
        for k, got in enumerate(sp.modes.eval_matrix(x), start=1):
            assert_allclose(got, np.sin(k * x / 2) / np.sqrt(np.pi), atol=1e-9)


class TestSecularOracles:
    def test_dirichlet_zero_at_one(self):
        bc = fb.make_preset("dirichlet")
        assert abs(pencil_det(bc, 1.0)) < 1e-12

    def test_dirichlet_frozen_value(self):
        bc = fb.make_preset("dirichlet")
        got = pencil_det(bc, 0.5)
        assert got.real == pytest.approx(SECULAR_DIRICHLET_HALF, abs=1e-9)
        assert abs(got.imag) < 1e-12
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        oracle = -4 * mp.sin(2 * mp.pi / mp.sqrt(2))
        assert got.real == pytest.approx(float(oracle), abs=1e-12)

    def test_periodic_pencil_vanishes_identically(self):
        # at e = 1 the periodic pencil is the zero matrix, not just singular
        bc = fb.make_preset("periodic")
        p, q = fs._trig_pq(1.0)
        m = fs._pencil(bc.matrix, p, q)
        assert np.abs(m).max() < 1e-12
        assert abs(pencil_det(bc, 1.0)) < 1e-12


class TestModeInvariants:
    CASES = [
        ("periodic", ()), ("dirichlet", ()), ("neumann", ()), ("zaremba", ()),
        ("robin", (np.pi / 2,)), ("robin", (-np.pi / 2,)),
        ("delta", (1.0,)), ("delta", (-6.0,)),
        ("pseudo_periodic", (0.8,)), ("dirichlet_robin", (1.9,)),
    ]

    @pytest.mark.parametrize("name,params", CASES)
    def test_boundary_residuals(self, name, params):
        sp = solve(name, *params, count=14)
        for e, data in zip(sp.energies, zip(*fs.mode_boundary_data(sp))):
            res = fb.boundary_residual(sp.bc, data)
            assert res <= 1e-8 * (1 + np.sqrt(abs(e)))

    @pytest.mark.parametrize("name,params", CASES)
    def test_orthonormality(self, name, params):
        sp = solve(name, *params, count=14)
        assert fs.orthonormality_check(sp) < 1e-8

    def test_random_unitaries(self):
        rng = np.random.default_rng(2024)
        for _ in range(4):
            bc = fb.make_boundary(random_unitary(rng))
            sp = fs.solve_spectrum(bc, count=12)
            assert fs.orthonormality_check(sp) < 1e-8
            for e, data in zip(sp.energies, zip(*fs.mode_boundary_data(sp))):
                res = fb.boundary_residual(bc, data)
                assert res <= 1e-7 * (1 + np.sqrt(abs(e)))
            assert np.all(np.diff(sp.energies) > -1e-9)

    def test_modes_sorted_and_indexed(self):
        sp = solve("delta", -1.0, count=9)
        assert np.all(np.diff(sp.energies) >= -1e-12)


class TestBoundStates:
    def test_delta_attractive_single(self):
        sp = solve("delta", -1.0, count=4)
        neg = sp.energies[sp.energies < 0]
        assert len(neg) == 1
        # kappa solves tanh(pi k) = ... ; deep-well expansion checked instead
        assert -0.4 < neg[0] < -0.2

    def test_delta_deep_well(self):
        sp = solve("delta", -40.0, count=2)
        # kappa -> |c|/2 with exponentially small correction
        assert sp.energies[0] == pytest.approx(-400.0, abs=1e-6)
        x = np.linspace(0, 2 * np.pi, 101)
        vals = sp.modes.eval_matrix(x)[0]
        assert np.all(np.isfinite(vals))
        # decays to nothing mid-box, peaks at the junction
        assert abs(vals[50]) < 1e-20
        assert abs(vals[0]) > 1.0

    def test_robin_attractive_pair(self):
        sp = solve("robin", -np.pi / 2, count=5)
        neg = sp.energies[sp.energies < 0]
        assert len(neg) == 2
        # both near E = -1 (inward coefficient -1 at both edges), split by
        # tunneling across the box
        assert_allclose(neg, [-1.00733, -0.99238], atol=1e-4)

    def test_repulsive_robin_has_no_bound_states(self):
        sp = solve("robin", np.pi / 2, count=8)
        assert np.all(sp.energies > 0)

    @pytest.mark.parametrize("name,param", [
        ("robin", 3.14159), ("dirichlet_robin", 3.14159), ("delta", 50000.0)])
    def test_huge_repulsive_couplings_solve(self, name, param):
        # a coupling that cannot bind scans no bound states
        sp = solve(name, param, count=3)
        assert np.all(sp.modes.kind == fs.TRIG)
        for data in zip(*fs.mode_boundary_data(sp)):
            assert fb.boundary_residual(sp.bc, data) <= 1e-8


class TestDirichletRobin:
    def test_secular_relation_and_normalization(self):
        alpha = np.pi / 2
        sp = solve("dirichlet_robin", alpha, count=6)
        c = np.tan(alpha / 2)
        assert np.all(sp.modes.kind == fs.TRIG)
        for w, a, b in zip(sp.modes.w, sp.modes.a, sp.modes.b):
            assert np.tan(2 * np.pi * w) == pytest.approx(-w / c, abs=1e-8)
            assert abs(a) < 1e-10
            pred = np.sqrt(4 * w / (4 * np.pi * w - np.sin(4 * np.pi * w)))
            assert abs(b) == pytest.approx(pred, abs=1e-10)
        assert 0.25 < sp.modes.w[0] < 0.5


class TestWeyl:
    def test_closed_form_counts(self):
        # exact counting at e_max = 100: Dirichlet has k/2 <= 10, i.e. 20
        sp = solve("dirichlet", e_max=100.0 + 1e-9)
        assert len(sp.modes) == 20
        sp = solve("periodic", e_max=100.0 + 1e-9)
        assert len(sp.modes) == 21
        # the ceiling's margin lands between the two roots of the double at
        # k = 5, which is cut whole
        sp = solve("periodic", e_max=(5.0 / (1.0 + 1e-6)) ** 2)
        assert len(sp.modes) == 9

    @pytest.mark.parametrize("name,params", [
        ("dirichlet", ()), ("periodic", ()), ("zaremba", ()),
        ("robin", (np.pi / 2,)), ("delta", (1.0,)),
    ])
    def test_counting_deviation_small(self, name, params):
        report = fs.weyl_check(fb.make_preset(name, *params), e_max=400.0)
        assert report.max_abs_deviation <= 2.0


def weyl_loop(bc, e_max):
    """weyl_check's rule one energy at a time: the first largest deviation."""
    energies = np.sort(fs.solve_spectrum(bc, e_max=e_max).energies)
    devs = [(abs(j + step - 2.0 * np.sqrt(e)), e)
            for j, e in enumerate(energies) if e >= 0 for step in (0, 1)]
    worst, where = 0.0, 0.0
    for dev, e in devs + [(abs(len(energies) - 2.0 * np.sqrt(e_max)), e_max)]:
        if dev > worst:
            worst, where = dev, e
    return fs.WeylReport(float(worst), float(where), len(energies))


@pytest.mark.parametrize("name,params", [
    ("periodic", ()), ("dirichlet", ()), ("neumann", ()), ("zaremba", ()),
    ("robin", (np.pi / 2,)), ("robin", (-2.5,)), ("delta", (-6.0,)),
])
def test_weyl_check_is_the_loop_rule(name, params):
    bc = fb.make_preset(name, *params)
    for e_max in (400.0, 100.0 + 1e-9, 0.5):
        assert fs.weyl_check(bc, e_max=e_max) == weyl_loop(bc, e_max)


def test_solve_spectrum_argument_validation():
    bc = fb.make_preset("dirichlet")
    with pytest.raises(ValueError):
        fs.solve_spectrum(bc)
    with pytest.raises(ValueError):
        fs.solve_spectrum(bc, count=5, e_max=10.0)
    with pytest.raises(ValueError):
        fs.solve_spectrum(bc, count=0)


def test_count_request_is_exact():
    for n in (1, 2, 7, 23):
        sp = solve("robin", 0.4, count=n)
        assert len(sp.modes) == n


def test_level_count_steps_across_delta_bound_state():
    # the bound state of delta(-1), at E between -1 and -0.05, is the one
    # level the hyp count passes between kappa = sqrt(0.05) and 1
    bc = fb.make_preset("delta", -1.0)
    kappas = np.array([np.sqrt(0.05), 1.0])
    assert list(fs._levels(bc.matrix, "hyp", kappas, fs._alpha_u(bc))) == [0, 1]


class TestDeepWalls:
    """Bound states of strongly attractive walls against closed forms and mpmath."""

    @pytest.mark.parametrize("h", [-60.0, -63.23, -90.0, -120.0, -200.0, -250.0])
    def test_robin_wall_binds_two_states(self, h):
        # each wall binds one state at kappa = -h, up to tunnelling of order
        # exp(-2 pi |h|); the raw matrix carries no coupling label
        alpha = 2.0 * np.arctan(h)
        preset = fb.make_preset("robin", alpha)
        for bc in (preset, fb.make_boundary(preset.matrix)):
            sp = fs.solve_spectrum(bc, count=4)
            assert np.sum(sp.energies < 0) == 2
            assert fs.orthonormality_check(sp) <= 1e-8
            assert_allclose(sp.energies[:2], -np.tan(alpha / 2.0) ** 2, rtol=1e-12, atol=0)

    def test_tunnelling_pair_stays_split(self):
        # even and odd bound states solve k tanh(pi k) = 2.5 and k coth(pi k) = 2.5,
        # 6e-7 apart in relative terms
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        even = mp.findroot(lambda k: k * mp.tanh(mp.pi * k) - 2.5, 2.5)
        odd = mp.findroot(lambda k: k * mp.coth(mp.pi * k) - 2.5, 2.5)
        sp = solve("robin", 2.0 * np.arctan(-2.5), count=4)
        assert list(sp.modes.kind[:2]) == [fs.DECAY, fs.DECAY]
        assert_allclose(sp.energies[:2], [-float(even**2), -float(odd**2)], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [-1e3, -1e4, -3e4])
    def test_deep_delta_matches_mpmath(self, c):
        # the even bound state of the junction solves k tanh(pi k) = -c / 2
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        kappa = mp.findroot(lambda k: k * mp.tanh(mp.pi * k) + mp.mpf(c) / 2, -c / 2)
        sp = solve("delta", c, count=2)
        assert sp.energies[0] == pytest.approx(-float(kappa**2), rel=1e-11, abs=0)


class TestHighCount:
    """Count-2000 spectra against roots found independently of the solver."""

    def test_robin_matches_scalar_secular_equations(self):
        # even and odd modes about the box centre solve
        # w sin(pi w) = h cos(pi w) and w cos(pi w) = -h sin(pi w), h = tan(alpha/2)
        alpha = np.pi / 2
        h = np.tan(alpha / 2)
        secular = (lambda w: w * np.sin(np.pi * w) - h * np.cos(np.pi * w),
                   lambda w: w * np.cos(np.pi * w) + h * np.sin(np.pi * w))
        grid = np.linspace(1e-9, 1005.0, 200_001)
        roots = []
        for f in secular:
            v = f(grid)
            for i in np.flatnonzero(v[:-1] * v[1:] < 0):
                roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15))
        expect = np.sort(roots)[:2000] ** 2
        sp = solve("robin", alpha, count=2000)
        assert_allclose(sp.energies, expect, rtol=1e-12, atol=0)

    def test_dirichlet_closed_form(self):
        k = np.arange(1, 2001)
        assert_allclose(solve("dirichlet", count=2000).energies, (k / 2.0) ** 2,
                        rtol=1e-12, atol=0)

    def test_periodic_closed_form_with_double_roots(self):
        k = np.repeat(np.arange(1, 1001), 2)[:1999]  # each k^2 counted twice
        sp = solve("periodic", count=2000)
        assert_allclose(sp.energies, np.r_[0.0, k**2.0], rtol=1e-12, atol=1e-12)


class TestTieProofPhases:
    """Modes with |first| = |second| coefficient get the first one real positive."""

    @pytest.mark.parametrize("name,params,sector", [
        ("robin", (-np.pi / 2,), "hyp"),
        ("pseudo_periodic", (0.7,), "trig"),
    ])
    def test_first_coefficient_real_positive_and_stable(self, name, params, sector):
        bc = fb.make_preset(name, *params)
        alpha = fs._alpha_u(bc)
        x_hi = fs._kappa_top(bc.matrix) if sector == "hyp" else 40.0
        xs, sizes = fs._roots(bc.matrix, sector, x_hi, alpha)
        _, rows = fs._sector_modes(bc.matrix, sector, xs, sizes)
        mag = np.abs(rows)
        tie = np.abs(mag[:, 0] - mag[:, 1]) <= 1e-12 * mag.max(axis=1)
        assert tie.sum() >= 2
        assert np.all(rows[tie, 0].real > 0)
        assert np.all(rows[tie, 0].imag == 0.0)
        for shift in (1e-14, -1e-14):
            _, moved = fs._sector_modes(bc.matrix, sector, xs * (1 + shift), sizes)
            assert_allclose(moved[tie], rows[tie], atol=1e-9)

    def test_solved_modes_carry_the_rule(self):
        fam = solve("robin", -np.pi / 2, count=4).modes
        c1 = fam.a[fam.kind == fs.DECAY]
        assert len(c1) == 2
        assert np.all(c1.real > 0) and np.all(c1.imag == 0.0)
        fam = solve("pseudo_periodic", 0.7, count=20).modes
        assert np.all(fam.a.real > 0) and np.all(fam.a.imag == 0.0)


def test_mode_ceiling_raises_before_scanning():
    # the Weyl count (count, or 2 sqrt(e_max) + 2) is checked against
    # MAX_LEVELS before any scan array is allocated
    bc = fb.make_preset("dirichlet")
    for kwargs in ({"e_max": 1e12}, {"e_max": np.inf}, {"count": fs.MAX_LEVELS + 1}):
        with pytest.raises(ValueError, match="ceiling"):
            fs.solve_spectrum(bc, **kwargs)
    e_top = ((fs.MAX_LEVELS - 2) / 2.0) ** 2
    with pytest.raises(ValueError, match="ceiling"):
        fs.solve_spectrum(bc, e_max=e_top * 1.001)
    # a huge attractive coupling solves: bisection on the level count needs
    # no scan grid, whatever the depth of the bound state
    sp = fs.solve_spectrum(fb.make_preset("delta", -1e5), count=3)
    assert sp.energies[0] == pytest.approx(-2.5e9, rel=1e-9, abs=0)
