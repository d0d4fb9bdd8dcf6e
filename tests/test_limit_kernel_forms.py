"""Closed-form limit kernels and the fixed Fermi rule against mpmath.

`kernels` evaluates the Robin and scatterer integrals through the
exponential integral and the two Fermi integrals (the finite-temperature
sine kernel and Li_{1/2}) by one composite Gauss-Legendre rule.  Each is
checked here against a 20-digit mpmath quadrature of its defining integral
to 1e-13 absolute, over grids in the coupling c, the separation s = x + y
and the band edge U = sqrt(e) / pi: s = 0, s = 1e-13, s below and far
above 1/c, and c s > 30, where the continued fraction of e^z E1(z) takes
over.
"""

import numpy as np
import pytest

import fermibox.kernels as kn
from fermibox.thermo import polylog_half, solve_lambda

mp = pytest.importorskip("mpmath")

TOL = 1e-13
S_VALUES = (0.0, 1e-13, 0.05, 0.7, 2.6, 8.0)
U_VALUES = (0.0, 0.4, 2.5)


def _quad(f, top, s):
    """mpmath quadrature on [0, top], split so no piece spans two periods of cos(pi s u)."""
    n = int(np.ceil(abs(s) * top / 4.0)) + 1
    return mp.quad(f, [mp.mpf(top) * i / n for i in range(n + 1)])


def mp_half_line_robin(c, u_max, x, y):
    d, s = mp.mpf(x) - y, mp.mpf(x) + y

    def f(u):
        robin = 2 * c * (c * mp.cos(mp.pi * s * u) - mp.pi * u * mp.sin(mp.pi * s * u)) \
            / (c * c + mp.pi ** 2 * u * u)
        return mp.cos(mp.pi * d * u) + mp.cos(mp.pi * s * u) - robin

    return float(_quad(f, u_max, abs(d) + s))


def mp_delta_line(c, u_max, x, y):
    d, s = mp.mpf(x) - y, mp.mpf(abs(x)) + abs(y)

    def f(u):
        w = 2 * mp.pi * u
        tail = c * (w * mp.sin(mp.pi * s * u) - c * mp.cos(mp.pi * s * u)) / (w * w + c * c)
        return mp.cos(mp.pi * d * u) + tail

    return float(_quad(f, u_max, abs(d) + s))


def mp_fermi_sine(c, lam, d):
    f = lambda u: mp.cos(mp.pi * d * u) / (1 + mp.exp(u * u / c) / lam)
    # past 12 sqrt(c) + the Fermi step the integrand is below e^-140
    top = 12 * np.sqrt(c) + np.sqrt(c * max(np.log(lam), 0.0))
    return float(_quad(f, top, d))


def _pairs(s_values):
    """(x, y) points on the half-line with x + y = s and a few separations."""
    return [(0.5 * s + h, 0.5 * s - h) for s in s_values for h in {0.0, 0.5 * s}]


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(20):
        yield


@pytest.mark.parametrize("c", [0.05, 1.0, 7.0, 40.0])
def test_half_line_robin_closed_form(c):
    for u_max in U_VALUES:
        k = kn.half_line_robin_projection(c, (np.pi * u_max) ** 2)
        for x, y in _pairs(S_VALUES):
            assert abs(k(x, y) - mp_half_line_robin(c, u_max, x, y)) < TOL, (u_max, x, y)


@pytest.mark.parametrize("c", [0.05, 1.0, 7.0, 40.0])
def test_robin_edge_closed_form(c):
    k = kn.kernel_robin_edge(c)
    for x, y in _pairs(S_VALUES):
        assert abs(k(x, y) - mp_half_line_robin(c, 1.0, x, y)) < TOL, (x, y)


@pytest.mark.parametrize("c", [0.0, 0.1, 1.0, 6.0, 80.0])
def test_delta_edge_closed_form(c):
    k = kn.kernel_delta_edge(c)
    for x, y in _pairs(S_VALUES):
        assert abs(k(x, y) - mp_delta_line(c, 1.0, x, y)) < TOL, (x, y)


@pytest.mark.parametrize("c", [0.0, 0.1, 1.0, 6.0, 80.0])
def test_delta_line_closed_form(c):
    for u_max in U_VALUES:
        k = kn.delta_line_projection(c, (np.pi * u_max) ** 2)
        for x, y in [(0.0, 0.0), (0.3, -0.9), (-1.2, -0.4), (2.5, 1.6), (-4.0, 3.5)]:
            assert abs(k(x, y) - mp_delta_line(c, u_max, x, y)) < TOL, (u_max, x, y)


def test_large_coupling_uses_continued_fraction_range():
    # c s = 40 x 8 and 80 x 8: the exponential integral's argument is far
    # past the switch to the continued fraction
    assert 40.0 * 8.0 > 30.0 and abs(8.0 * complex(40.0, -np.pi)) > kn.E1_SWITCH
    z = np.array([2.001, 2.001j, 31.0 - 2.0j, 4e3 - 9.0j, 1e8 - 3.1j])
    for zi, got in zip(z, kn._scaled_e1(z)):
        w = mp.mpc(zi.real, zi.imag)
        ref = complex(mp.exp(w) * mp.e1(w))
        assert abs(got - ref) < 1e-15 * abs(ref), zi


@pytest.mark.parametrize("c, lam", [(1.0, 3.0), (0.2, None), (1.0, None), (5.0, None)])
def test_finite_t_sine_fixed_rule(c, lam):
    lam = solve_lambda(c) if lam is None else lam
    k = kn.kernel_finite_t_sine(c, lam)
    for d in (0.0, 0.37, 1.0, 2.1, 4.0, 9.5):
        assert abs(k(d, 0.0) - mp_fermi_sine(c, lam, d)) < TOL, d


def test_polylog_half_fixed_rule():
    for lam in (1e-8, 0.03, 1.0, 3.0, 40.0, 1e4, 1e12):
        ref = float(mp.re(mp.polylog(mp.mpf("0.5"), -mp.mpf(lam))))
        assert abs(polylog_half(lam) - ref) < TOL, lam


def test_fermi_rule_refuses_inputs_it_cannot_resolve():
    # a nan or infinite parameter would never close the panel loop, and an
    # enormous scaled temperature would ask for millions of nodes
    with pytest.raises(ValueError):
        polylog_half(float("nan"))
    with pytest.raises(ValueError):
        kn.kernel_finite_t_sine(float("nan"), 2.0)
    for c, lam in ((1.0, float("inf")), (float("inf"), 2.0), (1e12, 3.0)):
        k = kn.kernel_finite_t_sine(c, lam)
        with pytest.raises(ValueError):
            k(0.3, 0.0)
