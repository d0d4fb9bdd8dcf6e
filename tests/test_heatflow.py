"""Theta functions, the four propagator families, and loop-weight machinery."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from fermibox import analysis as an
from fermibox import heatflow as hf
from fermibox.kernels import finite_t_kernel, finite_t_modes
from fermibox.sampling import RngSpec, make_rng, sample_grand_canonical_many
from fermibox.thermo import solve_mu

RNG = np.random.default_rng(615)
TWO_PI = 2.0 * np.pi


def gauss_legendre(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# theta functions


def test_theta3_dual_representations_agree():
    # the series and image forms overlap at the t=1 switchover
    for t in (0.05, 0.31, 0.97, 1.0, 1.03, 4.0, 20.0):
        for z in (0.0, 0.13, 0.3, 0.5, 0.77, 2.3, -1.4):
            series = 1.0 + 2.0 * sum(
                np.exp(-t * k * k) * np.cos(TWO_PI * k * z) for k in range(1, 60)
            )
            assert_allclose(hf.theta3(z, t), series, rtol=0, atol=1e-12), (z, t)


def test_theta3_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t in (0.05, 0.5, 1.0, 5.0):
        for z in (0.0, 0.13, 0.5, 0.77):
            ref = float(mp.jtheta(3, mp.pi * z, mp.exp(-t)))
            assert_allclose(float(hf.theta3(z, t)), ref, rtol=0, atol=1e-13)


def test_theta_half_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t in (0.05, 0.5, 1.0, 5.0):
        for s in (0.0, 0.4, 1.7, 3.0, -2.2):
            ref = float(mp.jtheta(2, s / 2.0, mp.exp(-t)))
            assert_allclose(float(hf._theta_half(s, t)), ref, rtol=0, atol=1e-13)


def test_theta3_periodicity_and_large_time():
    z = RNG.uniform(-2, 2, size=8)
    assert_allclose(hf.theta3(z + 1.0, 0.3), hf.theta3(z, 0.3), atol=1e-12)
    assert_allclose(hf.theta3(z, 60.0), np.ones_like(z), atol=1e-15)


def test_theta3_rejects_bad_time():
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            hf.theta3(0.3, t)


# ---------------------------------------------------------------------------
# propagators


def test_propagator_short_time_gaussian():
    t = 0.01
    p = hf.heat_propagator("A", t)
    d = 0.2
    assert_allclose(p(1.0, 1.0 + d),
                    np.exp(-d * d / (2.0 * t)) / np.sqrt(TWO_PI * t), rtol=1e-12)


def test_propagator_normalization_on_circle():
    p = hf.heat_propagator("A", 0.7)
    xs, w = gauss_legendre(256, 0.0, TWO_PI)
    assert_allclose(np.sum(w * p(1.3, xs)), 1.0, atol=1e-12)


def test_propagator_wall_behavior():
    pB = hf.heat_propagator("B", 0.7)
    pC = hf.heat_propagator("C", 0.7)
    pD = hf.heat_propagator("D", 0.7)
    assert_allclose(pB(0.0, 1.0), 0.0, atol=1e-14)            # absorbing at 0
    assert_allclose(pC(0.0, 1.0), 0.0, atol=1e-14)
    assert_allclose(pC(np.pi, 1.0), 0.0, atol=1e-14)
    h = 1e-6                                                   # reflecting walls
    assert abs(pB(np.pi, 1.0) - pB(np.pi - h, 1.0)) < 1e-5 * h + 1e-9
    assert abs(pD(0.0, 1.0) - pD(h, 1.0)) < 1e-5 * h + 1e-9


def test_chapman_kolmogorov_all_families():
    xg, wg = np.polynomial.legendre.leggauss(512)
    for fam in hf.FAMILIES:
        top = TWO_PI if fam == "A" else np.pi
        xs = 0.5 * top * xg + 0.5 * top
        ws = 0.5 * top * wg
        p1 = hf.heat_propagator(fam, 0.5)
        p2 = hf.heat_propagator(fam, 1.0)
        pts = np.array([0.2, 0.45, 0.8]) * top
        worst = 0.0
        for a in pts:
            for b in pts:
                conv = np.sum(ws * p1(a, xs) * p1(xs, b))
                worst = max(worst, abs(conv - p2(a, b)))
        assert worst < 1e-8, (fam, worst)


def test_family_c_matches_sine_expansion():
    t = 0.8
    tau = 0.5 * t
    p = hf.heat_propagator("C", t)
    x, y = 1.1, 2.3
    direct = (2.0 / np.pi) * sum(
        np.exp(-tau * j * j) * np.sin(j * x) * np.sin(j * y) for j in range(1, 40)
    )
    assert_allclose(float(p(x, y)), direct, atol=1e-13)


def test_propagator_validation():
    with pytest.raises(ValueError):
        hf.heat_propagator("E", 1.0)
    for family in ("A", "C"):
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                hf.heat_propagator(family, t)


# ---------------------------------------------------------------------------
# loop weights


def test_loop_weight_positive_on_random_odd_configs():
    rng = np.random.default_rng(77)
    for t in (0.1, 1.0, 10.0):
        for _ in range(60):
            n = int(rng.choice([1, 3, 5, 7]))
            pts = np.sort(rng.uniform(0, TWO_PI, n))
            if n > 1 and np.min(np.diff(pts)) < 1e-8:
                continue
            logdet, sign = hf.km_log_density("A", t, pts)
            assert sign == 1.0
            assert np.isfinite(logdet)


def test_loop_weight_matches_plain_determinant():
    # wherever the LU determinant is far above its noise floor the factored
    # route must reproduce it
    rng = np.random.default_rng(11)
    checked = 0
    for fam in hf.FAMILIES:
        top = TWO_PI if fam == "A" else np.pi
        for t in (0.1, 0.7):
            for n in (1, 3, 5):
                pts = np.sort(rng.uniform(0.05, top - 0.05, n))
                if n > 1 and np.min(np.diff(pts)) < 1e-3:
                    continue
                p = hf.heat_propagator(fam, t)
                sign, ld_lu = np.linalg.slogdet(p(pts[:, None], pts[None, :]))
                if sign <= 0 or ld_lu < -18:
                    continue
                ld, _ = hf.km_log_density(fam, t, pts)
                assert abs(ld - ld_lu) < 5e-8, (fam, t, n)
                checked += 1
    assert checked > 10


def test_loop_weight_permutation_invariant():
    rng = np.random.default_rng(4)
    pts = np.sort(rng.uniform(0.1, np.pi - 0.1, 5))
    ld, _ = hf.km_log_density("C", 0.8, pts)
    for _ in range(4):
        ld2, _ = hf.km_log_density("C", 0.8, pts[rng.permutation(5)])
        assert abs(ld - ld2) < 1e-12


def test_loop_weight_translation_invariant_single_point():
    a, _ = hf.km_log_density("A", 0.9, [0.4])
    b, _ = hf.km_log_density("A", 0.9, [5.1])
    assert_allclose(a, b, atol=1e-13)


def test_loop_weight_large_time_vandermonde():
    # stationary limit: weight ratios approach squared Vandermonde ratios of
    # the unit-circle points
    def log_vander_sq(pts):
        z = np.exp(1j * pts)
        return float(sum(2.0 * np.log(abs(z[j] - z[i]))
                         for i in range(len(pts)) for j in range(i + 1, len(pts))))

    rng = np.random.default_rng(31)
    a = np.sort(rng.uniform(0, TWO_PI, 5))
    b = np.sort(rng.uniform(0, TWO_PI, 5))
    lr = hf.km_log_density("A", 20.0, a)[0] - hf.km_log_density("A", 20.0, b)[0]
    vr = log_vander_sq(a) - log_vander_sq(b)
    assert abs(lr - vr) < 1e-6


def test_loop_weight_validation():
    with pytest.raises(ValueError):
        hf.km_log_density("A", 1.0, [0.5, 1.5])         # even count on circle
    with pytest.raises(ValueError):
        hf.km_log_density("C", 1.0, [0.0, 1.0])         # on the absorbing wall
    with pytest.raises(ValueError):
        hf.km_log_density("A", 0.0, [0.5])
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError):
            hf.km_log_density("C", t, [0.5, 1.5])
    with pytest.raises(hf.NonPositiveDeterminant):
        hf.km_log_density("C", 1.0, [0.7, 0.7, 1.2])    # coincident pair


def test_loop_weight_rejects_nan_points():
    # NaN passes both range comparisons, so finiteness has its own check
    for fam in ("A", "B"):
        with pytest.raises(ValueError, match="finite"):
            hf.km_log_density(fam, 1.0, [np.nan, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Metropolis chain


def test_mcmc_uniform_marginal_on_circle():
    # translation invariance forces a flat 1-point marginal at any t
    samples, rate = hf.km_mcmc("A", 0.5, 3, 20000, RngSpec(99), step=0.8,
                               thin=10, burn=2000)
    assert 0.1 < rate < 0.9
    pts = samples.ravel()
    hist, _ = np.histogram(pts, bins=8, range=(0.0, TWO_PI))
    expect = len(pts) / 8.0
    z = (hist - expect) / np.sqrt(expect)
    # thinned chain values stay correlated, so allow inflated variance
    assert np.max(np.abs(z)) < 8.0


def test_mcmc_stays_in_interval_domain():
    samples, rate = hf.km_mcmc("C", 0.5, 4, 4000, RngSpec(7), step=0.3, thin=5)
    assert rate > 0.1
    assert samples.min() > 0.0 and samples.max() < np.pi
    assert np.all(np.diff(samples, axis=1) > 0)


def test_mcmc_detailed_balance_ratio():
    # empirical visit ratio of two coarse cells matches the density ratio
    samples, _ = hf.km_mcmc("D", 1.0, 1, 40000, RngSpec(12), step=0.7,
                            thin=5, burn=1000)
    pts = samples.ravel()
    a_mask = (pts > 0.3) & (pts < 0.7)
    b_mask = (pts > 2.0) & (pts < 2.4)
    p = hf.heat_propagator("D", 1.0)
    xs_a = np.linspace(0.3, 0.7, 64)
    xs_b = np.linspace(2.0, 2.4, 64)
    want = np.mean(p(xs_a, xs_a)) / np.mean(p(xs_b, xs_b))
    got = np.sum(a_mask) / max(np.sum(b_mask), 1)
    assert abs(got / want - 1.0) < 0.25


def test_mcmc_validation_and_warning():
    with pytest.raises(ValueError):
        hf.km_mcmc("A", 1.0, 2, 100, RngSpec(0))
    with pytest.raises(ValueError):
        hf.km_mcmc("C", 1.0, 2, 100, RngSpec(0), step=-0.1)
    for t, step in ((np.nan, 0.25), (np.inf, 0.25), (1.0, np.nan)):
        with pytest.raises(ValueError):
            hf.km_mcmc("A", t, 3, 10, RngSpec(0), step=step)
    # a crowded frozen chain with huge steps almost never finds its slot
    with pytest.warns(UserWarning):
        hf.km_mcmc("C", 0.1, 150, 1200, RngSpec(0), step=30.0, thin=400)


def test_mcmc_burn_past_the_chain_keeps_the_sample_shape():
    samples, _ = hf.km_mcmc("C", 0.5, 3, 50, RngSpec(1), burn=100)
    assert samples.shape == (0, 3)


def _qr_mode_factor(family, tau, points):
    """The mode factor as one expression per family, rebuilt from scratch."""
    k_max = len(points) + int(np.ceil(np.sqrt(120.0 / tau))) + 1
    if family == "A":
        k_max = (len(points) + 1) // 2 + int(np.ceil(np.sqrt(120.0 / tau))) + 1
        ks = np.arange(-k_max, k_max + 1, dtype=float)
        return np.exp(1j * np.outer(points, ks) - 0.5 * tau * ks**2) / np.sqrt(TWO_PI)
    if family == "B":
        ks = np.arange(0, k_max + 1, dtype=float) + 0.5
        return np.sqrt(2.0 / np.pi) * np.sin(np.outer(points, ks)) * np.exp(-0.5 * tau * ks**2)
    if family == "C":
        ks = np.arange(1, k_max + 1, dtype=float)
        return np.sqrt(2.0 / np.pi) * np.sin(np.outer(points, ks)) * np.exp(-0.5 * tau * ks**2)
    ks = np.arange(0, k_max + 1, dtype=float)
    g = np.sqrt(2.0 / np.pi) * np.cos(np.outer(points, ks)) * np.exp(-0.5 * tau * ks**2)
    g[:, 0] = 1.0 / np.sqrt(np.pi)
    return g


def _qr_logdet(family, t, points):
    g = _qr_mode_factor(family, 0.5 * t, points)
    r = scipy.linalg.qr(g.conj().T, mode="r", pivoting=True)[0]
    diag = np.abs(np.diagonal(r))[: len(points)]
    if np.any(diag == 0.0):
        return -np.inf
    return float(2.0 * np.sum(np.log(diag)))


def _qr_chain(family, t, n, steps, rng, step, thin, burn):
    """km_mcmc's Metropolis chain, refactoring the whole configuration per step."""
    rng = make_rng(rng)
    top = TWO_PI if family == "A" else np.pi
    x = top * np.arange(1, n + 1) / (n + 1.0)
    logp = _qr_logdet(family, t, x)
    kept, accepted = [], 0
    lo_edge = 0.0 if family == "A" else np.nextafter(0.0, 1.0)
    for it in range(steps):
        i = int(rng.integers(n))
        xi = hf._fold(family, x[i] + step * rng.standard_normal(), top)
        if (xi >= (x[i - 1] if i > 0 else lo_edge)
                and xi < (x[i + 1] if i + 1 < n else top)
                and (family == "A" or xi > 0.0)
                and (i == 0 or xi != x[i - 1])):
            cand = x.copy()
            cand[i] = xi
            lp2 = _qr_logdet(family, t, cand)
            if np.isfinite(lp2) and np.log(rng.random()) < lp2 - logp:
                x, logp = cand, lp2
                accepted += 1
        if it >= burn and (it - burn) % thin == 0:
            kept.append(x.copy())
    return np.array(kept), accepted / steps


@pytest.mark.parametrize("family, t, n", [
    ("A", 1.0, 7), ("A", 0.3, 1), ("B", 0.3, 4), ("B", 2.0, 1),
    ("C", 0.5, 5), ("C", 0.05, 1), ("D", 1.0, 3), ("D", 0.2, 1),
])
def test_mcmc_chain_is_bitwise_the_full_refactoring_chain(family, t, n):
    for seed in (2, 97):
        samples, rate = hf.km_mcmc(family, t, n, 700, RngSpec(seed), step=0.4, thin=3, burn=50)
        want, want_rate = _qr_chain(family, t, n, 700, RngSpec(seed), 0.4, 3, 50)
        assert samples.tobytes() == want.tobytes() and samples.shape == want.shape
        assert rate == want_rate and rate > 0.05, (seed, rate)
        assert n == 1 or rate < 0.95, (seed, rate)     # rejections restore a row


def test_loop_logdet_is_bitwise_the_scipy_qr_route():
    rng = np.random.default_rng(2024)
    for fam in hf.FAMILIES:
        top = TWO_PI if fam == "A" else np.pi
        for _ in range(200):
            n = int(rng.choice([1, 3, 5, 7, 9]) if fam == "A" else rng.integers(1, 10))
            pts = np.sort(rng.uniform(0.0, top, n))
            t = float(np.exp(rng.uniform(np.log(0.02), np.log(20.0))))
            assert hf._loop_logdet(fam, t, pts) == _qr_logdet(fam, t, pts), (fam, t, pts)


# ---------------------------------------------------------------------------
# grand-canonical mixture


def test_gc_mixture_check_small_run():
    energies = np.sort(np.array(
        [float(k * k) for k in range(0, 30) for _ in range(1 if k == 0 else 2)]))
    mu = solve_mu(energies, 1.0, 7.0)
    rep = hf.gc_mixture_check("A", 1.0, mu, 24, 600, RngSpec(4242))
    assert rep.loop_time == 2.0
    assert abs(rep.mean_count - 7.0) < 0.5
    assert np.max(np.abs(rep.density_z)) < 4.0
    assert rep.pair_fraction_above_3 <= 1.0 / 24.0 + 1e-9
    with pytest.raises(ValueError):
        hf.gc_mixture_check("B", 1.0, mu, 24, 10, RngSpec(0))


def test_gc_mixture_check_uses_the_analysis_estimators():
    t, bins, samples = 1.0, 24, 1000
    ks = np.arange(-12, 13)
    mu = solve_mu(ks.astype(float) ** 2, t, 7.0)
    rep = hf.gc_mixture_check("A", t, mu, bins, samples, RngSpec(31))
    fam = finite_t_modes("periodic", t, mu)
    draws = sample_grand_canonical_many(fam, t, mu, samples, RngSpec(31))
    dens = rep.expected_count / TWO_PI
    density = an.estimate_density(draws, bins)
    pair = an.estimate_pair_correlation(draws, bins, reduced=True)
    kern = finite_t_kernel("periodic", t, mu)
    rho2 = an.bin_average(lambda s: dens**2 - kern(s, np.zeros_like(s)) ** 2,
                          0.0, TWO_PI, bins)
    assert_allclose(rep.density_z, (density.values - dens) / density.stderr,
                    rtol=0, atol=1e-12)
    assert_allclose(rep.pair_z, (pair.values - rho2) / pair.stderr,
                    rtol=0, atol=1e-12)


def test_gc_mixture_check_refuses_bins_with_zero_stderr():
    # About 7 points a draw spread over 400 bins: some density and separation
    # bins stay empty in all 100 draws, so they have no z-score.
    ks = np.arange(-12, 13)
    mu = solve_mu(ks.astype(float) ** 2, 1.0, 7.0)
    with pytest.raises(ValueError, match="zero standard error"):
        hf.gc_mixture_check("A", 1.0, mu, 400, 100, RngSpec(1))
    rep = hf.gc_mixture_check("A", 1.0, mu, 24, 100, RngSpec(1))
    assert np.all(np.isfinite(rep.density_z)) and np.all(np.isfinite(rep.pair_z))
