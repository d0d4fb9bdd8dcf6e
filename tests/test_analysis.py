"""Estimators, kernel distances, and the scaling studies.

The estimator checks lean on synthetic Poisson data, where the binned
moments are known exactly, and on small determinantal ensembles with
closed-form correlation functions.  The study checks replay shortened
versions of the committed convergence runs and compare against the frozen
baselines.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from fermibox import analysis as an
from fermibox import baselines as bl
from fermibox.boundary import make_boundary, make_preset
from fermibox.kernels import (finite_t_kernel, ground_state_kernel,
                              ground_state_modes, group_kernel,
                              kernel_delta_edge, kernel_sine, sn_ratio)
from fermibox.sampling import RngSpec, make_rng, sample_projection_many
from fermibox.thermo import solve_mu

TWO_PI = 2.0 * np.pi


def poisson_samples(rng, count, mean_points, lo=0.0, hi=TWO_PI):
    return [np.sort(rng.uniform(lo, hi, rng.poisson(mean_points)))
            for _ in range(count)]


def bin_average(fn, edges, refine=8):
    """Average fn over each cell of edges x edges (midpoint subgrid)."""
    nb = edges.size - 1
    fine = np.linspace(edges[0], edges[-1], nb * refine + 1)
    mids = 0.5 * (fine[:-1] + fine[1:])
    vals = fn(mids[:, None], mids[None, :])
    return vals.reshape(nb, refine, nb, refine).mean(axis=(1, 3))


# ---------------------------------------------------------------------------
# density estimator


def test_density_single_mode_is_flat():
    family = ground_state_modes("periodic", 1)
    draws = sample_projection_many(family, 300, RngSpec(411))
    est = an.estimate_density(list(draws), 12)
    z = (est.values - 1.0 / TWO_PI) / est.stderr
    assert est.n_samples == 300
    assert np.max(np.abs(z)) < 4.5


def test_density_integral_is_particle_count():
    rng = make_rng(RngSpec(412))
    draws = [np.sort(rng.uniform(0, TWO_PI, 7)) for _ in range(150)]
    est = an.estimate_density(draws, 16)
    width = np.diff(np.linspace(0, TWO_PI, 17))
    assert_allclose(np.sum(est.values * width), 7.0, rtol=1e-12)


def test_density_matches_absorbing_ground_state():
    n, bins, count = 7, 24, 800
    family = ground_state_modes("dirichlet", n)
    draws = sample_projection_many(family, count, RngSpec(413))
    est = an.estimate_density(list(draws), bins)
    edges = np.linspace(0, TWO_PI, bins + 1)
    kern = ground_state_kernel("dirichlet", n)
    fine = np.linspace(0, TWO_PI, bins * 16 + 1)
    mids = 0.5 * (fine[:-1] + fine[1:])
    avg = kern(mids, mids).reshape(bins, 16).mean(axis=1)
    expected = count * avg * np.diff(edges)
    observed = est.values * count * np.diff(edges)
    chi2 = np.sum((observed - expected) ** 2 / expected)
    p = stats.chi2.sf(chi2, df=bins - 1)
    assert p > 0.01, f"chi2={chi2:.1f}, p={p:.4f}"


def test_density_validation():
    rng = make_rng(RngSpec(1))
    draws = [rng.uniform(0, TWO_PI, 3) for _ in range(150)]
    with pytest.raises(ValueError):
        an.estimate_density([], 8)
    with pytest.raises(ValueError):
        an.estimate_density(draws[:50], 8)
    with pytest.raises(ValueError):
        an.estimate_density(draws, 3)
    with pytest.raises(ValueError):
        an.estimate_density(draws, np.array([0.0, 1.0, 0.5, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# pair estimator


def test_pair_correlation_cue_oracle():
    n, bins, count = 7, 12, 1500
    kern = group_kernel("U", n)
    draws = sample_projection_many(ground_state_modes("periodic", n),
                                   count, RngSpec(414))
    est = an.estimate_pair_correlation(list(draws), bins)
    edges = np.linspace(0, TWO_PI, bins + 1)

    def rho2(x, y):
        return (n / TWO_PI) ** 2 - np.asarray(kern(x, y)) ** 2

    avg = bin_average(rho2, edges)
    area = np.diff(edges)[:, None] * np.diff(edges)[None, :]
    expected = count * avg * area
    observed = est.values * count * area
    z = (observed - expected) / np.sqrt(np.maximum(expected, 1e-9))
    frac = np.mean(np.abs(z) > 3.0)
    assert frac < 0.01, f"{frac:.3f} of bins off by more than 3 sigma"


def test_pair_correlation_diagonal_repulsion():
    n, count = 7, 1200
    draws = sample_projection_many(ground_state_modes("periodic", n),
                                   count, RngSpec(415))
    est = an.estimate_pair_correlation(list(draws), 40, reduced=True)
    flat = (n / TWO_PI) ** 2
    assert est.values[0] < 0.25 * flat
    mid = est.values[15:25].mean()
    assert abs(mid - flat) < 0.2 * flat


def test_pair_correlation_poisson_control_is_flat():
    rng = make_rng(RngSpec(416))
    mean_points = 9.0
    draws = poisson_samples(rng, 1400, mean_points)
    est = an.estimate_pair_correlation(draws, 8)
    rho = mean_points / TWO_PI
    z = (est.values - rho ** 2) / np.where(est.stderr > 0, est.stderr, 1.0)
    assert np.max(np.abs(z)) < 4.5
    assert abs(np.mean(est.values) / rho ** 2 - 1.0) < 0.05


def test_pair_correlation_validation():
    rng = make_rng(RngSpec(2))
    draws = [rng.uniform(0, TWO_PI, 4) for _ in range(100)]
    with pytest.raises(ValueError):
        an.estimate_pair_correlation(draws, 8)


def _histogram_loop(configs, edges, reduced=None):
    """The per-draw np.histogram loop the estimators replace: (counts, squares)."""
    nb, length = edges.size - 1, TWO_PI
    counts = np.zeros(nb if reduced is not False else (nb, nb))
    squares = np.zeros_like(counts)
    for pts in configs:
        if reduced is None:
            h = np.histogram(pts, bins=edges)[0]
        elif pts.size < 2:
            continue
        elif reduced:
            sep = (pts[:, None] - pts[None, :]) % length
            h = np.histogram(sep[~np.eye(pts.size, dtype=bool)], bins=edges)[0]
        else:
            xi, yj = np.repeat(pts, pts.size), np.tile(pts, pts.size)
            keep = xi != yj
            h = np.histogram2d(xi[keep], yj[keep], bins=(edges, edges))[0]
        counts += h
        squares += h.astype(float) ** 2
    return counts, squares


@pytest.mark.parametrize("block", [an.PAIR_BLOCK, 50])
def test_binned_estimators_equal_a_per_draw_histogram_loop(monkeypatch, block):
    # points on bin edges, on both ends of the support, outside it, repeated
    # within a draw, and draws of 0 and 1 points
    monkeypatch.setattr(an, "PAIR_BLOCK", block)
    rng = make_rng(RngSpec(419))
    edges = np.sort(np.concatenate([[0.0, TWO_PI], rng.uniform(0, TWO_PI, 10)]))
    special = np.concatenate([edges, [-0.5, TWO_PI + 0.5, 7.0]])
    configs = []
    for _ in range(1000):
        k = rng.integers(0, 12)
        pts = np.where(rng.random(k) < 0.3, rng.choice(special, k), rng.uniform(0, TWO_PI, k))
        configs.append(np.sort(pts))
    configs[5] = np.array([edges[3], edges[3], 1.0])
    m = len(configs)
    width = np.diff(edges)

    counts, _ = _histogram_loop(configs, edges)
    est = an.estimate_density(configs, edges)
    assert np.array_equal(est.values, counts / (m * width))
    assert np.array_equal(est.stderr, np.sqrt(counts) / (m * width))

    for reduced in (True, False):
        counts, squares = _histogram_loop(configs, edges, reduced)
        scale, cell = (TWO_PI, width) if reduced else (1.0, width[:, None] * width[None, :])
        spread = np.sqrt(np.maximum(squares - counts ** 2 / m, 0.0) / (m - 1))
        est = an.estimate_pair_correlation(configs, edges, reduced=reduced)
        assert np.array_equal(est.values, counts / (m * scale * cell)), reduced
        assert np.array_equal(est.stderr, spread / (np.sqrt(m) * scale * cell)), reduced


# ---------------------------------------------------------------------------
# unbiasedness of the binned estimators on synthetic data


def _anderson_1pct(n: int) -> float:
    """The 1% critical value of the Anderson-Darling normality statistic
    (mean and variance estimated), as scipy tabulated it before 1.17."""
    return round(1.035 / (1 + 0.75 / n + 2.25 / n ** 2), 3)


def test_density_z_scores_standard_normal_on_poisson_data():
    rng = make_rng(RngSpec(417))
    mean_points = 9.0
    draws = poisson_samples(rng, 400, mean_points)
    est = an.estimate_density(draws, 16)
    z = (est.values - mean_points / TWO_PI) / est.stderr
    result = stats.anderson(z, dist="norm", method="interpolate")
    assert result.statistic < _anderson_1pct(z.size)
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert 0.6 < z.std() < 1.4


def test_pair_z_scores_standard_normal_on_poisson_data():
    rng = make_rng(RngSpec(418))
    mean_points = 9.0
    draws = poisson_samples(rng, 1100, mean_points)
    est = an.estimate_pair_correlation(draws, 8)
    rho = mean_points / TWO_PI
    z = ((est.values - rho ** 2) / est.stderr).ravel()
    result = stats.anderson(z, dist="norm", method="interpolate")
    assert result.statistic < _anderson_1pct(z.size)
    assert 0.6 < z.std() < 1.4


# ---------------------------------------------------------------------------
# kernel distance


def test_kernel_distance_identical_is_zero():
    grid = (np.linspace(0, TWO_PI, 9), np.linspace(0, TWO_PI, 9))
    k = group_kernel("U", 5)
    d = an.kernel_distance(k, k, grid)
    assert d == {"sup": 0.0, "l2": 0.0}


def test_kernel_distance_cross_implementation():
    xs = np.linspace(0.05, TWO_PI - 0.05, 32)
    closed = ground_state_kernel("dirichlet", 7)
    solved = ground_state_kernel(make_boundary(-np.eye(2)), 7)
    d = an.kernel_distance(closed, solved, (xs, xs))
    assert d["sup"] <= 1e-10


def test_kernel_distance_sine_vs_zero_strength_scatterer():
    xs = np.linspace(0.0, 2.0, 12)
    d = an.kernel_distance(kernel_sine(), kernel_delta_edge(0.0), (xs, xs))
    assert d["sup"] < 1e-9


def test_kernel_distance_is_a_metric_on_grids():
    xs = np.linspace(0.1, 5.0, 10)
    grid = (xs, xs)
    ka = group_kernel("U", 3)
    kb = group_kernel("U", 5)
    kc = kernel_sine()
    for name in ("sup", "l2"):
        ab = an.kernel_distance(ka, kb, grid)[name]
        ba = an.kernel_distance(kb, ka, grid)[name]
        ac = an.kernel_distance(ka, kc, grid)[name]
        bc = an.kernel_distance(kb, kc, grid)[name]
        assert_allclose(ab, ba, rtol=1e-13)
        assert ac <= ab + bc + 1e-12


# ---------------------------------------------------------------------------
# bulk study


def test_bulk_study_periodic_odd_sizes():
    rep = an.bulk_scaling_study("periodic", np.pi, (25, 101))
    assert rep.distances[1] < rep.distances[0]
    assert rep.fitted_rate < 0


def test_bulk_study_dirichlet_rate_is_one_over_n():
    rep = an.bulk_scaling_study("dirichlet", np.pi, (25, 50, 100))
    assert all(b < a for a, b in zip(rep.distances, rep.distances[1:]))
    assert abs(rep.fitted_rate + 1.0) < 0.1
    check = bl.compare_to_baseline("bulk", "dirichlet", rep)
    assert check["passed"], check


def test_bulk_study_twisted_closure_uses_modulus():
    # The twisted kernel carries a position-dependent phase; the study
    # compares moduli, which converge to the sine kernel all the same.
    bc = make_preset("pseudo_periodic", 0.7)
    rep = an.bulk_scaling_study(bc, np.pi, (25, 51), grid=np.linspace(-2, 2, 9))
    assert rep.distances[1] < rep.distances[0]
    assert rep.distances[1] < 0.005


def test_bulk_study_validation():
    with pytest.raises(ValueError):
        an.bulk_scaling_study("dirichlet", 0.0, (10, 20))
    with pytest.raises(ValueError):
        an.bulk_scaling_study("dirichlet", TWO_PI, (10, 20))
    with pytest.raises(ValueError):
        an.bulk_scaling_study("dirichlet", np.pi, (20,))
    with pytest.raises(ValueError):
        an.bulk_scaling_study("dirichlet", np.pi, (20, 10))


# ---------------------------------------------------------------------------
# edge study


def test_edge_study_absorbing_wall():
    rep = an.edge_scaling_study("dirichlet", 0.0,
                                {"Limit": {"BesselMinus": {}}}, (25, 50, 100))
    assert all(b < a for a, b in zip(rep.distances, rep.distances[1:]))
    assert abs(rep.fitted_rate + 1.0) < 0.1
    check = bl.compare_to_baseline("edge", "dirichlet@0->BesselMinus", rep)
    assert check["passed"], check


def test_edge_study_mixed_boundary_splits_by_edge():
    bc = make_preset("dirichlet_robin", np.pi / 2)
    left = an.edge_scaling_study(bc, 0.0, {"Limit": {"BesselMinus": {}}},
                                 (25, 50))
    right = an.edge_scaling_study(bc, TWO_PI, {"Limit": {"RobinEdge": {"c": 1.0}}},
                                  (25, 50))
    assert left.distances[1] < left.distances[0]
    assert right.distances[1] < right.distances[0]
    with pytest.raises(ValueError):
        an.edge_scaling_study(bc, 0.0, {"Limit": {"RobinEdge": {"c": 1.0}}},
                              (25, 50))


def test_edge_study_split_mixed_wall_classes():
    at0 = an.edge_scaling_study("zaremba", 0.0, {"Limit": {"BesselMinus": {}}},
                                (25, 50))
    at2pi = an.edge_scaling_study("zaremba", TWO_PI,
                                  {"Limit": {"BesselPlus": {}}}, (25, 50))
    assert at0.distances[1] < at0.distances[0]
    assert at2pi.distances[1] < at2pi.distances[0]


def test_edge_study_scatterer_monotone_tail():
    rep = an.edge_scaling_study(make_preset("delta", 1.0), 0.0,
                                {"Limit": {"DeltaEdge": {"c": 1.0}}},
                                (25, 50, 100))
    assert an.monotone_tail_ok(rep.distances)
    check = bl.compare_to_baseline("edge", "delta:1.0@0->DeltaEdge", rep)
    assert check["passed"], check


def test_edge_study_pairing_validation():
    with pytest.raises(ValueError):
        an.edge_scaling_study("dirichlet", 0.0, {"Limit": {"BesselPlus": {}}},
                              (10, 20))
    with pytest.raises(ValueError):
        an.edge_scaling_study(make_preset("robin", np.pi / 2), 0.0,
                              {"Limit": {"RobinEdge": {"c": 2.0}}}, (10, 20))
    with pytest.raises(ValueError):
        an.edge_scaling_study("periodic", 0.0, {"Limit": {"Sine": {}}}, (10, 20))
    with pytest.raises(ValueError):
        an.edge_scaling_study("dirichlet", 1.0, {"Limit": {"BesselMinus": {}}},
                              (10, 20))
    with pytest.raises(ValueError):
        an.edge_scaling_study(make_boundary(np.eye(2)), 0.0,
                              {"Limit": {"BesselPlus": {}}}, (10, 20))


# ---------------------------------------------------------------------------
# finite-temperature study


def test_finite_t_study_hits_quadrature_floor():
    rep = an.finite_t_bulk_study(1.0, (25, 50, 100))
    assert all(d < 1e-10 for d in rep.distances)
    check = bl.compare_to_baseline("finite_t", "c=1.0", rep)
    assert check["passed"], check


def test_finite_t_study_resolvable_regime_decreases():
    rep = an.finite_t_bulk_study(0.2, (10, 25))
    assert rep.distances[0] > 1e-8
    assert rep.distances[1] < rep.distances[0]


def test_thermal_kernel_infinite_temperature_decoheres():
    # At very high temperature with the count held fixed, occupations become
    # Maxwell-Boltzmann: the diagonal keeps the density while off-diagonal
    # correlations die (independent points).
    t, target = 1e6, 21.0
    ks = np.arange(-5000, 5001)
    mu = solve_mu(ks.astype(float) ** 2, t, target)
    kern = finite_t_kernel("periodic", t, mu)
    assert_allclose(kern(np.pi, np.pi), target / TWO_PI, rtol=1e-3)
    assert abs(kern(np.pi, np.pi + 0.5)) < 1e-6 * target / TWO_PI


def test_finite_t_study_validation():
    with pytest.raises(ValueError):
        an.finite_t_bulk_study(-1.0, (10, 20))


# ---------------------------------------------------------------------------
# report and estimate invariants


def test_monotone_tail_semantics():
    assert an.monotone_tail_ok([3.0, 2.0, 1.0])
    assert an.monotone_tail_ok([2.0, 3.0, 1.0])
    assert not an.monotone_tail_ok([1.0, 2.0, 3.0])
    assert not an.monotone_tail_ok([3.0, 1.0, 2.0])


def test_report_invariants():
    with pytest.raises(ValueError):
        an.ScalingReport(sizes=(10, 10), distances=(0.1, 0.2), fitted_rate=0.0)
    with pytest.raises(ValueError):
        an.ScalingReport(sizes=(10, 20), distances=(0.1, -0.2), fitted_rate=0.0)


def test_estimate_invariants():
    good = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        an.CorrelationEstimate(grid=good[::-1], values=np.ones(5),
                               stderr=np.ones(5), n_samples=10)
    with pytest.raises(ValueError):
        an.CorrelationEstimate(grid=good, values=np.array([1, np.inf, 1, 1, 1]),
                               stderr=np.ones(5), n_samples=10)
    with pytest.raises(ValueError):
        an.CorrelationEstimate(grid=good, values=np.ones(5),
                               stderr=-np.ones(5), n_samples=10)


def test_baseline_rejects_unknown_and_disjoint():
    rep = an.ScalingReport(sizes=(11, 13), distances=(0.2, 0.1),
                           fitted_rate=-1.0)
    missing = bl.compare_to_baseline("bulk", "nosuch", rep)
    assert not missing["passed"]
    disjoint = bl.compare_to_baseline("bulk", "dirichlet", rep)
    assert not disjoint["passed"]
