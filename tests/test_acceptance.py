"""Top-level acceptance gate.

One test per release criterion, each printing a single pass/fail line
(visible under ``pytest -s``; under plain ``pytest -v`` the test name and
verdict serve the same purpose).  Every stochastic criterion runs with a
fixed committed seed.  Timing bounds are asserted alongside the numerical
tolerances.
"""

import time

import numpy as np
from scipy import stats

from fermibox.analysis import (bulk_scaling_study, edge_scaling_study,
                               finite_t_bulk_study, monotone_tail_ok)
from fermibox.baselines import compare_to_baseline, edge_key, study_key
from fermibox.boundary import make_boundary, make_preset
from fermibox.heatflow import (FAMILIES, gc_mixture_check, heat_propagator,
                               km_log_density)
from fermibox.kernels import (finite_t_kernel, ground_state_kernel, group_kernel,
                              kernel_finite_t_sine)
from fermibox.sampling import (RngSpec, group_modes, haar_eigenangles,
                               haar_unitary, make_rng, sample_projection_many,
                               sample_grand_canonical_many)
from fermibox.kernels import finite_t_modes
from fermibox.spectral import solve_spectrum, weyl_check
from fermibox.thermo import (count_distribution, fermi_factor, polylog_half,
                             solve_lambda, solve_mu)

TWO_PI = 2.0 * np.pi


def _verdict(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _solver_kernel(bc, n):
    # the generic root-search route, bypassing the closed-form shortcuts
    return ground_state_kernel(solve_spectrum(bc, count=n), n)


def test_criterion_01_closed_form_dictionary():
    t0 = time.perf_counter()
    n = 7
    xs = np.linspace(0.0, TWO_PI, 32)
    half = 0.5 * xs
    cases = {
        "dirichlet": 0.5 * group_kernel("Sp", 2 * n)(half[:, None], half[None, :]),
        "neumann": 0.5 * group_kernel("SO", 2 * n)(half[:, None], half[None, :]),
        "zaremba": 0.5 * group_kernel("SO", 2 * n + 1)(half[:, None], half[None, :]),
        "periodic": group_kernel("U", n)(xs[:, None], xs[None, :]),
    }
    worst = 0.0
    for name, closed in cases.items():
        solved = _solver_kernel(make_preset(name), n)(xs[:, None], xs[None, :])
        worst = max(worst, float(np.max(np.abs(solved - np.asarray(closed)))))
    elapsed = time.perf_counter() - t0
    _verdict(1, "closed-form dictionary", worst <= 1e-10 and elapsed < 5.0,
             f"sup={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_projection_property():
    t0 = time.perf_counter()
    n = 7
    zg, wg = np.polynomial.legendre.leggauss(512)
    z = np.pi * (zg + 1.0)
    w = np.pi * wg
    pts = np.linspace(0.0, TWO_PI, 24)
    boundaries = [make_preset(p) for p in
                  ("dirichlet", "neumann", "zaremba", "periodic")]
    boundaries.append(make_boundary(haar_unitary(2, make_rng(RngSpec(2207)))))
    worst = 0.0
    for bc in boundaries:
        kern = _solver_kernel(bc, n)
        left = np.asarray(kern(pts[:, None], z[None, :]), dtype=complex)
        right = np.asarray(kern(z[:, None], pts[None, :]), dtype=complex)
        conv = (left * w) @ right
        direct = np.asarray(kern(pts[:, None], pts[None, :]), dtype=complex)
        worst = max(worst, float(np.max(np.abs(conv - direct))))
    elapsed = time.perf_counter() - t0
    _verdict(2, "projection property", worst <= 1e-6 and elapsed < 30.0,
             f"sup={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_weyl_counting_law():
    t0 = time.perf_counter()
    boundaries = [make_preset(p) for p in
                  ("periodic", "dirichlet", "neumann", "zaremba")]
    boundaries.append(make_preset("robin", np.pi / 2.0))
    worst = max(weyl_check(bc, e_max=1e4).max_abs_deviation
                for bc in boundaries)
    elapsed = time.perf_counter() - t0
    _verdict(3, "eigenvalue counting law", worst <= 3.0 and elapsed < 60.0,
             f"sup deviation={worst:.3f}, {elapsed:.1f}s")


def test_criterion_04_bulk_sine_universality():
    t0 = time.perf_counter()
    sizes = (25, 50, 100, 200)
    boundaries = [make_preset("periodic"), make_preset("dirichlet"),
                  make_preset("robin", np.pi / 2.0), make_preset("delta", 1.0)]
    ok, details = True, []
    for bc in boundaries:
        report = bulk_scaling_study(bc, np.pi, sizes)
        verdict = compare_to_baseline("bulk", study_key(bc.label, bc.params),
                                      report)
        good = (monotone_tail_ok(report.distances)
                and report.distances[-1] <= 0.02 and verdict["passed"])
        ok = ok and good
        details.append(f"{bc.label}:{report.distances[-1]:.4f}")
    elapsed = time.perf_counter() - t0
    _verdict(4, "bulk sine universality", ok and elapsed < 300.0,
             f"N=200 distances {', '.join(details)}, {elapsed:.1f}s")


def test_criterion_05_edge_limits():
    t0 = time.perf_counter()
    sizes = (25, 50, 100, 200)
    cases = [
        (make_preset("dirichlet"), {"Limit": {"BesselMinus": {}}}),
        (make_preset("neumann"), {"Limit": {"BesselPlus": {}}}),
        (make_preset("robin", np.pi / 2.0), {"Limit": {"RobinEdge": {"c": 1.0}}}),
        (make_preset("delta", 1.0), {"Limit": {"DeltaEdge": {"c": 1.0}}}),
    ]
    ok, details = True, []
    for bc, limit in cases:
        report = edge_scaling_study(bc, 0.0, limit, sizes)
        (tag,) = tuple(limit["Limit"].keys())
        verdict = compare_to_baseline(
            "edge", edge_key(bc.label, bc.params, 0.0, tag), report)
        good = (monotone_tail_ok(report.distances)
                and report.distances[-1] <= 0.05 and verdict["passed"])
        ok = ok and good
        details.append(f"{bc.label}->{tag}:{report.distances[-1]:.4f}")
    elapsed = time.perf_counter() - t0
    _verdict(5, "edge limits", ok and elapsed < 300.0,
             f"N=200 distances {', '.join(details)}, {elapsed:.1f}s")


def test_criterion_06_thermal_circle_kernel():
    t0 = time.perf_counter()
    n, t_temp = 10, 1e-3
    ks = np.arange(-16, 17)
    # the round-number potential n^2 sits exactly on the +-n mode pair, so
    # the certified count solve supplies the potential that fills 2n+1 modes
    mu = solve_mu(ks.astype(float) ** 2, t_temp, 2 * n + 1)
    thermal = finite_t_kernel("periodic", t_temp, mu)
    xs = np.linspace(0.0, TWO_PI, 32)
    gap = np.abs(np.asarray(thermal(xs[:, None], xs[None, :]))
                 - np.asarray(group_kernel("U", 2 * n + 1)(xs[:, None],
                                                           xs[None, :])))
    sup_i = float(np.max(gap))

    diag = np.asarray(thermal(xs, xs))
    sup_ii = float(np.max(diag) - np.min(diag))

    report = finite_t_bulk_study(1.0, (50, 100))
    sup_iii = report.distances[-1]
    elapsed = time.perf_counter() - t0
    ok = sup_i <= 1e-6 and sup_ii <= 1e-8 and sup_iii <= 1e-2 and elapsed < 120.0
    _verdict(6, "thermal circle kernel", ok,
             f"vs unitary group {sup_i:.2e}, diagonal {sup_ii:.2e}, "
             f"bulk {sup_iii:.2e}, {elapsed:.1f}s")


def test_criterion_07_fugacity_dictionary():
    t0 = time.perf_counter()
    worst = max(abs(polylog_half(solve_lambda(c)) + 2.0 / np.sqrt(np.pi * c))
                for c in (0.1, 1.0, 10.0))
    # rescaled thermal diagonal as a Riemann sum for the limiting density
    n = 100
    riemann = []
    for c in (0.1, 1.0, 10.0):
        lam = solve_lambda(c)
        t_temp = c * n * n
        kmax = int(np.sqrt(t_temp * (np.log(lam) + 60.0))) + 2
        ks = np.arange(-kmax, kmax + 1, dtype=float)
        occ = fermi_factor(ks ** 2, t_temp, t_temp * np.log(lam))
        riemann.append(abs(float(np.sum(occ)) / (2.0 * n) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and max(riemann) <= 1e-3 and elapsed < 10.0
    _verdict(7, "fugacity dictionary", ok,
             f"residual={worst:.2e}, density gap={max(riemann):.2e}, "
             f"{elapsed:.1f}s")


def _two_sample_chi2(a, b, edges):
    ha = np.histogram(a, bins=edges)[0].astype(float)
    hb = np.histogram(b, bins=edges)[0].astype(float)
    keep = (ha + hb) > 0
    stat = float(np.sum((ha[keep] - hb[keep]) ** 2 / (ha + hb)[keep]))
    return stats.chi2.sf(stat, keep.sum() - 1)


def _two_sample_chi2_2d(a, b, edges):
    ha = np.histogram2d(a[0], a[1], bins=(edges, edges))[0].ravel()
    hb = np.histogram2d(b[0], b[1], bins=(edges, edges))[0].ravel()
    keep = (ha + hb) > 0
    stat = float(np.sum((ha[keep] - hb[keep]) ** 2 / (ha + hb)[keep]))
    return stats.chi2.sf(stat, keep.sum() - 1)


def _ordered_pairs(configs):
    xs, ys = [], []
    for row in configs:
        m = len(row)
        idx = ~np.eye(m, dtype=bool)
        xs.append(np.repeat(row, m)[idx.ravel()])
        ys.append(np.tile(row, m)[idx.ravel()])
    return np.concatenate(xs), np.concatenate(ys)


def test_criterion_08_sampler_statistics():
    t0 = time.perf_counter()
    draws = 10_000
    family, _top = group_modes("U", 7)
    dpp = sample_projection_many(family, draws, make_rng(RngSpec(8801)))
    haar = haar_eigenangles("U", 7, draws, make_rng(RngSpec(8802)))

    edges1 = np.linspace(0.0, TWO_PI, 17)
    p_one = _two_sample_chi2(dpp.ravel(), haar.ravel(), edges1)
    edges2 = np.linspace(0.0, TWO_PI, 9)
    p_two = _two_sample_chi2_2d(_ordered_pairs(dpp), _ordered_pairs(haar),
                                edges2)

    ks = np.arange(-12, 13)
    t_temp = 1.0
    mu = solve_mu(ks.astype(float) ** 2, t_temp, 5.0)
    occupancies = fermi_factor(ks.astype(float) ** 2, t_temp, mu)
    exact = count_distribution(occupancies)
    fam = finite_t_modes("periodic", t_temp, mu)
    gc = sample_grand_canonical_many(fam, t_temp, mu, draws,
                                     make_rng(RngSpec(8803)))
    counts = np.bincount([len(d) for d in gc], minlength=exact.size)
    empirical = counts[:exact.size] / draws
    tv = 0.5 * float(np.sum(np.abs(empirical - exact))
                     + max(0.0, 1.0 - counts[:exact.size].sum() / draws))
    elapsed = time.perf_counter() - t0
    ok = p_one > 0.01 and p_two > 0.01 and tv <= 0.03 and elapsed < 600.0
    _verdict(8, "sampler statistics",
             ok, f"p1={p_one:.3f}, p2={p_two:.3f}, count TV={tv:.4f}, "
                 f"{elapsed:.0f}s")


def test_criterion_09_loop_weight_positivity():
    t0 = time.perf_counter()
    rng = make_rng(RngSpec(9901))
    worst_ck = 0.0
    for _ in range(1000):
        m = int(rng.choice((3, 5, 7, 9)))
        pts = np.sort(rng.uniform(0.0, TWO_PI, m))
        for t_loop in (0.1, 1.0, 10.0):
            log_w, sign = km_log_density("A", t_loop, pts)
            assert np.isfinite(log_w) and sign == 1.0
    zg, wg = np.polynomial.legendre.leggauss(512)
    for fam in FAMILIES:
        top = TWO_PI if fam == "A" else np.pi
        z = 0.5 * top * (zg + 1.0)
        w = 0.5 * top * wg
        p1 = heat_propagator(fam, 0.5)
        p2 = heat_propagator(fam, 1.0)
        probes = np.array([0.2, 0.45, 0.8]) * top
        for a in probes:
            for b in probes:
                conv = float(np.sum(w * p1(a, z) * p1(z, b)))
                worst_ck = max(worst_ck, abs(conv - p2(a, b)))
    elapsed = time.perf_counter() - t0
    ok = worst_ck <= 1e-8 and elapsed < 60.0
    _verdict(9, "loop weight positivity", ok,
             f"3000 determinants positive, semigroup residual "
             f"{worst_ck:.2e}, {elapsed:.1f}s")


def test_criterion_10_thermal_loop_consistency():
    t0 = time.perf_counter()
    ks = np.arange(-12, 13)
    mu = solve_mu(ks.astype(float) ** 2, 1.0, 7.0)
    report = gc_mixture_check("A", 1.0, mu, bins=24, samples=10_000,
                              rng=make_rng(RngSpec(10001)))
    elapsed = time.perf_counter() - t0
    ok = report.pair_fraction_above_3 < 0.01 and elapsed < 600.0
    _verdict(10, "thermal loop consistency", ok,
             f"pair bins beyond 3 sigma: {100 * report.pair_fraction_above_3:.2f}%, "
             f"mean count {report.mean_count:.2f} vs {report.expected_count:.2f}, "
             f"{elapsed:.0f}s")
