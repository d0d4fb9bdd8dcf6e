"""Samplers: determinism, feature-map correctness, and seeded statistics.

The statistical checks run at fixed seeds with generous z-score bounds, so
they are deterministic regressions rather than flaky hypothesis tests.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fermibox import kernels as kn
from fermibox import sampling as sp
from fermibox.boundary import make_boundary, make_preset
from fermibox.spectral import DECAY, TRIG
from fermibox.thermo import count_distribution, fermi_factor

TWO_PI = 2.0 * np.pi


def test_rng_spec_is_bit_reproducible():
    fam = kn.ground_state_modes("dirichlet", 5)
    a = sp.sample_projection(fam, sp.RngSpec(7, 0))
    b = sp.sample_projection(fam, sp.RngSpec(7, 0))
    c = sp.sample_projection(fam, sp.RngSpec(7, 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_frozen_draw_regression():
    fam = kn.ground_state_modes("dirichlet", 5)
    got = sp.sample_projection(fam, sp.RngSpec(7, 0))
    frozen = [1.4150185072, 2.3218651172, 2.9401220204, 3.9275906514, 5.6373605717]
    assert_allclose(got, frozen, atol=1e-9)


def test_make_rng_accepts_int_and_generator():
    g = sp.make_rng(5)
    assert isinstance(g, np.random.Generator)
    assert sp.make_rng(g) is g
    with pytest.raises(TypeError):
        sp.make_rng("seed")


def test_group_modes_reproduce_kernels():
    for g, n in [("U", 7), ("U", 6), ("Sp", 8), ("SO", 8), ("SO", 9)]:
        fam, top = sp.group_modes(g, n)
        xs = np.linspace(0.01, top - 0.01, 9)
        phi = fam.eval_matrix(xs)
        got = np.einsum("ki,kj->ij", phi, phi.conj()).real
        want = kn.evaluate_grid(kn.group_kernel(g, n), xs, xs)
        assert_allclose(got, want, atol=1e-12), (g, n)


def test_group_modes_equal_closed_formulas():
    x = np.linspace(0.0, TWO_PI, 513)
    c = np.sqrt(2.0 / np.pi)
    for g, n, rows in [
        ("U", 7, [np.exp(1j * k * x) / np.sqrt(TWO_PI) for k in range(-3, 4)]),
        ("U", 6, [np.exp(1j * k * x) / np.sqrt(TWO_PI) for k in np.arange(-2.5, 3.0)]),
        ("Sp", 8, [c * np.sin(k * x) for k in range(1, 5)]),
        ("SO", 8, [np.full_like(x, 1.0 / np.sqrt(np.pi))]
         + [c * np.cos(k * x) for k in range(1, 4)]),
        ("SO", 9, [c * np.sin((k - 0.5) * x) for k in range(1, 5)]),
    ]:
        fam, _ = sp.group_modes(g, n)
        assert_allclose(fam.eval_matrix(x), np.array(rows, dtype=complex),
                        rtol=0, atol=1e-15), (g, n)


def test_group_modes_validation():
    with pytest.raises(ValueError):
        sp.group_modes("Sp", 7)
    with pytest.raises(ValueError):
        sp.group_modes("X", 4)


def test_projection_draw_shape_and_support():
    fam, top = sp.group_modes("Sp", 10)
    pts = sp.sample_projection_many(fam, 40, sp.RngSpec(3), domain=(0.0, top))
    assert pts.shape == (40, 5)
    assert np.all(pts >= 0) and np.all(pts <= top)
    assert np.all(np.diff(pts, axis=1) >= 0)


def test_projection_one_point_density():
    # empirical occupation of each bin must track the kernel diagonal
    fam = kn.ground_state_modes("dirichlet", 3)
    m = 2000
    pts = sp.sample_projection_many(fam, m, sp.RngSpec(1234))
    bins = 24
    hist, edges = np.histogram(pts.ravel(), bins=bins, range=(0.0, TWO_PI))
    k = kn.ground_state_kernel("dirichlet", 3)
    mids = 0.5 * (edges[:-1] + edges[1:])
    expect = k(mids, mids).real * m * np.diff(edges)
    z = (hist - expect) / np.sqrt(np.maximum(expect, 1.0))
    assert np.max(np.abs(z)) < 4.5


def test_projection_repulsion_short_range():
    # nearest-neighbor spacings avoid zero much more than a Poisson sample
    fam, top = sp.group_modes("U", 7)
    pts = sp.sample_projection_many(fam, 400, sp.RngSpec(88), domain=(0.0, top))
    gaps = np.diff(pts, axis=1).ravel()
    mean_gap = np.mean(gaps)
    assert np.mean(gaps < 0.1 * mean_gap) < 0.02


def _envelope_families():
    """(name, family, domain) covering every row kind of ModeFamily."""
    box = (0.0, TWO_PI)
    out = [(bc, kn.ground_state_modes(bc, n), box)
           for bc, n in (("dirichlet", 9), ("neumann", 9), ("periodic", 8))]
    out += [(f"{name}:{c}", kn.ground_state_modes(make_preset(name, c), n), box)
            for name, c, n in (("robin", 2.5, 12), ("robin", -2.5, 20),
                               ("delta", -3.0, 10))]
    rng = sp.make_rng(sp.RngSpec(4242))
    out += [(f"custom{i}", kn.ground_state_modes(make_boundary(sp.haar_unitary(2, rng)), 10), box)
            for i in range(3)]
    # the periodic matrix through the solver has a linear zero mode
    out.append(("custom periodic",
                kn.ground_state_modes(make_boundary(make_preset("periodic").matrix), 9), box))
    for g, n in (("U", 7), ("U", 6), ("Sp", 8), ("SO", 8), ("SO", 9)):
        fam, top = sp.group_modes(g, n)
        out.append((f"{g}({n})", fam, (0.0, top)))
    return out


def test_mode_envelope_bounds_the_kernel_diagonal():
    kinds = set()
    for name, fam, domain in _envelope_families():
        kinds |= set(fam.kind.tolist())
        bound = np.sum(sp._mode_sups(fam, domain))
        diag = max(np.max(np.sum(np.abs(fam.eval_matrix(x)) ** 2, axis=0))
                   for x in np.split(np.linspace(*domain, 200_000), 4))
        assert bound >= diag, (name, bound, diag)
    assert kinds == set(range(6))
    # the bound state's envelope comes from the walls, not from (|a| + |b|)^2
    fam = kn.ground_state_modes(make_preset("robin", -2.5), 20)
    assert 11.9 < np.sum(sp._mode_sups(fam, (0.0, TWO_PI))) < 12.1


def test_bound_state_one_point_density():
    # robin:-2.5 binds a state at each wall; the draws must follow K(x, x)
    fam = kn.ground_state_modes(make_preset("robin", -2.5), 20)
    m = 300
    pts = sp.sample_projection_many(fam, m, sp.RngSpec(2520))
    edges = np.linspace(0.0, TWO_PI, 49)
    hist, _ = np.histogram(pts.ravel(), bins=edges)
    fine = np.linspace(0.0, TWO_PI, 48 * 64 + 1)
    diag = np.sum(np.abs(fam.eval_matrix(0.5 * (fine[:-1] + fine[1:]))) ** 2, axis=0)
    expect = m * diag.reshape(48, 64).mean(axis=1) * np.diff(edges)
    assert abs(np.sum(expect) - 20 * m) < 1e-3 * 20 * m
    z = (hist - expect) / np.sqrt(expect)
    assert np.max(np.abs(z)) < 4.5


def test_projection_pair_density_matches_exact():
    # ordered-pair counts per cell against the exact rho_2 = det of the 2x2
    # kernel matrix; the errors come from the spread over configurations,
    # since the pairs of one configuration are not independent
    cells, fine = 8, 32
    for fam, top, seed in ((*sp.group_modes("U", 7), 71),
                           (kn.ground_state_modes("dirichlet", 6), TWO_PI, 72)):
        m, n = 3000, len(fam)
        pts = sp.sample_projection_many(fam, m, sp.RngSpec(seed), domain=(0.0, top))
        idx = np.minimum((pts / top * cells).astype(int), cells - 1)
        counts = np.zeros((m, cells * cells))
        for i in range(n):
            for j in range(n):
                if i != j:
                    np.add.at(counts, (np.arange(m), idx[:, i] * cells + idx[:, j]), 1)
        g = (np.arange(cells * fine) + 0.5) * top / (cells * fine)
        phi = fam.eval_matrix(g)
        k = phi.T @ phi.conj()
        rho2 = np.outer(k.diagonal(), k.diagonal()).real - np.abs(k) ** 2
        exact = rho2.reshape(cells, fine, cells, fine).sum(axis=(1, 3)).ravel()
        exact *= (top / (cells * fine)) ** 2
        z = (counts.mean(axis=0) - exact) / (counts.std(axis=0, ddof=1) / np.sqrt(m))
        assert np.max(np.abs(z)) < 4.5, (n, np.max(np.abs(z)))


def test_rank_deficient_family_raises_promptly():
    fam = kn.ground_state_modes("dirichlet", 3)[[0, 0, 1]]
    t0 = time.perf_counter()
    with pytest.raises(sp.SamplerError):
        sp.sample_projection(fam, sp.RngSpec(3))
    assert time.perf_counter() - t0 < 1.0


def test_broken_envelope_raises(monkeypatch):
    fam = kn.ground_state_modes("dirichlet", 6)
    sups = sp._mode_sups
    monkeypatch.setattr(sp, "_mode_sups", lambda f, d: 0.5 * sups(f, d))
    with pytest.raises(sp.SamplerError, match="envelope"):
        sp.sample_projection(fam, sp.RngSpec(4))


def test_grand_canonical_counts_match_exact_distribution():
    fam = kn.ground_state_modes("dirichlet", 30)
    t, mu = 2.0, 2.0
    m = 1200
    draws = sp.sample_grand_canonical_many(fam, t, mu, m, sp.RngSpec(2718))
    sizes = np.array([len(d) for d in draws])
    p = fermi_factor(fam.energies, t, mu)
    exact = count_distribution(p)
    hist = np.bincount(sizes, minlength=len(exact)).astype(float) / m
    tv = 0.5 * np.sum(np.abs(hist[: len(exact)] - exact))
    assert tv < 0.08


def test_grand_canonical_empty_draw_is_possible():
    fam = kn.ground_state_modes("dirichlet", 4)
    # freezing occupation near zero: all draws empty
    draws = sp.sample_grand_canonical_many(fam, 0.1, -30.0, 5, sp.RngSpec(1))
    assert all(len(d) == 0 for d in draws)


def test_haar_unitary_is_unitary():
    u = sp.haar_unitary(6, sp.RngSpec(10))
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-13


def test_haar_special_orthogonal_is_rotation():
    m = sp.haar_special_orthogonal(7, sp.RngSpec(10))
    assert np.max(np.abs(m @ m.T - np.eye(7))) < 1e-13
    assert_allclose(np.linalg.det(m), 1.0, atol=1e-12)


def test_haar_unit_circle_uniformity():
    # a 1x1 unitary is a uniform phase
    angles = sp.haar_eigenangles("U", 1, 3000, sp.RngSpec(555)).ravel()
    hist, _ = np.histogram(angles, bins=10, range=(0.0, TWO_PI))
    expect = 300.0
    z = (hist - expect) / np.sqrt(expect)
    assert np.max(np.abs(z)) < 4.0


def test_haar_so3_angle_density():
    # the free eigenangle of a random rotation has density (1 - cos t) / pi,
    # which is also the diagonal of the SO(3) eigenangle kernel
    angles = sp.haar_eigenangles("SO", 3, 3000, sp.RngSpec(777)).ravel()
    bins = 12
    hist, edges = np.histogram(angles, bins=bins, range=(0.0, np.pi))
    mids = 0.5 * (edges[:-1] + edges[1:])
    q = kn.group_kernel("SO", 3)
    dens = q(mids, mids)
    assert_allclose(dens, (1.0 - np.cos(mids)) / np.pi, atol=1e-12)
    expect = dens * 3000 * np.diff(edges)
    z = (hist - expect) / np.sqrt(np.maximum(expect, 1.0))
    assert np.max(np.abs(z)) < 4.5


def test_haar_eigenangles_shapes():
    a = sp.haar_eigenangles("U", 4, 3, sp.RngSpec(2))
    assert a.shape == (3, 4)
    assert np.all(np.diff(a, axis=1) >= 0)
    b = sp.haar_eigenangles("SO", 8, 2, sp.RngSpec(2))
    assert b.shape == (2, 4)
    with pytest.raises(ValueError):
        sp.haar_eigenangles("Sp", 4, 1, sp.RngSpec(0))


def _circle_distance(a, b):
    """Largest angle difference between two multisets of angles, matched on
    the circle: both sorted mod 2pi, the best cyclic shift of one."""
    a, b = np.sort(np.mod(a, TWO_PI)), np.sort(np.mod(b, TWO_PI))
    return min(np.max(np.abs(np.angle(np.exp(1j * (a - np.roll(b, s))))))
               for s in range(len(a)))


def test_haar_angles_fold_two_pi_to_zero():
    # np.mod(-1e-17, 2pi) rounds to exactly 2pi, outside [0, 2pi)
    assert np.mod(-1e-17, TWO_PI) == TWO_PI
    u = np.full((1, 1, 1), np.exp(-1e-17j))
    assert sp._eigenangles(u)[0, 0] == 0.0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("group, n, count", [("U", 7, 1000), ("SO", 3, 2000),
                                             ("SO", 8, 300), ("U", 100, 3)])
def test_haar_chunked_draws_keep_the_stream(seed, group, n, count):
    single = sp.haar_unitary if group == "U" else sp.haar_special_orthogonal
    chunk = max(1, sp.CHUNK_ENTRIES // (n * n))
    assert count % chunk != 0 or chunk == 1
    rng, loop_rng = sp.make_rng(sp.RngSpec(seed)), sp.make_rng(sp.RngSpec(seed))
    stack = np.concatenate([sp._haar_stack(group, n, min(chunk, count - s), rng)
                            for s in range(0, count, chunk)])
    loop = np.array([single(n, loop_rng) for _ in range(count)])
    assert np.array_equal(stack, loop)
    assert rng.standard_normal() == loop_rng.standard_normal()
    # and a chunk's angles are those of its matrices solved one at a time
    rng = sp.make_rng(sp.RngSpec(seed))
    one_by_one = [sp.haar_eigenangles(group, n, 1, rng)[0] for _ in range(count)]
    assert np.array_equal(sp.haar_eigenangles(group, n, count, sp.RngSpec(seed)),
                          np.array(one_by_one))


@pytest.mark.parametrize("group, n", [("U", 1), ("U", 2), ("U", 7), ("U", 100),
                                      ("SO", 2), ("SO", 3), ("SO", 7), ("SO", 8)])
def test_haar_eigenangles_match_eigvals(group, n):
    count = 20 if n == 100 else 300
    single = sp.haar_unitary if group == "U" else sp.haar_special_orthogonal
    rng = sp.make_rng(sp.RngSpec(31))
    angles = sp.haar_eigenangles(group, n, count, sp.RngSpec(31))
    for row in angles:
        lam = np.linalg.eigvals(single(n, rng))
        ref = np.angle(lam) if group == "U" else np.angle(lam[lam.imag > 1e-9])
        assert _circle_distance(row, ref) <= 1e-10


@pytest.mark.parametrize("n", [2, 7, 100])
@pytest.mark.parametrize("gap", [1e-8, 1e-12, 0.0])
def test_haar_eigenangles_near_minus_one(monkeypatch, n, gap):
    rng = sp.make_rng(sp.RngSpec(41))
    exact = rng.uniform(0.0, TWO_PI, n)
    exact[0] = np.pi - gap
    q = sp.haar_unitary(n, rng)
    u = (q * np.exp(1j * exact)) @ q.conj().T
    monkeypatch.setattr(sp, "_haar_stack", lambda group, n, count, rng: u[None])
    assert _circle_distance(sp.haar_eigenangles("U", n, 1, 0)[0], exact) <= 1e-10


@pytest.mark.parametrize("n", [1, 3, 8])
def test_haar_eigenangles_of_minus_identity(n):
    # I + U is exactly singular
    angles = sp._eigenangles(-np.eye(n, dtype=complex)[None])
    assert_allclose(angles, np.pi, rtol=0, atol=1e-14)


def test_haar_so_eigenangles_with_a_pair_near_minus_one(monkeypatch):
    exact = np.array([np.pi - 1e-8, 0.4, 2.0])
    rot = np.zeros((7, 7))
    rot[6, 6] = 1.0
    for k, t in enumerate(exact):
        rot[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    q = sp.haar_special_orthogonal(7, sp.RngSpec(43))
    m = q @ rot @ q.T
    monkeypatch.setattr(sp, "_haar_stack", lambda group, n, count, rng: m[None])
    got = sp.haar_eigenangles("SO", 7, 1, 0)[0]
    assert_allclose(got, np.sort(exact), rtol=0, atol=1e-10)


@pytest.mark.parametrize("group", ["U", "SO"])
def test_haar_eigenangles_refuse_empty_matrices(group):
    with pytest.raises(ValueError):
        sp.haar_eigenangles(group, 0, 1, sp.RngSpec(0))


def test_grand_canonical_draws_follow_the_finite_t_kernel():
    # robin:-2.5 binds a state at each wall, so the family holds TRIG and DECAY
    # rows, and point counts vary from draw to draw.  The mixture is the
    # determinantal process of K = sum_k p_k phi_k phi_k^*: per-cell means of
    # point and ordered-pair counts must match rho_1 and rho_2 = det[K], with
    # errors from the spread over configurations
    t, mu, m, cells, fine = 2.0, 3.0, 3000, 8, 32
    fam = kn.finite_t_modes(make_preset("robin", -2.5), t, mu)
    assert {TRIG, DECAY} <= set(fam.kind.tolist())
    draws = sp.sample_grand_canonical_many(fam, t, mu, m, sp.RngSpec(2521))
    assert len({len(d) for d in draws}) > 3
    # every occupation is drawn first, and the draws come back in draw order
    p = fermi_factor(fam.energies, t, mu)
    occupied = sp.make_rng(sp.RngSpec(2521)).random((m, len(fam))) < p
    assert [len(d) for d in draws] == np.count_nonzero(occupied, axis=1).tolist()
    c = np.array([np.bincount(np.minimum((d / TWO_PI * cells).astype(int), cells - 1),
                              minlength=cells) for d in draws])
    pairs = (c[:, :, None] * c[:, None, :] - c[:, :, None] * np.eye(cells, dtype=int))
    g = (np.arange(cells * fine) + 0.5) * TWO_PI / (cells * fine)
    phi = fam.eval_matrix(g)
    k = (phi.T * p) @ phi.conj()
    dx = TWO_PI / (cells * fine)
    rho1 = k.diagonal().real.reshape(cells, fine).sum(axis=1) * dx
    rho2 = np.outer(k.diagonal(), k.diagonal()).real - np.abs(k) ** 2
    rho2 = rho2.reshape(cells, fine, cells, fine).sum(axis=(1, 3)).ravel() * dx ** 2
    for obs, exact in ((c, rho1), (pairs.reshape(m, -1), rho2)):
        z = (obs.mean(axis=0) - exact) / (obs.std(axis=0, ddof=1) / np.sqrt(m))
        assert np.max(np.abs(z)) < 4.5, np.max(np.abs(z))


def test_lockstep_faults_raise_promptly(monkeypatch):
    # a chunk of many draws keeps each draw's step budget and envelope check
    fam = kn.ground_state_modes("dirichlet", 3)[[0, 0, 1]]
    t0 = time.perf_counter()
    with pytest.raises(sp.SamplerError):
        sp.sample_projection_many(fam, 50, sp.RngSpec(3))
    assert time.perf_counter() - t0 < 1.0
    sups = sp._mode_sups
    monkeypatch.setattr(sp, "_mode_sups", lambda f, d: 0.5 * sups(f, d))
    t0 = time.perf_counter()
    with pytest.raises(sp.SamplerError, match="envelope"):
        sp.sample_projection_many(kn.ground_state_modes("dirichlet", 6), 50, sp.RngSpec(4))
    assert time.perf_counter() - t0 < 1.0


def test_lone_draws_keep_their_stream():
    # a draw too large to share a chunk runs alone, as every draw once did:
    # these are the bits the one-draw-at-a-time sampler gave
    pts = sp.sample_projection_many(kn.ground_state_modes("dirichlet", 100), 2, sp.RngSpec(5))
    assert pts[:, :3].tolist() == [
        [0.038904866528767686, 0.09133414320295467, 0.15776034872193662],
        [0.05239590822566132, 0.06669169075512206, 0.1406719078533496]]
