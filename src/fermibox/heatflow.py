"""Heat kernels on the circle and the interval, and the non-intersecting
loop measures built from them.

The four propagator families share one convention: time t drives the
generator (1/2) d^2/dx^2, so the short-time profile is a Gaussian of
variance t.  Circle kernels are theta functions; interval kernels combine
them by reflection.  Loop configurations that return to their starting set
carry the weight det[p_t(x_i, x_j)]; because every propagator here is a
positive mode sum, that determinant factors through a rectangular mode
matrix, and a pivoted QR of the factor evaluates the log-weight stably far
below where a plain LU determinant drowns in roundoff.  The Metropolis
chain keeps that factor between steps: a proposal rebuilds one point's row
and calls LAPACK's pivoted QR (``geqp3``) once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .analysis import _pair_estimate, bin_average, estimate_density
from .kernels import finite_t_kernel, finite_t_modes
from .sampling import make_rng, sample_grand_canonical_many
from .thermo import fermi_factor

__all__ = [
    "FAMILIES",
    "MixtureReport",
    "NonPositiveDeterminant",
    "gc_mixture_check",
    "heat_propagator",
    "km_log_density",
    "km_mcmc",
    "theta3",
]

TWO_PI = 2.0 * np.pi

FAMILIES = ("A", "B", "C", "D")


class NonPositiveDeterminant(RuntimeError):
    """The loop-weight determinant came out zero or negative."""


def _decay_exponent(eps: float) -> float:
    return max(40.0, -np.log(max(eps, 1e-300)) + 8.0)


def theta3(z, t: float, eps: float = 1e-14) -> np.ndarray:
    """sum_k exp(-t k^2) exp(2 pi i k z), real-valued.

    For t >= 1 the frequency series converges in a handful of terms; below
    that the image (modular-transformed) Gaussian sum takes over.  Both
    truncations leave tails below eps.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"theta time must be positive and finite, got {t}")
    z = np.asarray(z, dtype=float)
    decay = _decay_exponent(eps)
    if t >= 1.0:
        k_max = int(np.ceil(np.sqrt(decay / t))) + 1
        ks = np.arange(1, k_max + 1)
        w = np.exp(-t * ks.astype(float) ** 2)
        return 1.0 + 2.0 * np.einsum("k,k...->...", w, np.cos(TWO_PI * np.multiply.outer(ks, z)))
    half = max(4, int(np.ceil(np.sqrt(decay * t) / np.pi)) + 1)
    base = np.round(z)
    ms = np.arange(-half, half + 1)
    d = z[..., None] - (base[..., None] + ms)
    return np.sqrt(np.pi / t) * np.sum(np.exp(-np.pi**2 * d * d / t), axis=-1)


def _theta_half(s, t: float, eps: float = 1e-14) -> np.ndarray:
    """sum over half-integers k of exp(-t k^2) exp(i k s), real-valued."""
    s = np.asarray(s, dtype=float)
    decay = _decay_exponent(eps)
    if t >= 1.0:
        j_max = int(np.ceil(np.sqrt(decay / t))) + 1
        js = np.arange(0, j_max + 1) + 0.5
        w = np.exp(-t * js**2)
        return 2.0 * np.einsum("k,k...->...", w, np.cos(np.multiply.outer(js, s)))
    half = max(4, int(np.ceil(np.sqrt(decay * t) / np.pi)) + 1)
    z = s / TWO_PI
    base = np.round(z)
    ms = np.arange(-half, half + 1)
    mm = base[..., None] + ms
    d = s[..., None] - TWO_PI * mm
    sign = np.where(np.mod(mm.astype(np.int64), 2) == 0, 1.0, -1.0)
    return np.sqrt(np.pi / t) * np.sum(sign * np.exp(-d * d / (4.0 * t)), axis=-1)


def _theta_full(s, t: float, eps: float = 1e-14) -> np.ndarray:
    """theta3 written in angle units: sum_k exp(-t k^2) cos(k s)."""
    return theta3(np.asarray(s, dtype=float) / TWO_PI, t, eps)


def heat_propagator(family: str, t: float, eps: float = 1e-14):
    """Transition density of family A, B, C or D at time t.

    A: free motion on the circle [0, 2pi), mode weights exp(-k^2 t / 2).
    B: interval [0, pi], absorbing at 0, reflecting at pi.
    C: interval [0, pi], absorbing at both ends.
    D: interval [0, pi], reflecting at both ends.
    Returns a callable p(x, y) broadcasting over arrays.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown propagator family {family!r}")
    if not 0 < t < np.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    tau = 0.5 * t
    theta = _theta_half if family == "B" else _theta_full

    def p(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        if family == "A":
            return theta(x - y, tau, eps) / TWO_PI
        image = theta(x + y, tau, eps)        # reflection off the walls
        return (theta(x - y, tau, eps) + (image if family == "D" else -image)) / TWO_PI
    return p


# ---------------------------------------------------------------------------
# loop-weight determinants


def _domain_top(family: str) -> float:
    return TWO_PI if family == "A" else np.pi


def _check_config(family: str, points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or len(points) == 0:
        raise ValueError("configuration must be a nonempty 1-d array")
    if not np.all(np.isfinite(points)):
        raise ValueError("configuration points must be finite")
    top = _domain_top(family)
    if family == "A":
        if np.any(points < 0) or np.any(points >= top):
            raise ValueError("circle points must lie in [0, 2pi)")
    elif np.any(points <= 0) or np.any(points >= top):
        raise ValueError("interval points must lie strictly inside (0, pi)")
    if family == "A" and len(points) % 2 == 0:
        raise ValueError("circular loop weights need an odd number of points")
    return points


def _mode_columns(family: str, tau: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode numbers of the factor for n points and their decay (A: its exponent).

    The cutoff keeps at least as many modes as points (else the factor is
    rank deficient) plus enough decay margin that dropped modes are
    negligible relative to the kept ones.
    """
    k_max = ((n + 1) // 2 if family == "A" else n) + int(np.ceil(np.sqrt(120.0 / tau))) + 1
    if family == "A":
        ks = np.arange(-k_max, k_max + 1, dtype=float)
        return ks, 0.5 * tau * ks**2
    ks = np.arange(1 if family == "C" else 0, k_max + 1, dtype=float)
    ks = ks + 0.5 if family == "B" else ks
    return ks, np.exp(-0.5 * tau * ks**2)


def _mode_factor(family: str, columns, points) -> np.ndarray:
    """G with det[p_t(x_i, x_j)] = det(G G†): a row per point (1-d for a scalar)."""
    ks, decay = columns
    if family == "A":
        return np.exp(1j * np.multiply.outer(points, ks) - decay) / np.sqrt(TWO_PI)
    if family != "D":
        return np.sqrt(2.0 / np.pi) * np.sin(np.multiply.outer(points, ks)) * decay
    g = np.sqrt(2.0 / np.pi) * np.cos(np.multiply.outer(points, ks)) * decay
    g[..., 0] = 1.0 / np.sqrt(np.pi)
    return g


def _pivoted_logdet(gh: np.ndarray):
    """The map a -> log det(G G†) for a = G† shaped and typed like gh: |diag R|
    of ``scipy.linalg.qr(a, pivoting=True)`` through the same LAPACK ``geqp3``
    call and workspace, queried here once.  a must be finite; it is not overwritten.
    """
    geqp3, = get_lapack_funcs(("geqp3",), (gh,))
    lwork = geqp3(gh, lwork=-1)[-2][0].real.astype(np.int_)

    def logdet(a: np.ndarray) -> float:
        diag = abs(geqp3(a, lwork=lwork)[0].diagonal())
        return float(2.0 * np.log(diag).sum()) if diag.all() else -np.inf
    return logdet


def _loop_logdet(family: str, t: float, points: np.ndarray) -> float:
    """log det[p_t(x_i, x_j)] through a pivoted QR of the mode factor.

    The quadratic form G G† makes positivity structural; the factorization
    keeps log-weights accurate far below the absolute-size floor where an
    LU determinant of the n x n matrix degenerates into rounding noise.
    """
    gh = _mode_factor(family, _mode_columns(family, 0.5 * t, len(points)), points).conj().T
    return _pivoted_logdet(gh)(gh)


def km_log_density(family: str, t: float, points) -> tuple[float, float]:
    """Log of the unnormalized loop weight det[p_t(x_i, x_j)] and its sign.

    The value is exactly permutation invariant and is never clamped; a zero
    or negative weight (coincident points, or a parity-violating circular
    configuration) raises NonPositiveDeterminant.
    """
    points = _check_config(family, points)
    if not 0 < t < np.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    if np.any(np.diff(np.sort(points)) == 0.0):
        raise NonPositiveDeterminant("coincident points give a zero weight")
    logdet = _loop_logdet(family, t, points)
    if not np.isfinite(logdet):
        raise NonPositiveDeterminant(
            f"loop determinant vanished for family {family} at t={t}"
        )
    return logdet, 1.0


# ---------------------------------------------------------------------------
# Metropolis sampler


def _fold(family: str, v: float, top: float) -> float:
    if family == "A":
        return v % top
    v = v % (2.0 * top)
    return 2.0 * top - v if v > top else v


def km_mcmc(family: str, t: float, n: int, steps: int, rng,
            step: float = 0.25, thin: int = 10, burn: int = 0):
    """Single-site Metropolis over sorted n-point loop configurations.

    One coordinate moves by a Gaussian step, wrapped on the circle and
    reflected on the interval; proposals that break the ordering or carry
    nonpositive weight are rejected.  The mode factor is kept across steps,
    so a proposal costs one row and one pivoted QR.  Returns (samples,
    acceptance_rate), samples shaped (kept, n), kept = 0 when burn >= steps;
    acceptance below 1% triggers a warning.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    if n < 1:
        raise ValueError("need at least one loop")
    if family == "A" and n % 2 == 0:
        raise ValueError("circular loop weights need an odd number of points")
    if steps < 1 or thin < 1 or burn < 0:
        raise ValueError("steps and thin must be positive, burn nonnegative")
    if not 0 < step < np.inf:
        raise ValueError("step size must be positive and finite")
    rng = make_rng(rng)
    top = _domain_top(family)
    x = top * np.arange(1, n + 1) / (n + 1.0)
    columns = _mode_columns(family, 0.5 * t, n)
    gh = np.asfortranarray(_mode_factor(family, columns, x).conj().T)
    logdet = _pivoted_logdet(gh)
    logp = logdet(gh)
    if not np.isfinite(logp):
        raise NonPositiveDeterminant("could not start from the uniform configuration")
    kept = []
    accepted = 0
    lo_edge = 0.0 if family == "A" else np.nextafter(0.0, 1.0)
    for it in range(steps):
        i = int(rng.integers(n))
        xi = _fold(family, x[i] + step * rng.standard_normal(), top)
        ordered = (
            xi >= (x[i - 1] if i > 0 else lo_edge)
            and xi < (x[i + 1] if i + 1 < n else top)
            and (family == "A" or xi > 0.0)
            and (i == 0 or xi != x[i - 1])
        )
        if ordered:
            row = gh[:, i].copy()
            np.conjugate(_mode_factor(family, columns, xi), out=gh[:, i])
            lp2 = logdet(gh)
            if np.isfinite(lp2) and np.log(rng.random()) < lp2 - logp:
                x[i], logp = xi, lp2
                accepted += 1
            else:
                gh[:, i] = row
        if it >= burn and (it - burn) % thin == 0:
            kept.append(x.copy())
    rate = accepted / steps
    if rate < 0.01:
        warnings.warn(f"loop sampler acceptance rate {rate:.4f}; reduce the step size")
    return np.reshape(kept, (len(kept), n)), rate


# ---------------------------------------------------------------------------
# grand-canonical / loop-ensemble consistency


@dataclass(frozen=True)
class MixtureReport:
    """Sampled grand-canonical statistics against the gas's own kernel.

    ``density_z`` and ``pair_z`` are per-bin z-scores of the density and of
    the pair density in the separation, each with the standard error of its
    :mod:`fermibox.analysis` estimator: Poisson for the density, the spread
    over configurations for the pairs.  ``loop_time`` = 2/T is the loop
    time the identification predicts; it is recorded, not tested.
    """

    temperature: float
    mu: float
    loop_time: float
    samples: int
    mean_count: float
    expected_count: float
    density_z: np.ndarray
    pair_z: np.ndarray
    pair_fraction_above_3: float

    @property
    def passed(self) -> bool:
        return self.pair_fraction_above_3 < 0.01


def _z_scores(estimate, reference) -> np.ndarray:
    """Per-bin z-scores; a bin with zero standard error has none, so it is refused."""
    if np.any(estimate.stderr == 0):
        raise ValueError("a bin has zero standard error: too many bins for "
                         f"{estimate.n_samples} draws")
    return (estimate.values - reference) / estimate.stderr


def gc_mixture_check(family: str, t_temp: float, mu: float, bins: int,
                     samples: int, rng) -> MixtureReport:
    """Sample the grand-canonical circle gas and test it against its kernel.

    Draws come from the Bernoulli-mode sampler; the predictions are the
    same gas's finite-temperature kernel: the flat density n/2pi and the
    bin-averaged pair density (n/2pi)^2 - K(s, 0)^2.  The loop time 2/T of
    the identification is recorded, not tested: no loop configuration is
    drawn, so the gas is never compared with the loop ensemble.  Both
    estimates come from :func:`~fermibox.analysis.estimate_density`
    and the separation form of the pair estimator, whose errors come from
    the spread over configurations; ``samples`` must be at least 100, and
    ``bins`` few enough that no bin has a zero standard error.
    """
    if family != "A":
        raise ValueError("the mixture identification holds on the circle (family A)")
    fam = finite_t_modes("periodic", t_temp, mu)
    occ = fermi_factor(fam.energies, t_temp, mu)
    n_bar = float(np.sum(occ))
    draws = sample_grand_canonical_many(fam, t_temp, mu, samples, rng)

    dens = n_bar / TWO_PI
    density = estimate_density(draws, bins)
    pair = _pair_estimate(draws, bins, (0.0, TWO_PI), reduced=True)
    kappa = finite_t_kernel("periodic", t_temp, mu)
    rho2 = bin_average(lambda s: dens**2 - np.asarray(kappa(s, np.zeros_like(s))) ** 2,
                       0.0, TWO_PI, bins)
    density_z = _z_scores(density, dens)
    pair_z = _z_scores(pair, rho2)

    return MixtureReport(
        temperature=t_temp,
        mu=mu,
        loop_time=2.0 / t_temp,
        samples=samples,
        mean_count=float(np.mean([len(d) for d in draws])),
        expected_count=n_bar,
        density_z=density_z,
        pair_z=pair_z,
        pair_fraction_above_3=float(np.mean(np.abs(pair_z) > 3.0)),
    )
