"""Fermi occupation numbers, chemical potential solvers, mode counting.

The grand-canonical state fills mode k independently with probability
p_k = 1/(1 + exp((E_k - mu)/T)); everything here is bookkeeping around that
weight: the half-integer polylogarithm fixing the bulk fugacity, chemical
potential solves at fixed mean count, and the exact Poisson-binomial count
distribution.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import expit

__all__ = [
    "BracketFailure",
    "count_distribution",
    "fermi_factor",
    "mode_probabilities",
    "polylog_half",
    "solve_lambda",
    "solve_mu",
]

PROB_FLOOR = 1e-14


class BracketFailure(RuntimeError):
    """Raised when a scalar solve cannot bracket or converge on its root."""


def fermi_factor(e, t: float, mu: float):
    """Occupation weight 1/(1 + exp((e - mu)/t)); vectorized, overflow-safe."""
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    return expit((mu - np.asarray(e, dtype=float)) / t)


# Gauss-Legendre nodes and weights on [-1, 1] for every panel of _fermi_integral
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_CHUNK_ENTRIES = 1 << 16
MAX_PANELS = 1 << 16      # past this a rule needs 2M nodes: c or |d| is out of range


def _fermi_rule(c: float, log_lam: float, octave: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights w F(u) of one 32-point Gauss-Legendre rule on [0, u_max].

    Panels centre on the Fermi factor's nearest complex pole u^2 = c (log_lam
    + i pi), at the Fermi step when that is sharp: the central one reaches
    the pole's distance from the real axis, and each further one is as wide
    as its distance from the centre but at most 20 / (pi 2^octave), so for
    |d| <= 2^octave it spans at most ten radians of cos(pi d u) each side
    of its midpoint.
    """
    u_max = math.sqrt(c * (36.0 + np.logaddexp(0.0, log_lam)))
    if not 0.0 < u_max < math.inf:
        raise ValueError(f"Fermi integral needs finite c > 0 and log lam, got {c}, {log_lam}")
    pole = cmath.sqrt(c * complex(log_lam, math.pi))
    h = 20.0 / (math.pi * 2.0 ** octave)
    offset = min(pole.imag, 0.5 * h)
    cuts = [0.0, u_max]
    while offset < max(pole.real, u_max - pole.real):
        cuts += [x for x in (pole.real - offset, pole.real + offset) if 0.0 < x < u_max]
        offset += min(offset, h)
        if len(cuts) > MAX_PANELS:
            raise ValueError(f"Fermi integral at c = {c:.3g}, |d| <= 2^{octave} "
                             f"needs more than {MAX_PANELS} panels")
    edges = np.array(sorted(cuts))
    half = 0.5 * (edges[1:] - edges[:-1])
    u = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_X).ravel()
    return u, (half[:, None] * _GL_W).ravel() * expit(log_lam - u * u / c)


def _fermi_integral(d, c: float, log_lam: float) -> np.ndarray:
    """int_0^u_max cos(pi d u) / (1 + exp(u^2/c - log_lam)) du for each entry of d.

    Computed once per distinct |d|; u_max = sqrt(c (36 + log(1 + lam))) leaves
    a tail below e^-36.  `_fermi_rule` depends on d only through the octave of
    max(|d|, 1), so no entry's value depends on the others; memory is
    O(distinct |d| x nodes), in chunks.
    """
    ad, inv = np.unique(np.abs(np.asarray(d, dtype=float)).ravel(), return_inverse=True)
    octaves = np.ceil(np.log2(np.maximum(ad, 1.0)))
    out = np.empty(ad.shape)
    for k in sorted(set(octaves.tolist())):
        u, wf = _fermi_rule(c, log_lam, int(k))
        idx = np.flatnonzero(octaves == k)
        for rows in np.array_split(idx, -(-len(idx) * len(u) // _CHUNK_ENTRIES)):
            # a row sum, not a matrix product: BLAS may round a row
            # differently with other rows present
            out[rows] = (np.cos(np.pi * ad[rows, None] * u) * wf).sum(axis=1)
    return out[inv].reshape(np.shape(d))


def polylog_half(lam: float) -> float:
    """Li_{1/2}(-lam) for lam > 0, via the Fermi-Dirac integral.

    Li_{1/2}(-lam) = -(2/sqrt(pi)) * int_0^inf du / (1 + exp(u^2)/lam),
    `_fermi_integral` at d = 0 and c = 1; accurate to ~1e-15.
    """
    if not lam > 0:
        raise ValueError(f"fugacity must be positive, got {lam}")
    _, wf = _fermi_rule(1.0, float(np.log(lam)), 0)
    return float(-2.0 / np.sqrt(np.pi) * wf.sum())


def solve_lambda(c: float, tol: float = 1e-10) -> float:
    """Fugacity lam with Li_{1/2}(-lam) = -2/sqrt(pi c), for c > 0.

    The left side decreases strictly from 0, so bisection after a geometric
    bracket expansion is safe.  Residual at the returned root <= tol.
    """
    if c <= 0:
        raise ValueError(f"scaled temperature must be positive, got {c}")
    target = -2.0 / np.sqrt(np.pi * c)

    def g(lam: float) -> float:
        return polylog_half(lam) - target

    lo, hi = 1e-12, 1.0
    for _ in range(200):
        if g(hi) < 0.0:
            break
        lo, hi = hi, hi * 4.0
    else:
        raise BracketFailure("could not bracket the fugacity solve")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    lam = 0.5 * (lo + hi)
    if abs(g(lam)) > tol:
        raise BracketFailure(f"fugacity solve stalled, residual {g(lam):.3g}")
    return float(lam)


def solve_mu(energies, t: float, target: float, tol: float = 1e-10) -> float:
    """Chemical potential with sum_k fermi_factor(E_k, t, mu) = target.

    `energies` must extend far enough above the Fermi level that the
    occupancy of the last mode is negligible; this is checked and reported
    rather than silently absorbed.  Bisection with geometric bracket
    expansion around the naive level E_ceil(target); 200 iteration cap.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if not 0 < target < len(e):
        raise ValueError(f"target count {target} outside (0, {len(e)})")

    def count(mu: float) -> float:
        return float(np.sum(fermi_factor(e, t, mu)))

    mu0 = e[min(len(e) - 1, int(np.ceil(target)))]
    span = max(1.0, t)
    lo, hi = mu0 - span, mu0 + span
    for _ in range(200):
        if count(lo) < target:
            break
        lo -= span
        span *= 2.0
    else:
        raise BracketFailure("could not bracket mu from below")
    span = max(1.0, t)
    for _ in range(200):
        if count(hi) > target:
            break
        hi += span
        span *= 2.0
    else:
        raise BracketFailure("could not bracket mu from above")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if count(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(1e-13, 1e-13 * abs(mid)):
            break
    mu = 0.5 * (lo + hi)
    residual = abs(count(mu) - target)
    if residual > tol:
        raise BracketFailure(
            f"count residual {residual:.3g} at mu={mu:.6g}; "
            "the constraint may be discontinuous across a sparse spectrum"
        )
    if fermi_factor(e[-1], t, mu) > 1e-9:
        raise ValueError(
            "energy list too short for a certified solve: top mode still has "
            f"occupancy {fermi_factor(e[-1], t, mu):.3g}"
        )
    return float(mu)


def mode_probabilities(energies, t: float, mu: float) -> np.ndarray:
    """Occupancies of the listed modes; entries below 1e-14 are zeroed.

    The zeroing is a certified truncation: each dropped mode contributes
    less than 1e-14 to every correlation function.
    """
    p = fermi_factor(np.asarray(energies, dtype=float), t, mu)
    p = np.where(p < PROB_FLOOR, 0.0, p)
    return p


def count_distribution(probabilities) -> np.ndarray:
    """Exact Poisson-binomial law of the occupied-mode count.

    Sequential convolution; returns P[N = j] for j = 0..n.  (1/2, 1/2)
    gives (1/4, 1/2, 1/4).
    """
    p = np.asarray(probabilities, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    dist = np.array([1.0])
    for pk in p:
        dist = np.convolve(dist, [1.0 - pk, pk])
    return dist
