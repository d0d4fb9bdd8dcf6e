"""Samplers: projection determinantal processes, their grand-canonical
mixtures, and Haar eigenangles of the compact matrix groups.

Projection processes are drawn by the sequential conditioning scheme: pick a
point from the current marginal density, project its feature vector out of
the span, repeat.  The marginal is approximated, not sampled exactly: a cell
of a CELLS-cell midpoint grid is drawn, refined up to MAX_REFINE times into
SUBCELLS midpoint subcells, and the point drawn uniformly in the last one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import COS, SIN, WAVE, ModeFamily
from .thermo import fermi_factor

__all__ = [
    "RngSpec",
    "SamplerError",
    "group_modes",
    "haar_eigenangles",
    "haar_special_orthogonal",
    "haar_unitary",
    "make_rng",
    "sample_grand_canonical",
    "sample_grand_canonical_many",
    "sample_projection",
    "sample_projection_many",
]

TWO_PI = 2.0 * np.pi

CELLS = 4096
SUBCELLS = 64
MAX_REFINE = 3
MASS_TARGET = 1e-10


class SamplerError(RuntimeError):
    """The sequential sampler lost its probability mass."""


@dataclass(frozen=True)
class RngSpec:
    """Reproducible generator coordinates: a seed plus a stream index.

    Distinct streams under one seed are statistically independent, so batch
    jobs can fan out without sharing draws.
    """

    seed: int
    stream: int = 0


def make_rng(source) -> np.random.Generator:
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, RngSpec):
        ss = np.random.SeedSequence((source.seed, source.stream))
        return np.random.Generator(np.random.PCG64(ss))
    if isinstance(source, (int, np.integer)):
        return make_rng(RngSpec(int(source)))
    raise TypeError(f"cannot build a generator from {type(source).__name__}")


# ---------------------------------------------------------------------------
# group eigenangle mode families


def group_modes(group: str, n: int) -> tuple[ModeFamily, float]:
    """Feature modes of a group eigenangle kernel and its domain top.

    The returned family reproduces the kernel as sum_k phi_k(x) conj(phi_k(y))
    on [0, top); energies hold the squared frequencies.
    """
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    half_pi = np.sqrt(np.pi / 2.0)
    if group == "U":
        ks = np.arange(-n + 1, n, 2, dtype=float) / 2.0
        return ModeFamily(ks**2, WAVE, ks, np.sqrt(TWO_PI)), TWO_PI
    if group == "Sp":
        if n % 2:
            raise ValueError("symplectic groups have even matrix size")
        ks = np.arange(1, n // 2 + 1, dtype=float)
        return ModeFamily(ks**2, SIN, ks, half_pi), np.pi
    if group == "SO":
        if n % 2 == 0:
            ks = np.arange(0, n // 2, dtype=float)
            norm = np.where(ks == 0.0, np.sqrt(np.pi), half_pi)
            return ModeFamily(ks**2, COS, ks, norm), np.pi
        ks = np.arange(1, n // 2 + 1, dtype=float) - 0.5
        return ModeFamily(ks**2, SIN, ks, half_pi), np.pi
    raise ValueError(f"unknown group {group!r}; use U, Sp or SO")


# ---------------------------------------------------------------------------
# projection sampler


def _refine_cell(family, basis, lo: float, hi: float, rng) -> float:
    """Zoom into [lo, hi] by repeated subdivision, then draw uniformly."""
    for _ in range(MAX_REFINE):
        edges = np.linspace(lo, hi, SUBCELLS + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        phi = family.eval_matrix(mids)
        dens = np.sum(np.abs(phi) ** 2, axis=0)
        if basis is not None and len(basis):
            dens = dens - np.sum(np.abs(np.asarray(basis).conj() @ phi) ** 2, axis=0)
        dens = np.clip(dens, 0.0, None)
        total = float(np.sum(dens))
        if total <= 0.0:
            break
        idx = int(np.searchsorted(np.cumsum(dens) / total, rng.random(), side="right"))
        idx = min(idx, SUBCELLS - 1)
        lo, hi = edges[idx], edges[idx + 1]
        if dens[idx] / total <= MASS_TARGET:
            break
    return float(rng.uniform(lo, hi))


def _sample_points(family: ModeFamily, phi: np.ndarray, edges: np.ndarray,
                   rng) -> np.ndarray:
    """One draw of the projection process onto `family`, whose modes take
    the values `phi` at the cell midpoints."""
    n_pick = len(family)
    picked = np.empty(n_pick)
    base = np.sum(np.abs(phi) ** 2, axis=0)
    proj = np.zeros_like(base)
    widths = np.diff(edges)

    basis: list[np.ndarray] = []
    for step in range(n_pick):
        weights = np.clip(base - proj, 0.0, None) * widths
        total = float(np.sum(weights))
        if total <= 0.0:
            raise SamplerError(
                f"residual mass vanished at step {step} of {n_pick}"
            )
        idx = int(np.searchsorted(np.cumsum(weights) / total, rng.random(),
                                  side="right"))
        idx = min(idx, len(weights) - 1)
        x = _refine_cell(family, np.array(basis) if basis else None,
                         edges[idx], edges[idx + 1], rng)
        picked[step] = x

        phi_x = family.eval_matrix(np.array([x]))[:, 0]
        v = phi_x
        for b in basis:
            v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm**2 <= 1e-12 * np.sum(np.abs(phi_x) ** 2):
            raise SamplerError("picked a point already inside the span")
        b = v / nrm
        basis.append(b)
        proj = proj + np.abs(b.conj() @ phi) ** 2
    return np.sort(picked)


def _cell_cache(family, domain: tuple[float, float]):
    edges = np.linspace(domain[0], domain[1], CELLS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return family.eval_matrix(mids), edges


def sample_projection(family: ModeFamily, rng,
                      domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """One configuration of the projection process; always len(family) points."""
    return sample_projection_many(family, 1, rng, domain)[0]


def sample_projection_many(family: ModeFamily, count: int, rng,
                           domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """`count` independent configurations, shape (count, len(family))."""
    rng = make_rng(rng)
    phi_cells, edges = _cell_cache(family, domain)
    out = np.empty((count, len(family)))
    for i in range(count):
        out[i] = _sample_points(family, phi_cells, edges, rng)
    return out


# ---------------------------------------------------------------------------
# grand canonical sampler


def sample_grand_canonical(family: ModeFamily, t: float, mu: float, rng,
                           domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """One grand-canonical draw: Bernoulli mode occupation, then positions."""
    return sample_grand_canonical_many(family, t, mu, 1, rng, domain)[0]


def sample_grand_canonical_many(family: ModeFamily, t: float, mu: float,
                                count: int, rng,
                                domain: tuple[float, float] = (0.0, TWO_PI),
                                ) -> list[np.ndarray]:
    """`count` independent grand-canonical draws (variable point counts)."""
    rng = make_rng(rng)
    p = fermi_factor(family.energies, t, mu)
    phi_cells, edges = _cell_cache(family, domain)
    out = []
    for _ in range(count):
        occupied = np.flatnonzero(rng.random(len(p)) < p)
        if len(occupied) == 0:
            out.append(np.empty(0))
            continue
        out.append(_sample_points(family[occupied], phi_cells[occupied],
                                  edges, rng))
    return out


# ---------------------------------------------------------------------------
# Haar measures


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed U(n) via complex Gaussian QR with phase correction."""
    rng = make_rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_special_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-distributed SO(n): real Gaussian QR, then condition on det +1."""
    rng = make_rng(rng)
    while True:
        z = rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        q = q * np.sign(np.diagonal(r))
        if np.linalg.det(q) > 0:
            return q


def _unitary_angles(m: np.ndarray) -> np.ndarray:
    return np.sort(np.mod(np.angle(np.linalg.eigvals(m)), TWO_PI))


def _so_angles(m: np.ndarray, n: int) -> np.ndarray | None:
    lam = np.linalg.eigvals(m)
    sel = lam[lam.imag > 1e-12]
    if len(sel) != n // 2:
        return None
    return np.sort(np.angle(sel))


def haar_eigenangles(group: str, n: int, count: int, rng) -> np.ndarray:
    """Sorted eigenangle configurations of `count` Haar matrices.

    U(n) gives n angles on [0, 2pi); SO(n) gives its n//2 free angles on
    (0, pi), the fixed +-1 eigenvalues dropped.  A draw whose spectrum lands
    too close to the real axis for the pairing to resolve is redrawn once.
    """
    rng = make_rng(rng)
    if group == "U":
        out = np.empty((count, n))
        for i in range(count):
            out[i] = _unitary_angles(haar_unitary(n, rng))
        return out
    if group == "SO":
        out = np.empty((count, n // 2))
        for i in range(count):
            angles = _so_angles(haar_special_orthogonal(n, rng), n)
            if angles is None:
                angles = _so_angles(haar_special_orthogonal(n, rng), n)
            if angles is None:
                raise SamplerError("eigenvalue pairing failed twice in a row")
            out[i] = angles
        return out
    raise ValueError(f"no eigenangle sampler for group {group!r}")
