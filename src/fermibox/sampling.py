"""Samplers: projection determinantal processes, their grand-canonical
mixtures, and Haar eigenangles of the compact matrix groups.

Projection processes are drawn exactly by the chain rule of Hough,
Krishnapur, Peres and Virag (2006): pick a point from the current marginal
density, project its feature vector out of the span, repeat.  Each marginal
is drawn by rejection from batches of uniform proposals under the envelope
sum_k sup |psi_k|^2 >= K(x, x), as in DPPy (Gautier et al. 2019).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import COS, SIN, TRIG, WAVE, ModeFamily
from .thermo import fermi_factor

__all__ = [
    "RngSpec",
    "SamplerError",
    "group_modes",
    "haar_eigenangles",
    "haar_special_orthogonal",
    "haar_unitary",
    "make_rng",
    "sample_grand_canonical_many",
    "sample_projection",
    "sample_projection_many",
]

TWO_PI = 2.0 * np.pi

BATCH_CAP = 2048    # proposals evaluated at once: memory O(modes x BATCH_CAP)
STEP_BUDGET = 64    # proposals one step may examine, in expected counts
CHUNK_ENTRIES = 2 ** 14  # Haar matrix entries drawn at once: bounds peak memory
CAYLEY_MAX = 1e3    # largest |tan(angle / 2)| a Cayley pass of a Haar draw accepts


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


def _mode_sups(family: ModeFamily, domain: tuple[float, float]) -> np.ndarray:
    """sup |psi_k|^2 over `domain`, per mode; their sum bounds K(x, x).

    Sine, cosine and plane-wave rows peak at 1/a^2, a trig row at most at
    |a|^2 + |b|^2 (Cauchy-Schwarz).  Linear and decaying rows have a convex
    |psi|^2, since (|psi|^2)'' = 2|psi'|^2 + 2 w^2 |psi|^2, so they peak at
    an end of the domain.  The sups are padded by a relative 1e-12: a
    plane-wave family's K(x, x) rounds a few ulp above their sum.
    """
    ends = np.max(np.abs(family.eval_matrix(np.array(domain, dtype=float))) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        plain = family.a.real ** -2.0
    trig = np.abs(family.a) ** 2 + np.abs(family.b) ** 2
    return np.select([np.isin(family.kind, (SIN, COS, WAVE)), family.kind == TRIG],
                     [plain, trig], ends) * (1.0 + 1e-12)


def _sample_points(family: ModeFamily, sups: np.ndarray,
                   domain: tuple[float, float], rng) -> np.ndarray:
    """One exact draw of the projection process onto `family`.

    Step i accepts a uniform proposal x, u ~ U[0, bound) when
    u < r_i(x) = |phi(x)|^2 - |B_i^H phi(x)|^2, with B_i an orthonormal basis
    of the picked points' feature vectors, so x has density r_i / (n - i).
    Proposals come in batches; those a step leaves unexamined are independent
    of it and carry over, each needing one new basis coefficient.  A step
    that exhausts its proposal budget, or a point that adds nothing to the
    span, ends in SamplerError.
    """
    n = len(family)
    lo, hi = domain
    bound = float(np.sum(sups))
    scale = (hi - lo) * bound           # expected proposals at step i: scale / (n - i)
    basis = np.empty((n, n), dtype=complex)
    picked = np.empty(n)
    xs = u = res = np.empty(0)
    at = 0
    for step in range(n):
        seen = 0
        while not np.any(hit := u[at:] < res[at:]):
            seen += len(u) - at
            if seen > STEP_BUDGET * scale / (n - step):
                raise SamplerError(f"residual mass vanished at step {step} of {n}")
            # the mean need of every remaining step, plus 32 so small draws rarely refill
            size = min(BATCH_CAP, int(scale * np.sum(1.0 / np.arange(1, n - step + 1))) + 32)
            xs = rng.uniform(lo, hi, size)
            u = rng.uniform(0.0, bound, size)
            phi = np.ascontiguousarray(family.eval_matrix(xs).T)
            res = np.sum(phi.real**2 + phi.imag**2, axis=1)
            if np.max(res) > bound:
                raise SamplerError("K(x, x) exceeds the mode envelope")
            res -= np.sum(np.abs(phi @ basis[:step].T.conj()) ** 2, axis=1)
            at = 0
        j = at + int(np.argmax(hit))
        v = phi[j]
        for _ in range(2):              # Gram-Schmidt, repeated for stability
            v = v - (basis[:step].conj() @ v) @ basis[:step]
        nrm2 = np.vdot(v, v).real
        if nrm2 <= 1e-12 * np.vdot(phi[j], phi[j]).real:
            raise SamplerError("picked a point already inside the span")
        basis[step] = v / np.sqrt(nrm2)
        picked[step] = xs[j]
        at = j + 1
        res[at:] -= np.abs(phi[at:] @ basis[step].conj()) ** 2
    return np.sort(picked)


def sample_projection(family: ModeFamily, rng,
                      domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """One configuration of the projection process; always len(family) points."""
    return sample_projection_many(family, 1, rng, domain)[0]


def sample_projection_many(family: ModeFamily, count: int, rng,
                           domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """`count` independent configurations, shape (count, len(family))."""
    rng = make_rng(rng)
    sups = _mode_sups(family, domain)
    out = np.empty((count, len(family)))
    for i in range(count):
        out[i] = _sample_points(family, sups, domain, rng)
    return out


# ---------------------------------------------------------------------------
# grand canonical sampler


def sample_grand_canonical_many(family: ModeFamily, t: float, mu: float,
                                count: int, rng,
                                domain: tuple[float, float] = (0.0, TWO_PI),
                                ) -> list[np.ndarray]:
    """`count` independent grand-canonical draws (variable point counts)."""
    rng = make_rng(rng)
    p = fermi_factor(family.energies, t, mu)
    sups = _mode_sups(family, domain)
    out = []
    for _ in range(count):
        occupied = np.flatnonzero(rng.random(len(p)) < p)
        out.append(_sample_points(family[occupied], sups[occupied], domain, rng))
    return out


# ---------------------------------------------------------------------------
# Haar measures (Mezzadri, Notices AMS 2007)


def _haar_stack(group: str, n: int, count: int, rng) -> np.ndarray:
    """`count` Haar matrices of U(n) or SO(n), using `rng` as `count` single
    draws do.  SO draws of det -1 are carried to SO(n) by a fixed reflection."""
    if group == "U":
        g = rng.standard_normal((count, 2, n, n))
        q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
        d = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
        return q * (d / np.abs(d))
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[:, :, 0] *= np.sign(np.linalg.det(q))[:, None]
    return q


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed U(n) via complex Gaussian QR with phase correction."""
    return _haar_stack("U", n, 1, make_rng(rng))[0]


def haar_special_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-distributed SO(n): real Gaussian QR with sign correction."""
    return _haar_stack("SO", n, 1, make_rng(rng))[0]


def _tan_half_angles(v: np.ndarray) -> np.ndarray:
    """tan(a / 2) for the eigenangles a of a stack of unitaries V: eigenvalues
    of the Cayley transforms i(I - V)(I + V)^-1, made exactly Hermitian."""
    eye = np.eye(v.shape[-1])
    try:
        h = 1j * np.linalg.solve(eye + v, eye - v)
        return np.linalg.eigvalsh(0.5 * (h + np.conj(np.swapaxes(h, 1, 2))))
    except np.linalg.LinAlgError:       # some I + V is exactly singular
        return np.tan(0.5 * np.angle(np.linalg.eigvals(v)))


def _eigenangles(u: np.ndarray) -> np.ndarray:
    """Sorted eigenangles on [0, 2pi) of a stack of unitaries.  A matrix with an
    eigenvalue near -1 is solved again, rotated to put its widest gap at -1."""
    w = _tan_half_angles(u)
    theta = 2.0 * np.arctan(w)
    redo = ~(np.max(np.abs(w), axis=1) <= CAYLEY_MAX)
    if redo.any():
        rough = np.sort(np.mod(theta[redo], TWO_PI), axis=1)
        gaps = np.diff(rough, axis=1, append=rough[:, :1] + TWO_PI)
        k = np.argmax(gaps, axis=1)[:, None]
        phi = np.take_along_axis(rough + 0.5 * gaps, k, axis=1) - np.pi
        theta[redo] = 2.0 * np.arctan(_tan_half_angles(u[redo] * np.exp(-1j * phi)[:, :, None])) + phi
    theta = np.mod(theta, TWO_PI)
    theta[theta == TWO_PI] = 0.0    # mod rounds angles just below 0 up to 2pi
    return np.sort(theta, axis=1)


def haar_eigenangles(group: str, n: int, count: int, rng) -> np.ndarray:
    """Sorted eigenangles of `count` Haar matrices, drawn CHUNK_ENTRIES entries at
    a time: n on [0, 2pi) for U(n); for SO(n) the n//2 largest on (-pi, pi], so
    no fixed +1 and one angle per conjugate pair.  Within 1e-10 of `eigvals`."""
    if group not in ("U", "SO") or n < 1:
        raise ValueError(f"no eigenangle sampler for group {group!r} of size {n}")
    rng = make_rng(rng)
    chunk = max(1, CHUNK_ENTRIES // (n * n))
    out = np.empty((count, n))
    for start in range(0, count, chunk):
        m = _haar_stack(group, n, min(chunk, count - start), rng)
        out[start:start + len(m)] = _eigenangles(m)
    if group == "U":
        return out
    return np.sort(np.where(out > np.pi, out - TWO_PI, out), axis=1)[:, n - n // 2:]
