"""Samplers: projection determinantal processes, their grand-canonical
mixtures, and Haar eigenangles of the compact matrix groups.

Projection processes are drawn exactly by the chain rule of Hough,
Krishnapur, Peres and Virag (2006): pick a point from the current marginal
density, project its feature vector out of the span, repeat.  Each marginal
is drawn by rejection from batches of uniform proposals under the envelope
sum_k sup |psi_k|^2 >= K(x, x), as in DPPy (Gautier et al. 2019).  Draws of
one point count run in lockstep, chunked by CHUNK_ENTRIES proposal entries;
a draw too large to share a chunk keeps the stream a lone draw always had.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _ROWS, COS, SIN, TRIG, WAVE, ModeFamily
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
CHUNK_ENTRIES = 2 ** 14  # Haar matrix or sampler proposal entries at once: bounds peak memory
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


def _eval_rows(kind, w, a, b, xs, out) -> np.ndarray:
    """Fill out[d, i, k] = psi_k(xs[d, i]) for the modes (kind, w, a, b)[d, k]
    of draw d.  Each kind's rows are gathered and evaluated by their `_ROWS`
    formula, with the bits `ModeFamily.eval_matrix` gives them."""
    for code, row in enumerate(_ROWS):
        d, k = np.nonzero(kind == code)
        if len(d):
            out[d, :, k] = row(w[d, k, None], a[d, k, None], b[d, k, None], xs[d])
    return out


def _sample_points(family: ModeFamily, sups: np.ndarray, modes: np.ndarray,
                   domain: tuple[float, float], rng) -> np.ndarray:
    """Exact draws of the projection processes onto family[modes[d]], one per
    row of `modes`, each sorted.

    Step i accepts a uniform proposal x, u ~ U[0, bound) when
    u < r_i(x) = |phi(x)|^2 - |B_i^H phi(x)|^2, with B_i an orthonormal basis
    of the picked points' feature vectors, so x has density r_i / (n - i).
    Proposals come in batches; those a step leaves unexamined are independent
    of it and carry over, each needing one new basis coefficient.  A step
    that exhausts its proposal budget, or a point that adds nothing to the
    span, ends in SamplerError.

    The draws run in lockstep, in chunks of as many draws as keep draws x
    first-batch width x n within CHUNK_ENTRIES (at least one): each step runs
    once for a whole chunk.  A draw whose proposals run dry is refilled
    alone, right-aligned in the chunk's width, since refills shrink as steps
    advance.  A proposal a draw rejected stays rejected, as residuals only
    fall, so each draw takes its own first hit.  A chunk of one draw uses
    `rng` as a lone draw does.
    """
    (count, n), (lo, hi) = modes.shape, domain
    bound = np.sum(sups[modes], axis=1)
    scale = (hi - lo) * bound           # expected proposals at step i: scale / (n - i)

    def width(step, scale):
        # the mean need of every remaining step, plus 32 so small draws rarely refill
        need = np.max(scale, initial=0.0) * np.sum(1.0 / np.arange(1, n - step + 1))
        return min(BATCH_CAP, int(need) + 32)

    out = np.empty((count, n))
    chunk = max(1, CHUNK_ENTRIES // (width(0, scale) * max(n, 1)))
    for start in range(0, count, chunk):
        sel = modes[start:start + chunk]
        kind, w, a, b = (f[sel] for f in (family.kind, family.w, family.a, family.b))
        bnd, scl, m = bound[start:start + chunk], scale[start:start + chunk], len(sel)
        cols = width(0, scl)
        xs, u, res = np.empty((3, m, cols))
        phi = np.empty((m, cols, n), dtype=complex)
        basis, cbasis = np.empty((2, m, n, n), dtype=complex)
        basis_t, phi_rows = basis.transpose(0, 2, 1), phi.reshape(m * cols, n, 1)
        picked, at = np.empty((m, n)), np.full(m, cols)
        c0, row_starts = cols, np.arange(m) * cols
        for step in range(n):
            seen = 0
            while not (has := (hit := u[:, c0:] < res[:, c0:]).any(axis=1)).all():
                dry = np.flatnonzero(~has)
                sub = dry if len(dry) < m else slice(None)  # a slice: phi[sub] is a view
                seen = seen + (cols - at) * ~has
                if (seen > STEP_BUDGET * scl / (n - step)).any():
                    raise SamplerError(f"residual mass vanished at step {step} of {n}")
                c = cols - width(step, scl[dry])
                xs[sub, c:] = rng.uniform(lo, hi, (len(dry), cols - c))
                u[sub, c:] = rng.random((len(dry), cols - c)) * bnd[sub, None]
                p = _eval_rows(kind[sub], w[sub], a[sub], b[sub], xs[sub, c:], phi[sub, c:])
                r = np.sum(p.real**2 + p.imag**2, axis=2)
                if (np.max(r, axis=1) > bnd[sub]).any():
                    raise SamplerError("K(x, x) exceeds the mode envelope")
                r -= np.sum(np.abs(p @ cbasis[sub, :step].transpose(0, 2, 1)) ** 2, axis=2)
                phi[sub, c:], res[sub, c:], at[sub] = p, r, c
                c0 = at.min()
            j = c0 + hit.argmax(axis=1)
            flat = row_starts + j           # the picked proposals, as flat indices
            v = v0 = phi_rows[flat]
            for _ in range(2):              # Gram-Schmidt, repeated for stability
                v = v - basis_t[:, :, :step] @ (cbasis[:, :step] @ v)
            nrm2 = np.vecdot(v, v, axis=1).real
            if (nrm2 <= 1e-12 * np.vecdot(v0, v0, axis=1).real).any():
                raise SamplerError("picked a point already inside the span")
            np.divide(v[..., 0], np.sqrt(nrm2), out=basis[:, step])
            np.conjugate(basis[:, step], out=cbasis[:, step])
            picked[:, step] = xs.take(flat)
            u.reshape(-1)[flat] = np.inf    # a picked proposal is spent
            at = j + 1
            c0 = at.min()
            res[:, c0:] -= np.abs(phi[:, c0:] @ cbasis[:, step, :, None])[..., 0] ** 2
        out[start:start + m] = np.sort(picked, axis=1)
    return out


def sample_projection(family: ModeFamily, rng,
                      domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """One configuration of the projection process; always len(family) points."""
    return sample_projection_many(family, 1, rng, domain)[0]


def sample_projection_many(family: ModeFamily, count: int, rng,
                           domain: tuple[float, float] = (0.0, TWO_PI)) -> np.ndarray:
    """`count` independent configurations, shape (count, len(family))."""
    modes = np.broadcast_to(np.arange(len(family)), (count, len(family)))
    return _sample_points(family, _mode_sups(family, domain), modes, domain, make_rng(rng))


# ---------------------------------------------------------------------------
# grand canonical sampler


def sample_grand_canonical_many(family: ModeFamily, t: float, mu: float,
                                count: int, rng,
                                domain: tuple[float, float] = (0.0, TWO_PI),
                                ) -> list[np.ndarray]:
    """`count` independent grand-canonical draws (variable point counts).

    Every occupation is drawn first; the draws of each point count then run
    in lockstep and come back in draw order."""
    rng = make_rng(rng)
    occupied = rng.random((count, len(family))) < fermi_factor(family.energies, t, mu)
    sizes = np.count_nonzero(occupied, axis=1)
    sups = _mode_sups(family, domain)
    out = [None] * count
    for n in np.unique(sizes):
        idx = np.flatnonzero(sizes == n)
        modes = np.nonzero(occupied[idx])[1].reshape(len(idx), n)
        for i, pts in zip(idx, _sample_points(family, sups, modes, domain, rng)):
            out[i] = pts
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
