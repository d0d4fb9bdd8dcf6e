"""Spectral solver for -d^2/dx^2 on (0, 2*pi) under a unitary boundary matrix.

The eigenvalue condition is reduced to a pair of continuous eigenphase
functions of a 2x2 unitary built from boundary trace matrices; eigenvalues are
the parameter points where an eigenphase passes through a multiple of 2*pi.
The phase unwrapping is done in closed form, not numerically, so the scan is
robust to coarse grids.  Degeneracies (at most double here) are resolved
through the singular values of the boundary pencil.

Every stage works on whole arrays: one eigenphase evaluation over all scan
nodes of a sector, one bisection over all its brackets to brentq's
tolerance, one stacked SVD for the modes.  No scan passes MAX_LEVELS levels
by the Weyl count (ValueError), and phases are pinned on the first
coefficient within 1e-8 relative of the largest, so ties never hang on rounding.

Single-particle modes, solved or closed-form, are rows of one array-backed
`ModeFamily` (energy, kind code, frequency, two coefficients); the solver
builds its family straight from the sector arrays, and `eval_matrix`
evaluates all rows of a kind in one numpy expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryData, BoundaryMatrix

__all__ = [
    "ModeFamily",
    "NormalizationFailure",
    "RootSearchFailure",
    "Spectrum",
    "WeylReport",
    "mode_boundary_data",
    "orthonormality_check",
    "secular_det",
    "solve_spectrum",
    "weyl_check",
]

L = 2.0 * np.pi  # box length; everything below is hard-wired to it

GRID_STEP = np.pi / 8.0
DEGENERACY_TOL = 1e-8
ZERO_MODE_TOL = 1e-8
OMEGA_FLOOR = 1e-6
MAX_LEVELS = 20_000    # ceiling on the modes of one solve (Weyl count)


class RootSearchFailure(RuntimeError):
    """Raised when the eigenvalue scan cannot deliver the requested modes."""


class NormalizationFailure(RuntimeError):
    """Raised when a candidate eigenfunction cannot be L2-normalized."""


# Row formulas by kind code.  The first three serve the closed-form families
# of `kernels` and `sampling` and repeat the floating-point operations of the
# closed formulas, so those families evaluate to the same bits; their norm is
# `a.real`, since numpy divides by a complex `a` through its reciprocal.  The
# last three are what `solve_spectrum` finds; DECAY rows hold the decaying
# pair (c1, c2) of c1 exp(-k x) + c2 exp(-k (2*pi - x)), bounded at any k,
# where a cosh/sinh pair would cancel catastrophically.
_ROWS = (
    lambda w, a, b, x: np.sin(w * x) / a.real,                    # SIN
    lambda w, a, b, x: np.cos(w * x) / a.real,                    # COS
    lambda w, a, b, x: np.exp(1j * w * x) / a.real,               # WAVE
    lambda w, a, b, x: a * np.cos(w * x) + b * np.sin(w * x),     # TRIG
    lambda w, a, b, x: a + b * x,                                 # LINEAR
    lambda w, a, b, x: a * np.exp(-w * x) + b * np.exp(-w * (L - x)),  # DECAY
)
SIN, COS, WAVE, TRIG, LINEAR, DECAY = range(len(_ROWS))


@dataclass(frozen=True)
class ModeFamily:
    """Orthonormal modes as rows: mode k is _ROWS[kind[k]](w[k], a[k], b[k], x).

    Scalar fields broadcast over the modes; ``family[idx]`` is the family of
    the selected rows.
    """

    energies: np.ndarray
    kind: np.ndarray
    w: np.ndarray
    a: np.ndarray
    b: np.ndarray = 0.0

    def __post_init__(self):
        n = np.shape(self.energies)
        for name, dtype in (("energies", float), ("kind", int), ("w", float),
                            ("a", complex), ("b", complex)):
            object.__setattr__(self, name, np.array(np.broadcast_to(getattr(self, name), n), dtype=dtype))

    def __len__(self) -> int:
        return len(self.energies)

    def __getitem__(self, idx) -> "ModeFamily":
        return ModeFamily(self.energies[idx], self.kind[idx], self.w[idx],
                          self.a[idx], self.b[idx])

    def eval_matrix(self, xs) -> np.ndarray:
        """phi[k, ...] = psi_k(xs), all rows of one kind in one expression."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty((len(self), xs.size), dtype=complex)
        for code, row in enumerate(_ROWS):
            sel = np.flatnonzero(self.kind == code)
            if len(sel):
                out[sel] = row(self.w[sel, None], self.a[sel, None],
                               self.b[sel, None], xs.ravel())
        return out.reshape((len(self),) + xs.shape)


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenmodes of one boundary condition, up to a scan ceiling.

    ``modes`` holds TRIG rows (w = omega = sqrt(E)), LINEAR rows (E = 0,
    w = 0) and DECAY rows (w = kappa = sqrt(-E), a and b the decaying pair).
    """

    bc: BoundaryMatrix
    modes: ModeFamily
    e_max: float

    @property
    def energies(self) -> np.ndarray:
        return self.modes.energies

    def __len__(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class WeylReport:
    max_abs_deviation: float
    at_energy: float
    n_modes: int


# ---------------------------------------------------------------------------
# boundary trace matrices
#
# P rows are (value at 2*pi, value at 0) of the basis functions; Q rows are
# the inward derivatives at the same edges.  The self-adjointness relation for
# psi = x1 f1 + x2 f2 becomes (P - iQ) x = U (P + iQ) x.  Every builder takes
# a scalar or an array of parameters and returns a (..., 2, 2) stack.


def _mat(a, b, c, d) -> np.ndarray:
    """The stack of 2x2 matrices [[a, b], [c, d]] over the broadcast entries."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)


def _trig_pq(omega) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(L * omega), np.sin(L * omega)
    return _mat(c, s, 1.0, 0.0), _mat(omega * s, -omega * c, 0.0, omega)


def _hyp_pq(kappa) -> tuple[np.ndarray, np.ndarray]:
    # in the decaying basis {exp(-k x), exp(-k (2*pi - x))}; bounded for any k
    q_ = np.exp(-L * kappa)
    return _mat(q_, 1.0, 1.0, q_), _mat(kappa * q_, -kappa, -kappa, kappa * q_)


def _hyp_pq_coshsinh(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    # only for the secular_det diagnostic; overflows for kappa >~ 56
    ch, sh = np.cosh(L * kappa), np.sinh(L * kappa)
    return _mat(ch, sh, 1.0, 0.0), _mat(-kappa * sh, -kappa * ch, 0.0, kappa)


def _linear_pq() -> tuple[np.ndarray, np.ndarray]:
    return _mat(1.0, L, 1.0, 0.0), _mat(0.0, -1.0, 0.0, 1.0)


def _pencil(u: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (p - 1j * q) - u @ (p + 1j * q)


def secular_det(bc: BoundaryMatrix, e: float) -> complex:
    """det of the boundary pencil at trial energy e (diagnostic).

    Uses the (cos, sin) basis for e > 0, (cosh, sinh) for e < 0 and (1, x)
    at e = 0, so the value jumps across e = 0 while the zero set does not.
    """
    u = bc.matrix
    if e > 0:
        p, q = _trig_pq(np.sqrt(e))
    elif e < 0:
        p, q = _hyp_pq_coshsinh(np.sqrt(-e))
    else:
        p, q = _linear_pq()
    return complex(np.linalg.det(_pencil(u, p, q)))


# ---------------------------------------------------------------------------
# continuous eigenphases
#
# With A = P - iQ, B = P + iQ (P, Q real) the condition det(A - U B) = 0 is
# equivalent to 1 in spec(V), V = U^H A B^{-1}, and V is unitary.  Its two
# eigenphases are phi/2 +- rho with e^{i phi} = det V; phi is made globally
# continuous through a closed-form factorization of det B.


def _arg_det_b_trig(omega):
    # det B = (i/2) [(1+w)^2 e^{i L w} - (1-w)^2 e^{-i L w}]
    r = ((1.0 - omega) / (1.0 + omega)) ** 2
    tail = 1.0 - r * np.exp(-2j * L * omega)
    return 0.5 * np.pi + L * omega + np.angle(tail)


def _arg_det_b_hyp(kappa):
    # det B = -(1 - i k)^2 [1 - e^{-2 L k} ((1+ik)/(1-ik))^2]
    q2 = np.exp(-2.0 * L * kappa)
    rot = np.exp(4j * np.arctan(kappa))
    return np.pi - 2.0 * np.arctan(kappa) + np.angle(1.0 - q2 * rot)


def _alpha_u(bc: BoundaryMatrix) -> float:
    return float(-np.angle(np.linalg.det(bc.matrix)))


def _thetas(u: np.ndarray, xs: np.ndarray, sector: str, alpha: float) -> np.ndarray:
    """Both eigenphase branches at every parameter point, shape (n, 2).

    tr V = tr(U^H A adj B) / det B with the 2x2 adjugate written out."""
    pq, argd = (_trig_pq, _arg_det_b_trig) if sector == "trig" else (_hyp_pq, _arg_det_b_hyp)
    p, q = pq(xs)
    phi = alpha - 2.0 * argd(xs)
    w = np.einsum("ki,nkj->nij", u.conj(), p - 1j * q, optimize=True)  # U^H A
    b = p + 1j * q
    det_b = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    tr = (w[:, 0, 0] * b[:, 1, 1] - w[:, 0, 1] * b[:, 1, 0]
          - w[:, 1, 0] * b[:, 0, 1] + w[:, 1, 1] * b[:, 0, 0]) / det_b
    rho = np.arccos(np.clip((np.exp(-0.5j * phi) * tr).real / 2.0, -1.0, 1.0))
    return np.stack([phi / 2.0 + rho, phi / 2.0 - rho], -1)


def _bisect(f, lo, hi, f_lo, f_hi, xtol: float) -> np.ndarray:
    """Roots of the vectorized f in brackets [lo, hi] with f_lo * f_hi < 0.

    Each bracket halves until |hi - lo| <= xtol + 8.9e-16 |x| (brentq's rule);
    a final secant step inside it then lands within rounding of a smooth root.
    """
    while True:
        go = hi - lo > xtol + 8.9e-16 * np.abs(lo)
        if not go.any():
            return lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        up = go & (f_mid * f_lo > 0.0)
        down = go & ~up
        lo, f_lo = np.where(up, mid, lo), np.where(up, f_mid, f_lo)
        hi, f_hi = np.where(down, mid, hi), np.where(down, f_mid, f_hi)


def _branch_roots(u: np.ndarray, sector: str, x_lo: float, x_hi: float, alpha: float) -> np.ndarray:
    """All parameter points in [x_lo, x_hi] where an eigenphase hits 2*pi*Z, sorted."""
    n_cells = max(2, int(np.ceil((x_hi - x_lo) / GRID_STEP)))
    if not n_cells <= 10 * MAX_LEVELS:  # about 50 MB of arrays; only a bound-state scan gets here
        raise ValueError(f"a {sector} scan to {x_hi:.3g} needs more than {10 * MAX_LEVELS} cells")
    nodes = np.linspace(x_lo, x_hi, n_cells + 1)
    thetas = _thetas(u, nodes, sector, alpha)
    # one row per (cell, branch), then one entry per level 2*pi*m it crosses
    t0, t1 = thetas[:-1].ravel(), thetas[1:].ravel()
    m_lo = np.ceil(np.minimum(t0, t1) / (2.0 * np.pi) - 1e-12).astype(int)
    m_hi = np.floor(np.maximum(t0, t1) / (2.0 * np.pi) + 1e-12).astype(int)
    n_levels = np.maximum(m_hi - m_lo + 1, 0)
    row = np.repeat(np.arange(len(t0)), n_levels)
    first = np.repeat(np.cumsum(n_levels) - n_levels, n_levels)
    level = 2.0 * np.pi * (m_lo[row] + np.arange(len(row)) - first)
    cell, branch = row // 2, row % 2
    f0, f1 = t0[row] - level, t1[row] - level
    hit0 = np.abs(f0) < 1e-13
    hit1 = ~hit0 & (np.abs(f1) < 1e-13) & (cell == n_cells - 1)
    brk = ~hit0 & (np.abs(f1) >= 1e-13) & (f0 * f1 < 0.0)
    cell, branch, level = cell[brk], branch[brk], level[brk]
    roots = _bisect(lambda x: _thetas(u, x, sector, alpha)[np.arange(len(x)), branch] - level,
                    nodes[cell], nodes[cell + 1], f0[brk], f1[brk], 1e-13)
    return np.sort(np.concatenate([nodes[row[hit0] // 2], nodes[row[hit1] // 2 + 1], roots]))


# ---------------------------------------------------------------------------
# mode construction


def _gram_trig(omega) -> np.ndarray:
    s4 = np.sin(2.0 * L * omega) / (4.0 * omega)
    ics = np.sin(L * omega) ** 2 / (2.0 * omega)
    return _mat(np.pi + s4, ics, ics, np.pi - s4)


def _gram_hyp_decay(kappa) -> np.ndarray:
    q_ = np.exp(-L * kappa)
    diag = (1.0 - q_ * q_) / (2.0 * kappa)
    return _mat(diag, L * q_, L * q_, diag)


def _gram_linear() -> np.ndarray:
    return np.array([[L, L * L / 2.0], [L * L / 2.0, L**3 / 3.0]])


def _phase_fix(rows: np.ndarray) -> np.ndarray:
    """Make each row's pivot real positive: its first component whose |.| is
    within 1e-8 relative of the largest, so ties never hang on the last bit."""
    mag = np.abs(rows)
    at = np.arange(len(rows)), np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=1, keepdims=True), axis=1)
    out = rows * (rows[at].conj() / np.maximum(mag[at], np.finfo(float).tiny))[:, None]
    out[at] = mag[at]  # exactly real, whatever the rounding of the product
    return out


def _pencil_modes(u, p, q, gram, sizes, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicities and normalized coefficient rows of a stack of pencils.

    Pencil i yields one mode per singular value below tol (relative), at
    least sizes[i] and at most two: the last right singular vector, or both,
    largest first, the second Gram-orthogonalized against the first.
    """
    scale = (np.linalg.norm(p - 1j * q, axis=(1, 2))
             + np.linalg.norm(u @ (p + 1j * q), axis=(1, 2)))
    _, s, vh = np.linalg.svd(_pencil(u, p, q))
    mult = np.minimum(2, np.maximum(np.sum(s <= tol * scale[:, None], axis=1), sizes))
    src = np.repeat(np.arange(len(mult)), mult)
    second = np.diff(src, prepend=-1) == 0
    vecs, g = vh[src, np.where((mult[src] == 2) & ~second, 0, 1)].conj(), gram[src]
    out = np.zeros_like(vecs)
    for part in (~second, second):  # first mode of each pencil, then its partner
        w, gp = vecs[part], g[part]
        prev = out[np.flatnonzero(part) - 1] * second[part, None]
        w = w - np.einsum("ni,nij,nj->n", prev.conj(), gp, w)[:, None] * prev
        nrm2 = np.einsum("ni,nij,nj->n", w.conj(), gp, w).real
        bad = nrm2[~(np.isfinite(nrm2) & (nrm2 > 0.0))]
        if len(bad):
            raise NormalizationFailure(f"Gram norm {bad[0]!r} for candidate eigenfunction; "
                                       "boundary coupling too extreme")
        out[part] = w / np.sqrt(nrm2)[:, None]
    return mult, _phase_fix(out)


def _sector_modes(u: np.ndarray, sector: str, xs: np.ndarray, sizes: np.ndarray):
    """The root of every mode of one sector and its coefficient rows: (a, b)
    for trig, the decay pair (c1, c2) for hyp."""
    pq, gram = (_trig_pq, _gram_trig) if sector == "trig" else (_hyp_pq, _gram_hyp_decay)
    mult, rows = _pencil_modes(u, *pq(xs), gram(xs), sizes, DEGENERACY_TOL)
    return np.repeat(xs, mult), rows


def _group_roots(roots: np.ndarray, atol_scale: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted roots closer than atol_scale (relative): centres and sizes."""
    if len(roots) == 0:
        return roots, np.zeros(0, dtype=int)
    gap = np.diff(roots) > atol_scale * np.maximum(1.0, np.abs(roots[1:]))
    starts = np.flatnonzero(np.r_[True, gap])
    sizes = np.diff(np.r_[starts, len(roots)])
    return np.add.reduceat(roots, starts) / sizes, sizes


def _refine_double(sector: str, x0: np.ndarray, alpha: float) -> np.ndarray:
    """Polish double roots via the branch-phase sum.

    Individual eigenphase branches have a kink at a tangency, so bisection
    there only locates such roots to about sqrt(machine eps).  Their sum phi
    is smooth and crosses 2*pi*(m1 + m2) transversally at the double root.
    """
    argd = _arg_det_b_trig if sector == "trig" else _arg_det_b_hyp
    phi = lambda x: alpha - 2.0 * argd(x)
    target = 2.0 * np.pi * np.round(phi(x0) / (2.0 * np.pi))
    h = 1e-5 * np.maximum(1.0, np.abs(x0))
    lo, hi = np.maximum(x0 - h, OMEGA_FLOOR / 2.0), x0 + h
    f_lo, f_hi = phi(lo) - target, phi(hi) - target
    out = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, x0))
    brk = f_lo * f_hi < 0.0
    out[brk] = _bisect(lambda x: phi(x) - target[brk], lo[brk], hi[brk],
                       f_lo[brk], f_hi[brk], 1e-14)
    return out


def _roots(u: np.ndarray, sector: str, x_hi: float, alpha: float):
    """Grouped roots of one sector in [OMEGA_FLOOR, x_hi], doubles polished, and group sizes."""
    found = _branch_roots(u, sector, OMEGA_FLOOR, x_hi, alpha) if x_hi > OMEGA_FLOOR else np.zeros(0)
    xs, sizes = _group_roots(found)
    xs[sizes >= 2] = _refine_double(sector, xs[sizes >= 2], alpha)
    return xs, sizes


def _kappa_ceiling(bc: BoundaryMatrix) -> float:
    """Scan ceiling for bound states: 2x the largest plausible coupling.

    For labeled presets the coupling is read off the parameters; only an
    attractive one (tan(alpha/2) < 0 for Robin walls, c < 0 for the delta)
    can bind, so a repulsive one gets the floor of 2.  For raw matrices it
    is estimated from the Cayley transform of the eigenphases, clipped at 64
    (a bound state needs an attractive coupling of that order to push kappa
    anywhere near the clip).
    """
    if bc.label in ("dirichlet", "neumann", "zaremba", "periodic", "pseudo_periodic"):
        return 2.0
    if bc.label in ("robin", "dirichlet_robin"):
        return 2.0 * max(1.0, -np.tan(bc.params[0] / 2.0))
    if bc.label == "delta":
        return 2.0 * max(1.0, -bc.params[0])
    phases = np.angle(np.linalg.eigvals(bc.matrix))
    couplings = np.abs(np.tan(phases / 2.0))
    couplings = couplings[np.isfinite(couplings)]
    top = float(np.max(couplings)) if couplings.size else 1.0
    return 2.0 * max(1.0, min(top, 64.0))


def solve_spectrum(
    bc: BoundaryMatrix,
    count: int | None = None,
    e_max: float | None = None,
) -> Spectrum:
    """Solve for all eigenvalues up to e_max, or for the first `count` modes.

    Each sector (bound states, then oscillatory modes) is scanned once over
    one array of nodes; all its brackets are bisected together until
    |hi - lo| <= 1e-13 + 8.9e-16 |x| (brentq's rule).  A count request scans
    up to Weyl's estimate and retries 1.8x higher if short.  Modes come back
    as one ModeFamily (see `Spectrum`), sorted by energy, L2-normalized with
    deterministic phases (the first coefficient within 1e-8 relative of the
    largest in magnitude is real positive), orthonormalized within
    degenerate pairs.  Raises ValueError
    when the Weyl count of a scan (count, or 2 sqrt(e_max) + 2) passes
    MAX_LEVELS, and RootSearchFailure if the scan cannot deliver.
    """
    if (count is None) == (e_max is None):
        raise ValueError("give exactly one of count, e_max")
    if count is not None and count < 1:
        raise ValueError("count must be positive")

    u = bc.matrix
    alpha = _alpha_u(bc)
    target = count
    ceiling = e_max if e_max is not None else ((target + 6) / 2.0) ** 2

    kappa_groups, kappa_sizes = _roots(u, "hyp", _kappa_ceiling(bc), alpha)
    kappa, hyp_rows = _sector_modes(u, "hyp", kappa_groups, kappa_sizes)
    by_energy = np.argsort(-kappa * kappa, kind="stable")
    kappa, hyp_rows = kappa[by_energy], hyp_rows[by_energy]
    zero = _pencil_modes(u, *(m[None] for m in _linear_pq()), _gram_linear()[None], 0, ZERO_MODE_TOL)[1]

    for attempt in range(7):
        omega_max = float(np.sqrt(max(ceiling, 0.0)))
        levels = count if count is not None and attempt == 0 else 2.0 * omega_max + 2.0
        if not levels <= MAX_LEVELS:
            raise ValueError(f"{levels:.6g} levels requested, above the ceiling of {MAX_LEVELS}")
        omega_groups, omega_sizes = _roots(u, "trig", omega_max, alpha)
        # The linear sector's singular values scale with the distance to the
        # nearest eigenvalue, so a root just above the scan floor would be
        # double-counted as a zero mode; drop one for each near-zero root.
        n_near = int(np.sum(kappa_sizes[kappa_groups <= 2e-4])
                     + np.sum(omega_sizes[omega_groups <= 2e-4]))
        n_zero = max(0, len(zero) - n_near)
        omega, trig_rows = _sector_modes(u, "trig", omega_groups, omega_sizes)
        # ascending: bound states, zero modes, oscillatory modes
        energy = np.concatenate([-kappa * kappa, np.zeros(n_zero), omega * omega])
        n_modes = int(np.sum(energy <= ceiling + 1e-9))
        if target is None or n_modes >= target:
            break
        ceiling *= 1.8
    else:
        raise RootSearchFailure(
            f"found {n_modes} modes below e_max={ceiling:.3g}, wanted {target}"
        )

    kind = np.repeat([DECAY, LINEAR, TRIG], [len(kappa), n_zero, len(omega)])
    w = np.concatenate([kappa, np.zeros(n_zero), omega])
    rows = np.concatenate([hyp_rows, zero[:n_zero], trig_rows])
    modes = ModeFamily(energy, kind, w, rows[:, 0], rows[:, 1])[:target or n_modes]
    return Spectrum(bc=bc, modes=modes, e_max=float(ceiling if target is None else energy[target - 1]))


# ---------------------------------------------------------------------------
# evaluation and checks


def mode_boundary_data(spectrum: Spectrum) -> BoundaryData:
    """Boundary traces (values and derivatives at 2*pi and 0) of every mode,
    one array entry per mode, written out per kind."""
    f = spectrum.modes
    w, a, b = f.w, f.a, f.b
    c, s, q_ = np.cos(L * w), np.sin(L * w), np.exp(-L * w)
    trig = (a * c + b * s, a, w * (-a * s + b * c), b * w)
    linear = (a + b * L, a, b, b)
    decay = (a * q_ + b, a + b * q_, w * (-a * q_ + b), w * (-a + b * q_))
    kinds = [f.kind == TRIG, f.kind == LINEAR, f.kind == DECAY]
    return BoundaryData(*(np.select(kinds, field, np.nan) for field in zip(trig, linear, decay)))


def orthonormality_check(spectrum: Spectrum, n_quad: int = 2048) -> float:
    """Max deviation of the L2 Gram matrix from the identity (quadrature)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    x = 0.5 * L * (nodes + 1.0)
    w = 0.5 * L * weights
    psi = spectrum.modes.eval_matrix(x)
    gram = (psi.conj() * w) @ psi.T
    return float(np.max(np.abs(gram - np.eye(len(spectrum)))))


def weyl_check(bc: BoundaryMatrix, e_max: float = 1e4) -> WeylReport:
    """Sup over energies up to e_max of |counting function - 2 sqrt(E)|.

    The counting deviation is bounded by the boundary-condition deficiency;
    values above ~3 indicate missed or spurious roots.
    """
    spec = solve_spectrum(bc, e_max=e_max)
    energies = np.sort(spec.energies)
    worst, where = 0.0, 0.0

    def check(dev: float, e: float) -> None:
        nonlocal worst, where
        if dev > worst:
            worst, where = dev, e

    for j, e in enumerate(energies):
        if e < 0:
            continue
        rt = 2.0 * np.sqrt(max(e, 0.0))
        check(abs(j - rt), e)          # just below the jump
        check(abs(j + 1 - rt), e)      # just above
    n_total = len(energies)
    check(abs(n_total - 2.0 * np.sqrt(e_max)), e_max)
    return WeylReport(max_abs_deviation=float(worst), at_energy=float(where), n_modes=n_total)
