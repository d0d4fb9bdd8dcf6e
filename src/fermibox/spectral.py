"""Spectral solver for -d^2/dx^2 on (0, 2*pi) under a unitary boundary matrix.

The eigenvalue condition is reduced to a pair of continuous eigenphase
functions of a 2x2 unitary built from boundary trace matrices; eigenvalues are
the parameter points where an eigenphase passes through a multiple of 2*pi.
The phase unwrapping is done in closed form, not numerically, so the number
of eigenvalues below any parameter point is an integer read off two phase
evaluations (the level count), and the j-th eigenvalue is where that count
passes j - 1/2, as LAPACK's stebz bisects a Sturm count.  Degeneracies (at
most double here) are resolved through the singular values of the boundary
pencil.

Every stage works on whole arrays: one bisection over all roots of a sector
to within 1e-15 + 8.9e-16 |x|, one stacked SVD for the modes.  No solve passes
MAX_LEVELS levels by the Weyl count (ValueError), a sector whose modes do not
match its level count raises RootSearchFailure, and phases are pinned on the
first coefficient within 1e-8 relative of the largest, so ties never hang on
rounding.

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
    "solve_spectrum",
    "weyl_check",
]

L = 2.0 * np.pi  # box length; everything below is hard-wired to it

DEGENERACY_TOL = 1e-8
ZERO_MODE_TOL = 1e-8
OMEGA_FLOOR = 1e-6
MAX_LEVELS = 20_000    # ceiling on the modes of one solve (Weyl count)


class RootSearchFailure(RuntimeError):
    """Raised when the solved modes disagree with the level count."""


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


_PQ = {"trig": _trig_pq, "hyp": _hyp_pq}


def _linear_pq() -> tuple[np.ndarray, np.ndarray]:
    return _mat(1.0, L, 1.0, 0.0), _mat(0.0, -1.0, 0.0, 1.0)


def _pencil(u: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (p - 1j * q) - u @ (p + 1j * q)


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

    A adj(B) = [[d, e], [e, d]] in either sector, so N = U^H A adj(B) = det(B) V
    takes a few products of entries.  The half-gap rho has
    2 |det B| cos rho = Re(e^{-i alpha/2} tr N) and 2 |det B| sin rho = |disc N|^(1/2),
    so their atan2 needs no det B and keeps its digits where two eigenphases
    meet, where an arccos of the trace loses half of them."""
    if sector == "trig":
        d, e, argd = (xs * xs - 1.0) * np.sin(L * xs), 2j * xs, _arg_det_b_trig(xs)
    else:
        d = (1.0 + xs * xs) * np.expm1(-2.0 * L * xs)
        e, argd = 4j * xs * np.exp(-L * xs), _arg_det_b_hyp(xs)
    (w00, w01), (w10, w11) = u.conj().T
    tr = (w00 + w11) * d + (w01 + w10) * e
    gap = (w00 - w11) * d + (w01 - w10) * e
    disc = gap * gap + 4.0 * (w00 * e + w01 * d) * (w10 * d + w11 * e)
    rho = np.arctan2(np.sqrt(np.abs(disc)), (np.exp(-0.5j * alpha) * tr).real)
    phi = alpha - 2.0 * argd
    return np.stack([phi / 2.0 + rho, phi / 2.0 - rho], -1)


def _levels(u: np.ndarray, sector: str, xs, alpha: float) -> np.ndarray:
    """Number of roots in (OMEGA_FLOOR, x] at every x: the change of both
    branches' level index floor(theta / 2 pi) since the floor.  Trig phases
    fall monotonically in omega and hyp phases rise in kappa up to rounding
    (checked on 60 boundary conditions, 200,001 nodes each), so each level
    passed is one root."""
    m = np.floor(_thetas(u, np.append(xs, OMEGA_FLOOR), sector, alpha) / (2.0 * np.pi))
    return np.abs(m[:-1] - m[-1]).sum(axis=1)


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


def _small_singular(u, p, q, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of each pencil below tol relative to its scale: their
    number and the pencil's right singular vectors."""
    scale = (np.linalg.norm(p - 1j * q, axis=(1, 2))
             + np.linalg.norm(u @ (p + 1j * q), axis=(1, 2)))
    _, s, vh = np.linalg.svd(_pencil(u, p, q))
    return np.sum(s <= tol * scale[:, None], axis=1), vh


def _pencil_modes(u, p, q, gram, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicities and normalized coefficient rows of a stack of pencils.

    Pencil i yields one mode per singular value below tol (relative): the
    last right singular vector, or both, largest first, the second
    Gram-orthogonalized against the first.
    """
    mult, vh = _small_singular(u, p, q, tol)
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
    for trig, the decay pair (c1, c2) for hyp.  Each root's pencil must
    have as many small singular values as the level count gives it
    (sizes), or RootSearchFailure is raised."""
    gram = _gram_trig if sector == "trig" else _gram_hyp_decay
    mult, rows = _pencil_modes(u, *_PQ[sector](xs), gram(xs), DEGENERACY_TOL)
    if not np.array_equal(mult, sizes):
        bad = np.flatnonzero(mult != sizes)[0]
        raise RootSearchFailure(f"{sector} root {xs[bad]:.17g} has {mult[bad]} modes "
                                f"where the level count gives {sizes[bad]}")
    return np.repeat(xs, mult), rows


def _roots(u: np.ndarray, sector: str, x_top: float, alpha: float):
    """Roots of one sector in (OMEGA_FLOOR, x_top] and their multiplicities.

    Root j (from 1) is where the level count passes j - 1/2.  All brackets
    halve together on the count at their midpoints until
    hi - lo <= 1e-15 + 8.9e-16 x, and each root is its bracket's midpoint.
    Neighbours within 1e-5 relative whose pencil at their midpoint has two
    small singular values merge into one double there.  Roots are found up
    to x_top (1 + 1e-5) and kept up to x_top, so a double is kept or dropped
    whole even where x_top falls between its two roots.
    """
    x_hi = x_top * (1.0 + 1e-5)
    n = int(_levels(u, sector, x_hi, alpha)[0]) if x_top > OMEGA_FLOOR else 0
    half = np.arange(n) + 0.5
    lo, hi = np.full(n, OMEGA_FLOOR), np.full(n, x_hi)
    while np.any(hi - lo > 1e-15 + 8.9e-16 * lo):
        mid = 0.5 * (lo + hi)
        above = _levels(u, sector, mid, alpha) > half
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    roots = 0.5 * (lo + hi)
    mid = 0.5 * (roots[1:] + roots[:-1])
    pair = np.diff(roots) <= 1e-5 * mid
    pair[pair] = _small_singular(u, *_PQ[sector](mid[pair]), DEGENERACY_TOL)[0] == 2
    pair &= ~np.r_[False, pair[:-1]]  # a root belongs to one double at most
    first, second = np.zeros((2, n), dtype=bool)
    first[:-1] = second[1:] = pair
    roots[first] = mid[pair]
    keep = ~second & (roots <= x_top)
    return roots[keep], 1 + first[keep]


def _kappa_top(u: np.ndarray) -> float:
    """Bound-state ceiling: 2 max(1, tan(beta/2)) over the eigenphases beta
    of U in (0, pi), or 0 without one.

    Only an eigenphase in (0, pi), an attractive wall of coupling
    tan(beta/2), binds a state, one at most (Asorey, Ibort and Marmo 2005).
    A Robin or delta wall of coupling g binds at kappa below 2 max(1, g); on
    5,000 Haar-random U the count here equalled the count at kappa = 1e8.
    An eigenvalue with imaginary part below 1e-12 binds nothing: that keeps
    the count off a rounded -1, whose phase approaches a level forever and
    would give spurious roots near kappa = 1e13.
    """
    lam = np.linalg.eigvals(u)
    lam = lam[lam.imag > 1e-12]
    return 2.0 * max(1.0, float(np.max((1.0 - lam.real) / lam.imag))) if len(lam) else 0.0


def solve_spectrum(
    bc: BoundaryMatrix,
    count: int | None = None,
    e_max: float | None = None,
) -> Spectrum:
    """Solve for all eigenvalues up to e_max, or for the first `count` modes.

    Each sector (bound states up to `_kappa_top`, then oscillatory modes up
    to sqrt(e_max) (1 + 1e-6), so that a double at the ceiling is counted
    whole) takes its level count there and bisects every root on that count
    together until |hi - lo| <= 1e-15 + 8.9e-16 |x|.  A count request
    solves once, up to Weyl's estimate ((count + 6) / 2)^2: each trig
    branch's phase falls by more than 2 pi (omega - 1) from the floor to
    omega, so that holds at least count + 2 oscillatory levels.  Modes come
    back as one ModeFamily (see `Spectrum`), sorted by energy, L2-normalized
    with deterministic phases (the first coefficient within 1e-8 relative of
    the largest in magnitude is real positive), orthonormalized within
    degenerate pairs.  Raises ValueError when the Weyl count of the solve
    (count, or 2 sqrt(e_max) + 2) passes MAX_LEVELS, and RootSearchFailure
    when a sector's modes do not match its level count or a count request
    comes up short.
    """
    if (count is None) == (e_max is None):
        raise ValueError("give exactly one of count, e_max")
    if count is not None and count < 1:
        raise ValueError("count must be positive")

    target = count
    ceiling = e_max if e_max is not None else ((target + 6) / 2.0) ** 2
    omega_max = float(np.sqrt(max(ceiling, 0.0)))
    levels = count if count is not None else 2.0 * omega_max + 2.0
    if not levels <= MAX_LEVELS:
        raise ValueError(f"{levels:.6g} levels requested, above the ceiling of {MAX_LEVELS}")

    u = bc.matrix
    alpha = _alpha_u(bc)
    kappa_groups, kappa_sizes = _roots(u, "hyp", _kappa_top(u), alpha)
    kappa, hyp_rows = _sector_modes(u, "hyp", kappa_groups, kappa_sizes)
    by_energy = np.argsort(-kappa * kappa, kind="stable")
    kappa, hyp_rows = kappa[by_energy], hyp_rows[by_energy]
    zero = _pencil_modes(u, *(m[None] for m in _linear_pq()), _gram_linear()[None], ZERO_MODE_TOL)[1]
    omega_groups, omega_sizes = _roots(u, "trig", omega_max * (1.0 + 1e-6), alpha)
    # The linear sector's singular values scale with the distance to the
    # nearest eigenvalue, so a root just above the floor would be
    # double-counted as a zero mode; drop one for each near-zero root.
    n_near = int(np.sum(kappa_sizes[kappa_groups <= 2e-4])
                 + np.sum(omega_sizes[omega_groups <= 2e-4]))
    n_zero = max(0, len(zero) - n_near)
    omega, trig_rows = _sector_modes(u, "trig", omega_groups, omega_sizes)
    # ascending: bound states, zero modes, oscillatory modes
    energy = np.concatenate([-kappa * kappa, np.zeros(n_zero), omega * omega])
    n_modes = int(np.sum(energy <= ceiling + 1e-9))
    if target is not None and n_modes < target:
        raise RootSearchFailure(f"found {n_modes} modes below e_max={ceiling:.3g}, wanted {target}")

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
    j = np.flatnonzero(energies >= 0)
    e = energies[j]
    rt = 2.0 * np.sqrt(e)
    # just below and just above each jump, then the total at e_max
    devs = np.r_[np.stack([np.abs(j - rt), np.abs(j + 1 - rt)], -1).ravel(),
                 abs(len(energies) - 2.0 * np.sqrt(e_max))]
    at = np.r_[np.repeat(e, 2), e_max]
    k = int(np.argmax(devs))  # the first maximum
    worst, where = (devs[k], at[k]) if devs[k] > 0.0 else (0.0, 0.0)
    return WeylReport(max_abs_deviation=float(worst), at_energy=float(where), n_modes=len(energies))
