"""Projection kernels for boxed fermions, compact-group eigenangle kernels,
and the scaling-limit kernels they converge to.

Ground states of N noninteracting fermions give determinantal processes with
kernel sum_k psi_k(x) conj(psi_k(y)); for the closed-form boundary presets
these match the eigenangle kernels of the unitary, symplectic and orthogonal
groups after doubling the angle.  Finite-temperature (grand canonical) states
replace the sharp filling by Fermi weights.  Kernels broadcast their
arguments like numpy; `evaluate_grid` gives the outer-product matrix.

The costly kernels are evaluated once per distinct coordinate: a mode sum
evaluates its modes on the distinct x and the distinct y values and forms
all their pairs in one matrix product, so its memory grows like modes times
distinct coordinates.  The limit kernels given by integrals are closed
forms in sinc and the exponential integral, evaluated once per distinct
x + y, except the finite-temperature sine kernel, which has no closed form
and takes one fixed Gauss-Legendre rule per distinct |x - y|.

Single-particle modes are rows of `spectral.ModeFamily`: the separable
presets get closed-form families (SIN, COS and WAVE rows) and every other
boundary condition takes the solver's family as it comes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import exp1

from .boundary import (
    BoundaryMatrix,
    from_json as boundary_from_json,
    make_preset,
    to_json as boundary_to_json,
)
from .spectral import COS, MAX_LEVELS, SIN, WAVE, ModeFamily, Spectrum, solve_spectrum
from .thermo import _fermi_integral, fermi_factor

__all__ = [
    "Kernel",
    "ModeFamily",
    "delta_line_projection",
    "evaluate_grid",
    "finite_t_kernel",
    "finite_t_modes",
    "ground_state_kernel",
    "ground_state_modes",
    "group_kernel",
    "half_line_robin_projection",
    "kernel_bessel",
    "kernel_delta_edge",
    "kernel_finite_t_sine",
    "kernel_robin_edge",
    "kernel_sine",
    "kernel_spec",
    "parse_kernel_spec",
    "sn_ratio",
]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# periodized sine ratio


def sn_ratio(n: int, z) -> np.ndarray:
    """(1/2pi) sin(n z / 2) / sin(z / 2), continued through z = 2 pi m.

    The continuation carries the parity factor (-1)^(m (n-1)); within 1e-6
    of a multiple of 2 pi a two-term series replaces the ratio.
    """
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    z = np.asarray(z, dtype=float)
    m = np.round(z / TWO_PI)
    w = z - TWO_PI * m
    sign = np.where((m.astype(np.int64) * (n - 1)) % 2 == 0, 1.0, -1.0)
    series = sign * n * (1.0 - (n * n - 1.0) * w * w / 24.0) / TWO_PI
    small = np.abs(w) < 1e-6
    safe = np.where(small, 1.0, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.sin(0.5 * n * safe) / np.sin(0.5 * safe) / TWO_PI
    return np.where(small, series, direct)


# ---------------------------------------------------------------------------
# kernel wrapper


@dataclass(frozen=True)
class Kernel:
    """A pointwise-evaluable kernel with an optional serializable spec.

    Calling broadcasts x against y elementwise; mode sums and integrals are
    evaluated once per distinct coordinate (see the module docstring).
    `evaluate_grid` builds the full matrix over a coordinate product.
    """

    fn: Callable
    spec: dict | None = None

    def __call__(self, x, y):
        return self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def evaluate_grid(kernel, xs, ys) -> np.ndarray:
    """Matrix K[i, j] = kernel(xs[i], ys[j])."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return np.asarray(kernel(xs[:, None], ys[None, :]))


# ---------------------------------------------------------------------------
# compact-group eigenangle kernels


def group_kernel(group: str, n: int) -> Kernel:
    """Eigenangle kernel of U(n), Sp(n) (n even) or SO(n).

    U(n) lives on [0, 2pi); the others on [0, pi) after folding the spectrum
    to the upper half circle.
    """
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    if group == "U":
        fn = lambda x, y: sn_ratio(n, x - y)
    elif group == "Sp":
        if n % 2:
            raise ValueError("symplectic groups have even matrix size")
        fn = lambda x, y: sn_ratio(n + 1, x - y) - sn_ratio(n + 1, x + y)
    elif group == "SO":
        if n % 2 == 0:
            if n < 2:
                raise ValueError("SO kernel needs n >= 2")
            fn = lambda x, y: sn_ratio(n - 1, x - y) + sn_ratio(n - 1, x + y)
        else:
            fn = lambda x, y: sn_ratio(n - 1, x - y) - sn_ratio(n - 1, x + y)
    else:
        raise ValueError(f"unknown group {group!r}; use U, Sp or SO")
    return Kernel(fn=fn, spec={"Group": {"G": group, "N": n}})


# ---------------------------------------------------------------------------
# mode families


def _closed_family(label: str, count: int) -> ModeFamily | None:
    """Closed-form families for the separable presets; None if no closed form."""
    sp = np.sqrt(np.pi)
    if label == "dirichlet":
        w = np.arange(1, count + 1) / 2.0
        return ModeFamily(w**2, SIN, w, sp)
    if label == "neumann":
        w = np.arange(count) / 2.0
        return ModeFamily(w**2, COS, w, np.where(w == 0.0, np.sqrt(TWO_PI), sp))
    if label == "zaremba":
        w = (np.arange(count) + 0.5) / 2.0
        return ModeFamily(w**2, SIN, w, sp)
    if label == "periodic":
        j = np.arange(count)
        ks = np.where(j % 2, -1.0, 1.0) * ((j + 1) // 2)      # 0, -1, 1, -2, 2, ...
        # an even count half fills the top shell; take its even (cosine)
        # member, matching the deterministic null-vector order of the solver
        top = (j % 2 == 1) & (j == count - 1)
        return ModeFamily(ks**2, np.where(top, COS, WAVE), np.where(top, -ks, ks),
                          np.where(top, sp, np.sqrt(TWO_PI)))
    return None


def _source_to_bc(source) -> BoundaryMatrix:
    if isinstance(source, BoundaryMatrix):
        return source
    if isinstance(source, str):
        return make_preset(source)
    if isinstance(source, dict):
        if "entries" in source:
            return boundary_from_json(source)
        return make_preset(source["preset"], *source.get("params", ()))
    raise TypeError(f"cannot interpret {type(source).__name__} as a boundary condition")


def _source_spec(source) -> dict | str:
    if isinstance(source, str):
        return source
    if isinstance(source, dict):
        return source
    if isinstance(source, BoundaryMatrix):
        if source.label == "custom":
            import json

            return json.loads(boundary_to_json(source))
        if source.params:
            return {"preset": source.label, "params": list(source.params)}
        return source.label
    raise TypeError("spectrum sources have no serializable spec")


def ground_state_modes(source, n: int) -> ModeFamily:
    """First n orthonormal modes of a boundary condition.

    Closed forms are used for the separable presets; anything else goes
    through the spectral solver.  `source` may be a preset name, a
    BoundaryMatrix, a parsed boundary JSON object, or a Spectrum.
    """
    if n < 1:
        raise ValueError(f"mode count must be positive, got {n}")
    if isinstance(source, Spectrum):
        if len(source) < n:
            source = solve_spectrum(source.bc, count=n)
        return source.modes[:n]
    bc = _source_to_bc(source)
    fam = _closed_family(bc.label, n)
    if fam is not None:
        return fam
    return solve_spectrum(bc, count=n).modes


def _kernel_from_modes(family: ModeFamily, weights, spec: dict | None) -> Kernel:
    w = np.asarray(weights, dtype=float)

    def fn(x, y):
        ux, ix = np.unique(np.ravel(x), return_inverse=True)
        uy, iy = np.unique(np.ravel(y), return_inverse=True)
        ix, iy = np.broadcast_arrays(ix.reshape(np.shape(x)), iy.reshape(np.shape(y)))
        vals = ((w[:, None] * family.eval_matrix(ux)).T @ family.eval_matrix(uy).conj())[ix, iy]
        if np.max(np.abs(vals.imag), initial=0.0) < 1e-13 * max(1.0, np.max(np.abs(vals.real), initial=0.0)):
            return vals.real
        return vals

    return Kernel(fn=fn, spec=spec)


def ground_state_kernel(source, n: int) -> Kernel:
    """Projection kernel onto the lowest n modes: sum psi_k(x) conj(psi_k(y))."""
    fam = ground_state_modes(source, n)
    try:
        spec = {"GroundState": {"source": _source_spec(source), "N": n}}
    except TypeError:
        spec = None
    return _kernel_from_modes(fam, np.ones(len(fam)), spec)


# ---------------------------------------------------------------------------
# finite temperature


def _closed_finite_t_family(label: str, t: float, mu: float, eps: float) -> ModeFamily | None:
    """Closed family truncated with a certified geometric tail bound.

    Raises ValueError when the cut would keep more than MAX_LEVELS
    energy levels.
    """
    # level j has energy (s (j + off))^2, j = first, first + 1, ...;
    # periodic levels are then doubled for +-j
    levels = {"dirichlet": (0.5, 0.0, 1), "neumann": (0.5, 0.0, 0),
              "zaremba": (0.5, 0.5, 0), "periodic": (1.0, 0.0, 0)}
    if label not in levels:
        return None
    s, off, first = levels[label]
    e_of = lambda j: (s * (j + off)) ** 2
    # first level above mu, from the closed form, then rounding corrected
    j = max(first, int(np.sqrt(max(mu, 0.0)) / s - off))
    if j - first >= MAX_LEVELS:
        raise ValueError(f"mu = {mu:.3g} lies above {MAX_LEVELS} levels of {label}")
    while e_of(j) <= mu:
        j += 1
    while j > first and e_of(j - 1) > mu:
        j -= 1
    # cut at the first j whose remaining occupancy sum is certifiably below
    # eps: sum_{i > j} F(E_i) <= F(E_{j+1}) / (1 - exp(-gap/t)), decreasing in j
    js = np.arange(j, first + MAX_LEVELS, dtype=float)
    gap = e_of(js + 1) - e_of(js)
    with np.errstate(over="ignore"):
        tail = 2.0 * fermi_factor(e_of(js + 1), t, mu) / np.maximum(1e-300, -np.expm1(-gap / t))
    cut = np.flatnonzero(tail < eps)
    if len(cut) == 0:
        raise ValueError(f"T = {t:.3g}, mu = {mu:.3g} need more than "
                         f"{MAX_LEVELS} levels of {label}")
    j = int(js[cut[0]])
    if label == "periodic":
        ks = np.arange(-j, j + 1, dtype=float)
        return ModeFamily(ks**2, WAVE, ks, np.sqrt(TWO_PI))
    return _closed_family(label, j - first + 1)


def finite_t_modes(source, t: float, mu: float, eps: float = 1e-12) -> ModeFamily:
    """Every mode whose Fermi weight matters at (t, mu), with a certified cut."""
    if not (np.isfinite(t) and np.isfinite(mu)):
        raise ValueError(f"temperature and chemical potential must be finite, got {t}, {mu}")
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if isinstance(source, Spectrum):
        fam = source.modes
        top = fermi_factor(np.max(fam.energies), t, mu)
        if top > eps:
            raise ValueError(
                f"spectrum too short: top occupancy {top:.2g} above {eps:.2g}"
            )
        return fam
    bc = _source_to_bc(source)
    fam = _closed_finite_t_family(bc.label, t, mu, eps)
    if fam is not None:
        return fam
    # generic route: Weyl growth bounds the number of modes per energy window,
    # so cutting at mu + t * max(45, ln(1/eps) + 8) certifies the tail
    e_cut = mu + t * max(45.0, -np.log(eps) + 8.0)
    return solve_spectrum(bc, e_max=max(e_cut, 1.0)).modes


def finite_t_kernel(source, t: float, mu: float, eps: float = 1e-12) -> Kernel:
    """Fermi-weighted kernel sum_k F(E_k) psi_k(x) conj(psi_k(y))."""
    fam = finite_t_modes(source, t, mu, eps)
    try:
        spec = {"FiniteT": {"source": _source_spec(source), "T": t, "mu": mu}}
    except TypeError:
        spec = None
    return _kernel_from_modes(fam, fermi_factor(fam.energies, t, mu), spec)


# ---------------------------------------------------------------------------
# scaling-limit kernels


def kernel_sine() -> Kernel:
    """Bulk limit: sin(pi (x-y)) / (pi (x-y)), unit density."""
    return Kernel(fn=lambda x, y: np.sinc(x - y), spec={"Limit": {"Sine": {}}})


def kernel_bessel(sign: int) -> Kernel:
    """Hard-edge limits: sine(x-y) -+ sine(x+y) for the two reflection signs.

    sign=-1 is the absorbing (odd) edge, sign=+1 the reflecting (even) one.
    Arguments live on the half-line.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")

    def fn(x, y):
        _require_half_line(x, y)
        return np.sinc(x - y) + sign * np.sinc(x + y)

    name = "BesselMinus" if sign == -1 else "BesselPlus"
    return Kernel(fn=fn, spec={"Limit": {name: {}}})


def _require_half_line(x, y) -> None:
    if np.any(np.asarray(x) < 0) or np.any(np.asarray(y) < 0):
        raise ValueError("edge-limit kernels take nonnegative coordinates")


E1_SWITCH = 2.0     # |z| above which _scaled_e1 takes the continued fraction
E1_DEPTH = 96       # its fixed depth: within 1e-16 of e^z E1(z) from |z| = 2 on


def _scaled_e1(z) -> np.ndarray:
    """e^z E1(z) for Re z >= 0, elementwise, stable at any magnitude.

    |z| <= E1_SWITCH goes through scipy's exp1, within 5e-15 there (its error
    reaches 2e-13 near |z| = 5); larger |z| through the contracted continued
    fraction 1/(z+1- 1/(z+3- 4/(z+5- 9/(...)))) of E1_DEPTH terms, bottom up.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    near = np.abs(z) <= E1_SWITCH
    out[near] = np.exp(z[near]) * exp1(z[near])
    far = z[~near]
    f = far + (2.0 * E1_DEPTH + 1.0)
    for n in range(E1_DEPTH, 0, -1):
        f = far + (2.0 * n - 1.0) - (n * n) / f
    out[~near] = 1.0 / f
    return out


def _robin_integral(a: float, s, u_max: float) -> np.ndarray:
    """pi int_0^u_max (a cos(pi s u) - pi u sin(pi s u)) / (a^2 + pi^2 u^2) du, a > 0, s >= 0.

    In closed form Im[e^(i pi s u_max) e^z E1(z)] at z = s (a - i pi u_max),
    once per distinct s, through the scaled exponential integral so large a s
    stays in range; the s -> 0 limit arctan(pi u_max / a) is taken below
    s = 1e-100, where the neglected term, at most 2 a u_max s, is rounding.
    """
    v, inv = np.unique(np.ravel(s), return_inverse=True)
    small = v < 1e-100
    z = np.where(small, 1.0, v) * complex(a, -np.pi * u_max)
    val = (np.exp(1j * np.pi * v * u_max) * _scaled_e1(z)).imag
    return np.where(small, np.arctan(np.pi * u_max / a), val)[inv].reshape(np.shape(s))


def kernel_robin_edge(c: float) -> Kernel:
    """Edge limit of a repulsive Robin boundary, coefficient c > 0.

    sine(x-y) + sine(x+y) - 2c int_0^inf sine(x+y+xi) e^(-c xi) d xi, which
    is `half_line_robin_projection` at e = pi^2.  Interpolates the two
    hard-edge kernels: recovers the absorbing one as c -> infinity and the
    reflecting one as c -> 0.
    """
    return Kernel(fn=half_line_robin_projection(c, np.pi**2).fn,
                  spec={"Limit": {"RobinEdge": {"c": c}}})


def kernel_delta_edge(c: float) -> Kernel:
    """Edge limit at a point scatterer of strength c >= 0.

    sine(x-y) + int_0^1 c (2 pi u sin(pi(x+y)u) - c cos(pi(x+y)u)) /
    ((2 pi u)^2 + c^2) du on the half-line, which is `delta_line_projection`
    at e = pi^2 (so |x| + |y| replaces x + y off it).  Interpolates between
    the plain sine kernel at c = 0 (the scatterer vanishes) and the
    absorbing-edge kernel as c -> infinity (the barrier decouples the sides).
    """
    return Kernel(fn=delta_line_projection(c, np.pi**2).fn,
                  spec={"Limit": {"DeltaEdge": {"c": c}}})


def kernel_finite_t_sine(c: float, lam: float) -> Kernel:
    """Bulk limit at finite temperature: Fermi-smoothed sine kernel.

    int_0^inf cos(pi (x-y) u) / (1 + exp(u^2/c)/lam) du; with lam solving the
    density constraint at scaled temperature c the diagonal is 1.  No closed
    form: a fixed Gauss-Legendre rule per distinct |x - y| (`_fermi_integral`).
    """
    if not (c > 0 and lam > 0):
        raise ValueError("scaled temperature and fugacity must be positive")
    log_lam = float(np.log(lam))

    def fn(x, y):
        return _fermi_integral(x - y, c, log_lam)

    return Kernel(fn=fn, spec={"Limit": {"FiniteTSine": {"c": c, "lam": lam}}})


def half_line_robin_projection(c: float, e: float) -> Kernel:
    """Spectral projection of the half-line Robin Laplacian up to energy e.

    int_0^(sqrt(e)/pi) [cos(pi(x-y)u) + cos(pi(x+y)u)
                        - 2c (c cos(pi(x+y)u) - pi u sin(pi(x+y)u)) / (c^2 + pi^2 u^2)] du
    for repulsive coefficient c > 0; at e = pi^2 this is the Robin edge kernel.
    The free parts are sin(pi d U) / (pi d) at U = sqrt(e)/pi, the Robin part
    `_robin_integral`.
    """
    if c <= 0:
        raise ValueError(f"Robin coefficient must be positive, got {c}")
    if e < 0:
        raise ValueError(f"energy cut must be nonnegative, got {e}")
    u_max = np.sqrt(e) / np.pi

    def fn(x, y):
        _require_half_line(x, y)
        return (u_max * np.sinc(u_max * (x - y)) + u_max * np.sinc(u_max * (x + y))
                - (2.0 * c / np.pi) * _robin_integral(c, x + y, u_max))

    return Kernel(fn=fn, spec={"Limit": {"HalfLineRobin": {"c": c, "e": e}}})


def delta_line_projection(c: float, e: float) -> Kernel:
    """Spectral projection of the full-line Laplacian with a point scatterer.

    int_0^(sqrt(e)/pi) [cos(pi(x-y)u) + c (2 pi u sin(pi s u) - c cos(pi s u))
    / ((2 pi u)^2 + c^2)] du at s = |x| + |y|, c >= 0; symmetric under
    reflecting both arguments through the scatterer.  The second term is
    Im[c e^(i pi s u) / (2 pi u + i c)]: the even modes cos(p|x| + delta(p))
    carry phase shift tan(delta) = -c/2p, and this is their interference with
    the free part.  It is -(c / 2 pi) times `_robin_integral` at a = c/2.
    """
    if c < 0:
        raise ValueError(f"scatterer strength must be nonnegative, got {c}")
    if e < 0:
        raise ValueError(f"energy cut must be nonnegative, got {e}")
    u_max = np.sqrt(e) / np.pi

    def fn(x, y):
        tail = 0.0 if c == 0 else _robin_integral(0.5 * c, np.abs(x) + np.abs(y), u_max)
        return u_max * np.sinc(u_max * (x - y)) - (c / TWO_PI) * tail

    return Kernel(fn=fn, spec={"Limit": {"DeltaLine": {"c": c, "e": e}}})


# ---------------------------------------------------------------------------
# serialization


# limit variant -> (builder, the numeric fields it takes, in order)
_LIMIT_BUILDERS = {
    "Sine": (kernel_sine, ()),
    "BesselMinus": (lambda: kernel_bessel(-1), ()),
    "BesselPlus": (lambda: kernel_bessel(+1), ()),
    "RobinEdge": (kernel_robin_edge, ("c",)),
    "DeltaEdge": (kernel_delta_edge, ("c",)),
    "FiniteTSine": (kernel_finite_t_sine, ("c", "lam")),
    "HalfLineRobin": (half_line_robin_projection, ("c", "e")),
    "DeltaLine": (delta_line_projection, ("c", "e")),
}


def _spec_variant(obj, what: str) -> tuple[str, dict]:
    """The one (tag, fields) pair of a tagged spec object such as {"Sine": {}}."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"{what} must carry exactly one variant")
    (tag, cfg), = obj.items()
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} {tag!r} must hold an object of fields")
    return tag, cfg


def _spec_field(cfg: dict, name: str, kind: str | None = "a number"):
    """Field `name` of a spec, checked to be `kind`: "a number", "an integer",
    "a boundary condition", or anything for None."""
    if name not in cfg:
        raise ValueError(f"kernel spec is missing field {name!r}")
    value = cfg[name]
    if kind == "a boundary condition":
        try:
            _source_to_bc(value)
        except (KeyError, TypeError) as err:
            raise ValueError(f"kernel spec field {name!r} is not {kind}: {err!r}") from None
    elif kind is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                               or kind == "an integer" and value % 1 != 0):
        raise ValueError(f"kernel spec field {name!r} must be {kind}, got {value!r}")
    return value


def parse_kernel_spec(obj) -> Kernel:
    """Build a kernel from its tagged-union JSON form.

    {"Limit": {...}}, {"Group": {"G": .., "N": ..}},
    {"GroundState": {"source": .., "N": ..}},
    {"FiniteT": {"source": .., "T": .., "mu": ..}}.
    A malformed spec, a missing field or an ill-typed one is a ValueError.
    """
    if isinstance(obj, str):
        import json

        obj = json.loads(obj)
    tag, cfg = _spec_variant(obj, "kernel spec")
    if tag == "Limit":
        variant, params = _spec_variant(cfg, "limit spec")
        if variant not in _LIMIT_BUILDERS:
            raise ValueError(f"unknown limit kernel {variant!r}")
        build, names = _LIMIT_BUILDERS[variant]
        return build(*(_spec_field(params, name) for name in names))
    if tag == "Group":
        return group_kernel(_spec_field(cfg, "G", None), int(_spec_field(cfg, "N", "an integer")))
    if tag == "GroundState":
        return ground_state_kernel(_spec_field(cfg, "source", "a boundary condition"),
                                   int(_spec_field(cfg, "N", "an integer")))
    if tag == "FiniteT":
        return finite_t_kernel(_spec_field(cfg, "source", "a boundary condition"),
                               float(_spec_field(cfg, "T")), float(_spec_field(cfg, "mu")))
    raise ValueError(f"unknown kernel tag {tag!r}")


def kernel_spec(kernel: Kernel) -> dict:
    """The serializable spec of a kernel; raises for ad-hoc kernels."""
    if kernel.spec is None:
        raise ValueError("kernel was built from a non-serializable source")
    return kernel.spec
