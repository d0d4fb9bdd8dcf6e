"""Empirical estimators, kernel distances, and scaling-limit studies.

The estimators turn point configurations into binned one- and two-point
correlation estimates, the density with Poisson error bars, the pair
correlation with errors from the across-sample spread.  The study functions
build the rescaled finite-size kernels around a bulk point or an edge,
measure their distance to the matching limit kernel, and fit the decay rate;
the committed reference values for those runs live in :mod:`fermibox.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryMatrix, make_preset
from .kernels import (
    Kernel,
    _spec_variant,
    finite_t_kernel,
    ground_state_kernel,
    kernel_finite_t_sine,
    kernel_sine,
    parse_kernel_spec,
)
from .thermo import solve_lambda

__all__ = [
    "CorrelationEstimate",
    "ScalingReport",
    "estimate_density",
    "estimate_pair_correlation",
    "bin_average",
    "kernel_distance",
    "bulk_scaling_study",
    "edge_scaling_study",
    "finite_t_bulk_study",
    "monotone_tail_ok",
    "default_bulk_grid",
    "default_edge_grid",
]

TWO_PI = 2.0 * np.pi
PAIR_BLOCK = 2 ** 16   # ordered pairs binned at once by the pair estimator


def default_bulk_grid() -> np.ndarray:
    return np.linspace(-2.0, 2.0, 33)


def default_edge_grid() -> np.ndarray:
    # Start away from the origin: the kernel is pinned there by the boundary
    # condition itself, and the sup-norm should probe the nontrivial region.
    return np.linspace(0.1, 2.0, 33)


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class CorrelationEstimate:
    """Binned correlation estimate with per-bin standard errors.

    ``grid`` holds the bin centers: a single array for one-dimensional
    estimates, a pair of axis arrays for two-dimensional ones (``values``
    is then indexed ``[i, j]``).
    """

    grid: np.ndarray | tuple[np.ndarray, np.ndarray]
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int

    def __post_init__(self):
        axes = self.grid if isinstance(self.grid, tuple) else (self.grid,)
        for axis in axes:
            if np.any(np.diff(axis) <= 0):
                raise ValueError("grid must be strictly ordered per axis")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("estimate contains non-finite values")
        if np.any(self.stderr < 0):
            raise ValueError("standard errors must be nonnegative")


def _as_edges(bins, support: tuple[float, float]) -> np.ndarray:
    if np.isscalar(bins):
        nb = int(bins)
        if nb < 4:
            raise ValueError(f"need at least 4 bins, got {nb}")
        lo, hi = float(support[0]), float(support[1])
        if not hi > lo:
            raise ValueError("empty support interval")
        return np.linspace(lo, hi, nb + 1)
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 5 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be increasing with at least 4 bins")
    return edges


def _clean_samples(samples, minimum: int) -> list[np.ndarray]:
    configs = [np.asarray(s, dtype=float).ravel() for s in samples]
    if not configs:
        raise ValueError("empty sample set")
    if len(configs) < minimum:
        raise ValueError(f"need at least {minimum} samples, got {len(configs)}")
    return configs


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The np.histogram bin of each value, -1 where np.histogram drops it:
    bins are half-open except the last, which holds its right edge."""
    nb = edges.size - 1
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[values == edges[-1]] = nb - 1
    idx[idx >= nb] = -1
    return idx


def estimate_density(samples, bins, support: tuple[float, float] = (0.0, TWO_PI),
                     ) -> CorrelationEstimate:
    """Histogram estimate of the one-point function with Poisson errors.

    Normalized per sample, so the estimate integrates to the mean particle
    count by construction.  ``bins`` is a bin count over ``support`` or an
    explicit edge array.
    """
    configs = _clean_samples(samples, 100)
    edges = _as_edges(bins, support)
    idx = _bin_index(np.concatenate(configs), edges)
    counts = np.bincount(idx[idx >= 0], minlength=edges.size - 1).astype(float)
    width = np.diff(edges)
    m = len(configs)
    values = counts / (m * width)
    stderr = np.sqrt(counts) / (m * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return CorrelationEstimate(grid=centers, values=values, stderr=stderr,
                               n_samples=m)


def estimate_pair_correlation(samples, grid2d,
                              support: tuple[float, float] = (0.0, TWO_PI),
                              reduced: bool = False) -> CorrelationEstimate:
    """Binned estimate of the two-point function from ordered pairs.

    With ``reduced=True`` the process is treated as translation invariant on
    the circle ``support`` and the estimate is collapsed to a function of
    the separation ``(x - y) mod length``; otherwise a full two-dimensional
    histogram over ``support x support`` is returned.  Counting ordered
    pairs of distinct points, told apart by index so that two points at one
    place still form a pair, makes the estimator unbiased for the binned
    average of the two-point function, including the diagonal bins.  A
    point participates in every pair it forms, so per-bin counts are
    overdispersed relative to Poisson; the standard errors therefore come
    from the across-sample spread of the per-sample counts.
    """
    return _pair_estimate(_clean_samples(samples, 1000), grid2d, support, reduced)


def _pair_estimate(configs, bins, support: tuple[float, float],
                   reduced: bool) -> CorrelationEstimate:
    """Ordered-pair counts of `configs` with errors from their spread."""
    edges = _as_edges(bins, support)
    m = len(configs)
    width = np.diff(edges)
    length = float(support[1]) - float(support[0])
    nb = edges.size - 1
    counts = np.zeros(nb if reduced else nb * nb)
    squares = np.zeros_like(counts)
    sizes = np.array([pts.size for pts in configs])
    # per-draw counts from one bincount over (draw, bin) per block of about
    # PAIR_BLOCK ordered pairs
    block = np.cumsum(sizes ** 2) // PAIR_BLOCK
    for g in np.unique(block):
        sel = np.flatnonzero(block == g)
        k = sizes[sel]
        pts = np.concatenate([configs[d] for d in sel])
        owner = np.repeat(np.arange(len(sel)), k)
        # every ordered pair (i, j) of positions within one draw
        reps = np.repeat(k, k)
        i = np.repeat(np.arange(pts.size), reps)
        j = np.repeat(np.repeat(np.cumsum(k) - k, k), reps) + np.arange(i.size) \
            - np.repeat(np.cumsum(reps) - reps, reps)
        i, j = i[i != j], j[i != j]
        if reduced:
            idx = _bin_index((pts[i] - pts[j]) % length, edges)
        else:
            ix, iy = _bin_index(pts[i], edges), _bin_index(pts[j], edges)
            idx = np.where((ix >= 0) & (iy >= 0), ix * nb + iy, -1)
        keep = idx >= 0
        h = np.bincount(owner[i][keep] * counts.size + idx[keep],
                        minlength=len(sel) * counts.size).reshape(len(sel), -1)
        counts += h.sum(axis=0)
        squares += (h.astype(float) ** 2).sum(axis=0)
    if not reduced:
        counts, squares = counts.reshape(nb, nb), squares.reshape(nb, nb)
    # per-bin measure: separation bins cover the whole circle of positions
    scale, cell = (length, width) if reduced else (1.0, width[:, None] * width[None, :])
    values = counts / (m * scale * cell)
    spread = np.sqrt(np.maximum(squares - counts ** 2 / m, 0.0) / (m - 1))
    stderr = spread / (np.sqrt(m) * scale * cell)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return CorrelationEstimate(grid=centers if reduced else (centers, centers),
                               values=values, stderr=stderr, n_samples=m)


def bin_average(f, lo: float, hi: float, bins: int) -> np.ndarray:
    """Mean of f over 8 midpoints in each of `bins` equal bins of [lo, hi].

    The reference curve for a binned estimate: near contact the pair
    density is too curved for one midpoint value per bin.
    """
    fine = np.linspace(lo, hi, 8 * bins + 1)
    return np.mean(np.asarray(f(0.5 * (fine[:-1] + fine[1:]))).reshape(bins, 8), axis=1)


# ---------------------------------------------------------------------------
# kernel distances


def kernel_distance(ka, kb, grid2d) -> dict[str, float]:
    """Sup and root-mean-square distance between two kernels on a grid.

    ``grid2d`` is a pair of axis arrays; the kernels are evaluated on their
    product.  Either argument may be a :class:`~fermibox.kernels.Kernel` or
    any callable of two broadcastable arguments.
    """
    xs, ys = (np.asarray(g, dtype=float) for g in grid2d)
    a = np.asarray(ka(xs[:, None], ys[None, :]))
    b = np.asarray(kb(xs[:, None], ys[None, :]))
    diff = np.abs(a - b)
    return {"sup": float(diff.max()), "l2": float(np.sqrt(np.mean(diff ** 2)))}


# ---------------------------------------------------------------------------
# scaling studies


@dataclass(frozen=True)
class ScalingReport:
    """Distances of the rescaled kernels to their limit, per system size."""

    sizes: tuple[int, ...]
    distances: tuple[float, ...]
    fitted_rate: float

    def __post_init__(self):
        if np.any(np.diff(self.sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if any(d <= 0 for d in self.distances):
            raise ValueError("distances must be positive")


def monotone_tail_ok(distances) -> bool:
    """Eventually decreasing: at most one increase, and only at the start."""
    d = list(distances)
    rises = [i for i in range(len(d) - 1) if d[i + 1] >= d[i]]
    return rises in ([], [0])


def _sup_gap(rescaled: np.ndarray, limit: np.ndarray) -> float:
    if np.iscomplexobj(rescaled):
        # Kernels carrying a position-dependent phase (twisted closures) are
        # only determined up to that gauge; compare the invariant modulus.
        return float(np.max(np.abs(np.abs(rescaled) - np.abs(limit))))
    return float(np.max(np.abs(rescaled - limit)))


def _scaling_study(sizes, u: np.ndarray, limit, rescaling) -> ScalingReport:
    """Sup distance to `limit` on u x u of each size's rescaled kernel.

    ``rescaling(n)`` gives the size-n kernel, the points it is sampled at
    for the grid u, and the prefactor of the rescaled kernel.  The rate is
    the slope of the log-log fit of distance against size.
    """
    ns = [int(n) for n in sizes]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("need at least two strictly increasing sizes")
    if any(n < 1 for n in ns):
        raise ValueError("sizes must be positive")
    target = limit(u[:, None], u[None, :])
    dists = []
    for n in ns:
        kern, x, factor = rescaling(n)
        dists.append(_sup_gap(factor * kern(x[:, None], x[None, :]), target))
    rate = float(np.polyfit(np.log(ns), np.log(dists), 1)[0])
    return ScalingReport(sizes=tuple(ns), distances=tuple(dists), fitted_rate=rate)


def bulk_scaling_study(bc, x0: float, sizes, grid=None) -> ScalingReport:
    """Rescale the ground-state kernel around an interior point.

    For each size ``N`` builds ``(2 pi / N) K_N(x0 + 2 pi x / N,
    x0 + 2 pi y / N)`` and measures its sup distance to the sine kernel on
    ``grid x grid``; fits the log-log decay rate across sizes.
    """
    if not 0.0 < float(x0) < TWO_PI:
        raise ValueError(f"bulk point must be strictly interior, got {x0}")
    u = default_bulk_grid() if grid is None else np.asarray(grid, dtype=float)
    return _scaling_study(sizes, u, kernel_sine(), lambda n: (
        ground_state_kernel(bc, n), float(x0) + TWO_PI * u / n, TWO_PI / n))


# Edge classes of the named boundary presets, as (at 0, at 2 pi).
_EDGE_CLASSES = {
    "dirichlet": ("dirichlet", "dirichlet"),
    "neumann": ("neumann", "neumann"),
    "zaremba": ("dirichlet", "neumann"),
    "robin": ("robin", "robin"),
    "dirichlet_robin": ("dirichlet", "robin"),
    "delta": ("delta", "delta"),
}

_CLASS_TO_LIMIT = {
    "dirichlet": "BesselMinus",
    "neumann": "BesselPlus",
    "robin": "RobinEdge",
    "delta": "DeltaEdge",
}


def _preset_form(bc) -> tuple[str, tuple[float, ...]]:
    if isinstance(bc, BoundaryMatrix):
        name, params = bc.label, bc.params
    elif isinstance(bc, str):
        name, params = bc, ()
    elif isinstance(bc, dict) and "preset" in bc:
        name, params = bc["preset"], tuple(bc.get("params", ()))
    else:
        raise ValueError(
            "edge study needs a preset boundary (name, preset dict, or a "
            "matrix built from one); a bare custom matrix has no declared "
            "edge class")
    if name not in _EDGE_CLASSES:
        raise ValueError(f"boundary {name!r} has no edge to rescale at")
    return name, params


def _limit_form(limit) -> tuple[str, dict]:
    if isinstance(limit, Kernel):
        spec = limit.spec
        if not (isinstance(spec, dict) and "Limit" in spec):
            raise ValueError("limit kernel carries no Limit spec")
        inner = spec["Limit"]
    elif isinstance(limit, dict):
        inner = limit.get("Limit", limit)
    else:
        raise ValueError(f"cannot read a limit spec from {limit!r}")
    tag, cfg = _spec_variant(inner, "limit spec")
    return tag, dict(cfg)


def _class_coupling(klass: str, params: tuple[float, ...]) -> float | None:
    """Zoom-invariant coupling of the limit this edge class targets."""
    if klass == "robin":
        return float(np.tan(0.5 * params[0]))
    if klass == "delta":
        return float(params[0])
    return None


def _sized_preset(name: str, params: tuple[float, ...], n: int) -> BoundaryMatrix:
    """The preset whose coupling, measured at the mean-spacing scale, stays put.

    A boundary coefficient h at unit scale appears as 2 pi h / N after the
    edge zoom, so holding the zoomed coupling at ``c`` means growing the raw
    one like c N / (2 pi).  Dirichlet, Neumann and the mixed
    Dirichlet/Neumann preset are fixed points of the rescaling.
    """
    if name == "delta":
        return make_preset(name, params[0] * n / TWO_PI)
    if name in ("robin", "dirichlet_robin"):
        raw = np.tan(0.5 * params[0]) * n / TWO_PI
        return make_preset(name, 2.0 * np.arctan(raw))
    return make_preset(name, *params)


def edge_scaling_study(bc, x0: float, limit, sizes, grid=None) -> ScalingReport:
    """Rescale the ground-state kernel at an edge against a limit kernel.

    ``x0`` must be 0 or 2 pi; ``limit`` a limit-kernel spec (or a kernel
    carrying one) whose class matches the boundary's class at that edge:
    absorbing edges pair with the odd hard-edge kernel, reflecting ones
    with the even one, elastic (Robin) edges with the matching positive
    coupling, and point scatterers likewise.  The boundary coupling is held
    fixed at the zoomed scale while the sizes grow.
    """
    name, params = _preset_form(bc)
    if float(x0) == 0.0:
        side = 0
    elif float(x0) == TWO_PI:
        side = 1
    else:
        raise ValueError(f"edge must be 0 or 2*pi, got {x0}")
    klass = _EDGE_CLASSES[name][side]
    tag, cfg = _limit_form(limit)
    if _CLASS_TO_LIMIT[klass] != tag:
        raise ValueError(
            f"boundary {name!r} at edge {'0' if side == 0 else '2*pi'} is "
            f"{klass}-type and does not pair with limit {tag!r}")
    target = parse_kernel_spec({"Limit": {tag: cfg}})
    coupling = _class_coupling(klass, params)
    if coupling is not None:
        want = float(cfg["c"])
        if not np.isclose(coupling, want, rtol=1e-8, atol=1e-12):
            raise ValueError(
                f"limit coupling {want} does not match the boundary's "
                f"{coupling}")
    u = default_edge_grid() if grid is None else np.asarray(grid, dtype=float)

    def rescaling(n):
        x = TWO_PI * u / n if side == 0 else TWO_PI - TWO_PI * u / n
        return ground_state_kernel(_sized_preset(name, params, n), n), x, TWO_PI / n

    return _scaling_study(sizes, u, target, rescaling)


def finite_t_bulk_study(c: float, sizes, grid=None) -> ScalingReport:
    """Rescaled high-temperature kernels against the Fermi-smoothed sine.

    For each size ``N`` takes the periodic-box thermal kernel at
    temperature ``c N^2`` and chemical potential ``c N^2 log(lambda)``,
    with the fugacity solving the density constraint at scaled temperature
    ``c``, and measures ``(pi / N) K(pi x / N, pi y / N)`` against the
    finite-temperature sine kernel on ``grid x grid``.
    """
    if c <= 0:
        raise ValueError(f"scaled temperature must be positive, got {c}")
    u = default_bulk_grid() if grid is None else np.asarray(grid, dtype=float)
    lam = solve_lambda(c)
    log_lam = float(np.log(lam))

    def rescaling(n):
        t = c * n * n
        return finite_t_kernel("periodic", t, t * log_lam), np.pi * u / n, np.pi / n

    return _scaling_study(sizes, u, kernel_finite_t_sine(c, lam), rescaling)
