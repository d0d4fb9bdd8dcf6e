"""Output checks for the benchmark jobs, with oracles computed here.

Every check takes the text a job wrote to its ``--out`` file and raises
``CheckFailed`` when the output is wrong.  The oracles (closed forms, an
independent Robin eigen-solver, mpmath quadrature, method-of-images heat
kernels) use numpy, scipy and mpmath only, never fermibox itself.

Statistical checks on random output use bounds that a correct sampler
breaks on fewer than 1 in 1000 seeds.  Bin counts of a determinantal point
process have variance at most their mean (Var N(A) = int_A K - int_AxA |K|^2),
so a Poisson z-score is conservative; Z_MAX = 4.5 leaves under 1e-4 per
check even with dozens of bins.
"""

from __future__ import annotations

import json

import mpmath
import numpy as np
from scipy.optimize import brentq

TWO_PI = 2.0 * np.pi
Z_MAX = 4.5


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# output parsing


def csv_rows(text: str) -> list[list[str]]:
    """Raw rows of a fermibox CSV output, '#' header lines dropped.

    Empty rows are kept: a grand-canonical draw with no points is a blank
    line.
    """
    require(text.endswith("\n"), "output does not end with a newline")
    lines = [ln for ln in text[:-1].split("\n") if not ln.startswith("#")]
    return [ln.split(",") if ln else [] for ln in lines]


def csv_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = csv_rows(text)
    require(rows, "no header row")
    return rows[0], rows[1:]


def float_rows(text: str) -> list[np.ndarray]:
    """Variable-length numeric rows of a header-less sample CSV."""
    rows = csv_rows(text)
    try:
        return [np.array([float(v) for v in r]) for r in rows]
    except ValueError as err:
        raise CheckFailed(f"non-numeric sample value: {err}") from None


def grid_values(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xs, ys, K) from a kernel-eval CSV; K is complex, shape (nx, ny)."""
    cols, rows = csv_table(text)
    require(cols == ["x", "y", "re", "im"], f"unexpected columns {cols}")
    data = np.array(rows, dtype=float)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    require(len(data) == xs.size * ys.size, "grid rows are not a full product")
    require(np.array_equal(data[:, 0], np.repeat(xs, ys.size))
            and np.array_equal(data[:, 1], np.tile(ys, xs.size)),
            "grid rows out of order")
    k = (data[:, 2] + 1j * data[:, 3]).reshape(xs.size, ys.size)
    return xs, ys, k


def json_doc(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"output is not JSON: {err}") from None


# ---------------------------------------------------------------------------
# oracles


def robin_modes(h: float, count: int) -> tuple[np.ndarray, list]:
    """Lowest `count` modes of -psi'' = E psi on [0, 2pi] with inward
    derivative h*psi at both walls (the `robin:alpha` preset, h = tan(alpha/2)).

    Modes are even or odd about the centre u = x - pi: cos(w u), sin(w u)
    above zero energy and cosh(k u), sinh(k u) below.  Returns the energies
    and matching normalized callables of x.
    """
    found = []   # (energy, kind, frequency)

    def scan(f, lo, hi, step, kind):
        grid = np.arange(lo, hi, step)
        vals = f(grid)
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
            root = brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15)
            found.append((root, kind))

    w_max = count / 2.0 + 2.0
    scan(lambda w: w * np.sin(np.pi * w) - h * np.cos(np.pi * w), 1e-9, w_max, 0.01, "cos")
    scan(lambda w: w * np.cos(np.pi * w) + h * np.sin(np.pi * w), 1e-3, w_max, 0.01, "sin")
    if h < 0:
        k_max = abs(h) + 2.0
        scan(lambda k: k * np.tanh(np.pi * k) + h, 1e-9, k_max, 0.001, "cosh")
        scan(lambda k: k / np.tanh(np.pi * k) + h, 1e-3, k_max, 0.001, "sinh")
    energies = [(-f * f if kind in ("cosh", "sinh") else f * f, kind, f)
                for f, kind in found]
    energies.sort()
    require(len(energies) >= count, "Robin oracle found too few modes")
    out_e, funcs = [], []
    for e, kind, f in energies[:count]:
        if kind == "cos":
            norm = np.pi + np.sin(TWO_PI * f) / (2 * f)
            fn = lambda x, f=f, n=norm: np.cos(f * (x - np.pi)) / np.sqrt(n)
        elif kind == "sin":
            norm = np.pi - np.sin(TWO_PI * f) / (2 * f)
            fn = lambda x, f=f, n=norm: np.sin(f * (x - np.pi)) / np.sqrt(n)
        elif kind == "cosh":
            norm = np.pi + np.sinh(TWO_PI * f) / (2 * f)
            fn = lambda x, f=f, n=norm: np.cosh(f * (x - np.pi)) / np.sqrt(n)
        else:
            norm = np.sinh(TWO_PI * f) / (2 * f) - np.pi
            fn = lambda x, f=f, n=norm: np.sinh(f * (x - np.pi)) / np.sqrt(n)
        out_e.append(e)
        funcs.append(fn)
    return np.array(out_e), funcs


def robin_density(h: float, n: int):
    _, funcs = robin_modes(h, n)
    return lambda x: sum(f(x) ** 2 for f in funcs)


def dirichlet_bin_mass(n: int, edges: np.ndarray) -> np.ndarray:
    """Expected points per draw in each bin for the Dirichlet N-fermion state."""
    ks = np.arange(1, n + 1)[:, None]
    prim = np.sum(edges[None, :] - np.sin(ks * edges[None, :]) / ks, axis=0) / TWO_PI
    return np.diff(prim)


def density_bin_mass(density, edges: np.ndarray, per_bin: int = 400) -> np.ndarray:
    """Bin integrals of a smooth density by composite Simpson."""
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        x = np.linspace(a, b, 2 * per_bin + 1)
        y = density(x)
        out.append((b - a) / (6 * per_bin) * (y[0] + y[-1] + 4 * y[1:-1:2].sum()
                                                 + 2 * y[2:-1:2].sum()))
    return np.array(out)


def mp_finite_t_sine(c: float, lam: float, d: float) -> float:
    f = lambda u: mpmath.cos(mpmath.pi * d * u) / (1 + mpmath.exp(u * u / c) / lam)
    # the integrand is below e^-90 lam beyond u = 10 sqrt(c)
    return float(mpmath.quad(f, [b * mpmath.sqrt(c) for b in (0, 1, 3, 6, 10)]))


def mp_half_line_robin(c: float, e: float, x: float, y: float) -> float:
    d, s = x - y, x + y

    def f(u):
        den = c * c + mpmath.pi ** 2 * u * u
        robin = 2 * c * (c * mpmath.cos(mpmath.pi * s * u)
                         - mpmath.pi * u * mpmath.sin(mpmath.pi * s * u)) / den
        return mpmath.cos(mpmath.pi * d * u) + mpmath.cos(mpmath.pi * s * u) - robin

    return float(mpmath.quad(f, [0, mpmath.sqrt(e) / mpmath.pi]))


def mp_robin_edge(c: float, x: float, y: float) -> float:
    """sine(x-y) + sine(x+y) - 2c int_0^inf sine(x+y+xi) e^(-c xi) d xi."""
    s = x + y
    # unit subintervals are half periods of the sine; e^(-c xi) is below
    # e^-40 past xi = 40 / c
    top = int(np.ceil(40.0 / c))
    tail = mpmath.quad(lambda xi: mpmath.sincpi(s + xi) * mpmath.exp(-c * xi),
                       list(range(top + 1)) + [mpmath.inf])
    return float(mpmath.sincpi(x - y) + mpmath.sincpi(s) - 2 * c * tail)


def mp_delta_edge(c: float, x: float, y: float) -> float:
    s = x + y

    def f(u):
        w = 2 * mpmath.pi * u
        return c * (w * mpmath.sin(mpmath.pi * s * u)
                    - c * mpmath.cos(mpmath.pi * s * u)) / (w * w + c * c)

    return float(np.sinc(x - y) + mpmath.quad(f, [0, 1]))


def images_log_det_b(t: float, points: np.ndarray) -> float:
    """log det[p_t(x_i, x_j)] for family B (absorbing at 0, reflecting at pi),
    by the method of images for the generator (1/2) d^2/dx^2."""
    x = points[:, None]
    y = points[None, :]
    g = lambda d: np.exp(-d * d / (2 * t)) / np.sqrt(TWO_PI * t)
    p = sum((-1.0) ** m * (g(x - y + TWO_PI * m) - g(x + y + TWO_PI * m))
            for m in range(-8, 9))
    sign, logdet = np.linalg.slogdet(p)
    require(sign > 0, "oracle determinant is not positive")
    return float(logdet)


# ---------------------------------------------------------------------------
# checks on samples


def check_rows(rows, length, lo: float, hi: float) -> None:
    for i, r in enumerate(rows):
        if length is not None:
            require(r.size == length, f"row {i} has {r.size} points, want {length}")
        require(np.all(np.isfinite(r)), f"row {i} has a non-finite point")
        require(np.all(np.diff(r) >= 0), f"row {i} is not sorted")
        if r.size:
            require(r[0] >= lo and r[-1] < hi, f"row {i} leaves [{lo}, {hi})")


def check_bins(points: np.ndarray, edges: np.ndarray, expected: np.ndarray) -> None:
    """Binned counts against expected counts, Poisson-bounded z-scores."""
    counts = np.histogram(points, bins=edges)[0]
    z = (counts - expected) / np.sqrt(np.maximum(expected, 1.0))
    worst = int(np.argmax(np.abs(z)))
    require(abs(z[worst]) <= Z_MAX,
            f"bin {worst}: {counts[worst]} points, expected {expected[worst]:.1f} "
            f"(z = {z[worst]:.2f})")


def check_dpp_dirichlet(n: int, samples: int):
    def check(text: str) -> None:
        rows = float_rows(text)
        require(len(rows) == samples, f"{len(rows)} rows, want {samples}")
        check_rows(rows, n, 0.0, TWO_PI)
        edges = np.linspace(0.0, TWO_PI, 11)
        check_bins(np.concatenate(rows), edges, samples * dirichlet_bin_mass(n, edges))
    return check


def check_dpp_robin(alpha: float, n: int, samples: int):
    def check(text: str) -> None:
        rows = float_rows(text)
        require(len(rows) == samples, f"{len(rows)} rows, want {samples}")
        check_rows(rows, n, 0.0, TWO_PI)
        edges = np.linspace(0.0, TWO_PI, 9)
        mass = density_bin_mass(robin_density(np.tan(alpha / 2.0), n), edges)
        require(abs(mass.sum() - n) < 1e-6, "Robin oracle density does not integrate to N")
        check_bins(np.concatenate(rows), edges, samples * mass)
    return check


def check_gc_periodic(target: float, samples: int):
    def check(text: str) -> None:
        rows = float_rows(text)
        require(len(rows) == samples, f"{len(rows)} rows, want {samples}")
        check_rows(rows, None, 0.0, TWO_PI)
        counts = np.array([r.size for r in rows])
        # the count is a sum of independent Bernoullis, variance <= mean
        z = (counts.mean() - target) / np.sqrt(target / samples)
        require(abs(z) <= Z_MAX, f"mean count {counts.mean():.3f}, target {target} (z = {z:.2f})")
        edges = np.linspace(0.0, TWO_PI, 9)
        check_bins(np.concatenate(rows), edges, np.full(8, counts.sum() / 8.0))
    return check


def check_haar_u(n: int, samples: int):
    def check(text: str) -> None:
        rows = float_rows(text)
        require(len(rows) == samples, f"{len(rows)} rows, want {samples}")
        check_rows(rows, n, 0.0, TWO_PI)
        edges = np.linspace(0.0, TWO_PI, 11)
        check_bins(np.concatenate(rows), edges, np.full(10, n * samples / 10.0))
    return check


def check_two_point(text: str) -> None:
    cols, rows = csv_table(text)
    require(cols == ["kind", "s", "value", "stderr", "reference"], f"unexpected columns {cols}")
    emp = np.array([[float(v) for v in r[1:]] for r in rows if r[0] == "empirical"])
    require(emp.shape == (24, 4), f"{len(emp)} empirical rows, want 24")
    require(np.all(emp[:, 2] > 0), "nonpositive standard error")
    z = (emp[:, 1] - emp[:, 3]) / emp[:, 2]
    worst = int(np.argmax(np.abs(z)))
    require(abs(z[worst]) <= Z_MAX, f"two-point bin {worst} off by z = {z[worst]:.2f}")
    sine = np.array([[float(r[1]), float(r[2])] for r in rows if r[0] == "sine"])
    require(len(sine) == 301, "sine overlay is not 301 points")
    require(np.allclose(sine[:, 1], 1.0 - np.sinc(sine[:, 0]) ** 2, rtol=0, atol=1e-12),
            "sine overlay differs from 1 - sinc^2")


# ---------------------------------------------------------------------------
# checks on kernels


def check_gs_dirichlet(n: int):
    def check(text: str) -> None:
        xs, ys, k = grid_values(text)
        ks = np.arange(1, n + 1)[:, None]
        sx = np.sin(ks * xs[None, :] / 2.0)
        sy = np.sin(ks * ys[None, :] / 2.0)
        exact = sx.T @ sy / np.pi
        err = np.max(np.abs(k - exact))
        require(err <= 1e-10, f"Dirichlet kernel off the closed form by {err:.3g}")
    return check


def check_gs_robin(alpha: float, n: int):
    def check(text: str) -> None:
        xs, ys, k = grid_values(text)
        require(np.array_equal(xs, ys), "Robin check needs a square grid")
        require(np.max(np.abs(k - k.conj().T)) <= 1e-12, "kernel is not Hermitian")
        diag = np.real(np.diagonal(k))
        require(np.all(diag >= -1e-12), "negative diagonal")
        require(np.all(np.abs(k) ** 2 <= np.outer(diag, diag) * (1 + 1e-9) + 1e-12),
                "|K(x,y)|^2 exceeds K(x,x) K(y,y)")
        _, funcs = robin_modes(np.tan(alpha / 2.0), n)
        phi = np.array([f(xs) for f in funcs])
        err = np.max(np.abs(k - phi.T @ phi))
        require(err <= 1e-8, f"Robin kernel off the oracle mode sum by {err:.3g}")
    return check


def _spot_check(k, xs, ys, oracle, rng, count=4, tol=1e-8, what="kernel"):
    """Compare `count` seeded grid points with a quadrature oracle."""
    rows = rng.choice(xs.size, size=count, replace=False)
    cols = rng.choice(ys.size, size=count, replace=False)
    for i, j in zip(rows, cols):
        want = oracle(float(xs[i]), float(ys[j]))
        got = k[i, j]
        require(abs(got - want) <= tol,
                f"{what} at ({xs[i]:.4g}, {ys[j]:.4g}) is {got.real:.12g}, oracle {want:.12g}")


def check_finite_t_sine(c: float, lam: float, seed: int):
    def check(text: str) -> None:
        xs, ys, k = grid_values(text)
        require(np.max(np.abs(k - k.T)) <= 1e-12, "kernel is not symmetric")
        if np.allclose(np.diff(xs), xs[1] - xs[0]) and np.array_equal(xs, ys):
            # a function of x - y alone: constant along diagonals
            require(np.max(np.abs(k[1:, 1:] - k[:-1, :-1])) <= 1e-9,
                    "kernel is not translation invariant")
        _spot_check(k, xs, ys, lambda x, y: mp_finite_t_sine(c, lam, x - y),
                    np.random.default_rng(seed))
    return check


def check_half_line_robin(c: float, e: float, seed: int):
    def check(text: str) -> None:
        xs, ys, k = grid_values(text)
        require(np.max(np.abs(k - k.T)) <= 1e-12, "kernel is not symmetric")
        _spot_check(k, xs, ys, lambda x, y: mp_half_line_robin(c, e, x, y),
                    np.random.default_rng(seed))
        # at e = pi^2 the projection is the Robin edge kernel (its docstring)
        _spot_check(k, xs, ys, lambda x, y: mp_robin_edge(c, x, y),
                    np.random.default_rng(seed + 1), what="HalfLineRobin vs RobinEdge")
    return check


def check_delta_edge(c: float, seed: int):
    def check(text: str) -> None:
        xs, ys, k = grid_values(text)
        require(np.max(np.abs(k - k.T)) <= 1e-12, "kernel is not symmetric")
        _spot_check(k, xs, ys, lambda x, y: mp_delta_edge(c, x, y),
                    np.random.default_rng(seed))
    return check


def check_verify(text: str) -> None:
    doc = json_doc(text)
    require(doc.get("passed") is True, "verification did not pass its baseline")
    require(doc["baseline"]["passed"] is True, "baseline verdict is not a pass")


def check_density_figure(text: str) -> None:
    cols, rows = csv_table(text)
    require(cols == ["x", "density", "dirichlet_edge", "robin_edge"], f"unexpected columns {cols}")
    data = np.array(rows, dtype=float)
    require(data.shape == (281, 4), f"density table has shape {data.shape}")
    x, rho = data[:, 0], data[:, 1]
    require(np.allclose(np.diff(x), TWO_PI / 280, rtol=0, atol=1e-12), "x grid is not uniform")
    h = x[1] - x[0]
    total = h / 3 * (rho[0] + rho[-1] + 4 * rho[1:-1:2].sum() + 2 * rho[2:-1:2].sum())
    require(abs(total - 7.0) <= 1e-6, f"density integrates to {total:.9g}, want 7")
    require(abs(rho[0]) <= 1e-12, f"density at the Dirichlet wall is {rho[0]:.3g}")
    require(np.all(rho >= -1e-12), "negative density")


# ---------------------------------------------------------------------------
# checks on spectra and scalar solves


def _weyl(energies: np.ndarray, e_top: float | None) -> None:
    """|N(E) - 2 sqrt(E)| <= 3 at both sides of every positive eigenvalue."""
    require(np.all(np.diff(energies) >= 0), "energies are not sorted")
    pos = energies[energies > 0]
    n_below = np.searchsorted(energies, pos, side="left")
    n_upto = np.searchsorted(energies, pos, side="right")
    dev = np.concatenate([n_below - 2 * np.sqrt(pos), n_upto - 2 * np.sqrt(pos)])
    if e_top is not None:
        dev = np.append(dev, energies.size - 2 * np.sqrt(e_top))
    worst = float(dev[np.argmax(np.abs(dev))]) if dev.size else 0.0
    require(abs(worst) <= 3.0, f"Weyl deviation {worst:.3f} exceeds 3")


def spectrum_energies(text: str) -> np.ndarray:
    modes = json_doc(text)["modes"]
    require([m["k"] for m in modes] == list(range(len(modes))), "mode indices out of order")
    return np.array([m["E"] for m in modes], dtype=float)


def check_spectrum_count(alpha: float, count: int):
    def check(text: str) -> None:
        e = spectrum_energies(text)
        require(e.size == count, f"{e.size} modes, want {count}")
        _weyl(e, None)
        want, _ = robin_modes(np.tan(alpha / 2.0), count)
        err = np.max(np.abs(e - want) / np.maximum(1.0, np.abs(want)))
        require(err <= 1e-9, f"energies off the Robin oracle by {err:.3g} (relative)")
    return check


def check_spectrum_emax(e_max: float, max_bound: int):
    def check(text: str) -> None:
        e = spectrum_energies(text)
        require(e.size > 0 and e[-1] <= e_max + 1e-9, "energy above the ceiling")
        require(np.sum(e < 0) <= max_bound, f"{np.sum(e < 0)} bound states, at most {max_bound}")
        _weyl(e, e_max)
    return check


def check_mu(alpha: float, t: float, target: float, pool: int):
    def check(text: str) -> None:
        doc = json_doc(text)
        require(abs(doc["residual"]) <= 1e-9, f"residual {doc['residual']:.3g}")
        energies, _ = robin_modes(np.tan(alpha / 2.0), pool)
        occ = np.sum(1.0 / (1.0 + np.exp((energies - doc["mu"]) / t)))
        require(abs(occ - target) <= 1e-8,
                f"mu={doc['mu']!r} fills {occ:.12g} modes, want {target}")
    return check


def check_lambda(c: float):
    def check(text: str) -> None:
        lam = json_doc(text)["lambda"]
        require(lam > 0, "nonpositive fugacity")
        with mpmath.workdps(30):
            li = mpmath.polylog(0.5, -mpmath.mpf(lam)).real
            want = -2 / mpmath.sqrt(mpmath.pi * c)
            err = float(abs(li - want) / abs(want))
        require(err <= 1e-9, f"Li_1/2(-lambda) off by {err:.3g} (relative)")
    return check


def check_km_mcmc(n: int, steps: int, thin: int, lo: float, hi: float, open_lo: bool):
    def check(text: str) -> None:
        cols, rows = csv_table(text)
        require(cols == ["step", "acceptance", *(f"x{i + 1}" for i in range(n))],
                f"unexpected columns {cols}")
        data = np.array(rows, dtype=float)
        require(data.shape == (steps // thin, n + 2), f"chain has shape {data.shape}")
        require(np.array_equal(data[:, 0], thin * np.arange(len(data))), "step column is off")
        rate = data[:, 1]
        require(np.all(rate == rate[0]) and 0.01 <= rate[0] <= 1.0,
                f"acceptance {rate[0]!r} outside [0.01, 1]")
        pts = data[:, 2:]
        require(np.all(np.diff(pts, axis=1) > 0), "a chain state is not ordered")
        require(np.all(pts < hi) and np.all(pts > lo if open_lo else pts >= lo),
                "a chain state leaves the domain")
    return check


def check_km_density_b(t: float, points: np.ndarray):
    def check(text: str) -> None:
        doc = json_doc(text)
        require(doc["sign"] == 1.0, f"sign {doc['sign']!r}")
        want = images_log_det_b(t, points)
        require(abs(doc["log_weight"] - want) <= 1e-9,
                f"log weight {doc['log_weight']!r}, images oracle {want!r}")
    return check
