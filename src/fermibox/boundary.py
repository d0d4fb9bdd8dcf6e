"""Self-adjoint boundary conditions on the interval (0, 2*pi).

Every self-adjoint realization of -d^2/dx^2 on the box is labeled by a 2x2
unitary matrix U acting on boundary data, through the linear relation
implemented in :func:`boundary_residual`.  Named presets cover the cases with
closed-form spectra (periodic, Dirichlet, Neumann, mixed, Robin, delta).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "BoundaryData",
    "BoundaryMatrix",
    "NonUnitaryError",
    "PRESET_NAMES",
    "boundary_residual",
    "from_json",
    "make_boundary",
    "make_preset",
    "to_json",
]

UNITARITY_TOL = 1e-10

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class NonUnitaryError(ValueError):
    """Raised when a candidate boundary matrix fails the unitarity check."""

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(
            f"boundary matrix is not unitary: ||U*U - I||_F = {deviation:.6g} "
            f"exceeds {UNITARITY_TOL:g}"
        )


class BoundaryData(NamedTuple):
    """Boundary trace of a wave function: values and derivatives at the edges.

    Field order is part of the contract.  ``psi_minus`` and ``dpsi_minus``
    are psi(2*pi) and psi'(2*pi); ``psi_plus`` and ``dpsi_plus`` are psi(0)
    and psi'(0).
    """

    psi_minus: complex
    psi_plus: complex
    dpsi_minus: complex
    dpsi_plus: complex


@dataclass(frozen=True)
class BoundaryMatrix:
    """A validated 2x2 unitary boundary matrix with an optional preset label."""

    matrix: np.ndarray
    label: str = "custom"
    params: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"boundary matrix must be 2x2, got shape {m.shape}")
        dev = unitarity_deviation(m)
        if dev > UNITARITY_TOL:
            raise NonUnitaryError(dev)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


def unitarity_deviation(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=complex)
    return float(np.linalg.norm(m.conj().T @ m - np.eye(2)))


def make_boundary(
    entries: Sequence[Sequence[complex]] | np.ndarray,
    label: str = "custom",
    params: Sequence[float] = (),
) -> BoundaryMatrix:
    """Build a :class:`BoundaryMatrix` from raw entries, validating unitarity.

    Raises :class:`NonUnitaryError` when ``||U*U - I||_F`` exceeds 1e-10;
    the deviation is carried on the exception (diag(1, 2) reports 3).
    """
    return BoundaryMatrix(np.asarray(entries, dtype=complex), label, tuple(params))


def _preset_periodic() -> np.ndarray:
    return SIGMA1.copy()


def _preset_pseudo_periodic(alpha: float) -> np.ndarray:
    return np.array([[0.0, np.exp(-1j * alpha)], [np.exp(1j * alpha), 0.0]])


def _preset_dirichlet() -> np.ndarray:
    return -np.eye(2, dtype=complex)


def _preset_neumann() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _preset_zaremba() -> np.ndarray:
    # Dirichlet edge at x = 0, Neumann edge at x = 2*pi; eigenfunctions are
    # sin((2k+1)x/4), so slot 1 (the 2*pi edge) carries the Neumann phase.
    return SIGMA3.copy()


def _preset_robin(alpha: float) -> np.ndarray:
    # Equal Robin condition at both edges, inward coefficient tan(alpha/2);
    # repulsive for alpha in (0, pi).  alpha = 0 is Neumann, alpha = pi
    # Dirichlet.
    return np.exp(-1j * alpha) * np.eye(2, dtype=complex)


def _preset_delta(c: float) -> np.ndarray:
    # Point interaction of strength c at the junction x = 0 ~ 2*pi: the wave
    # function is continuous and its derivative jumps by c * psi.  c = 0
    # reduces to the periodic matrix.
    return (SIGMA1 - 0.5j * c * np.eye(2)) / (1.0 + 0.5j * c)


def _preset_dirichlet_robin(alpha: float) -> np.ndarray:
    # Dirichlet at x = 0, Robin with inward coefficient tan(alpha/2) at 2*pi.
    return np.array([[np.exp(-1j * alpha), 0.0], [0.0, -1.0]])


_PRESETS = {
    "periodic": (0, _preset_periodic),
    "pseudo_periodic": (1, _preset_pseudo_periodic),
    "dirichlet": (0, _preset_dirichlet),
    "neumann": (0, _preset_neumann),
    "zaremba": (0, _preset_zaremba),
    "robin": (1, _preset_robin),
    "delta": (1, _preset_delta),
    "dirichlet_robin": (1, _preset_dirichlet_robin),
}

PRESET_NAMES = tuple(_PRESETS)


def make_preset(name: str, *params: float) -> BoundaryMatrix:
    """Return a named preset boundary matrix.

    ``make_preset("robin", 1.5)`` etc.; parameter count is checked per preset.
    """
    try:
        n_params, builder = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    if len(params) != n_params:
        raise ValueError(f"preset {name!r} takes {n_params} parameter(s), got {len(params)}")
    for p in params:
        if not np.isfinite(p):
            raise ValueError(f"preset parameter must be finite, got {p!r}")
    return BoundaryMatrix(builder(*params), label=name, params=params)


def boundary_residual(
    bc: BoundaryMatrix | np.ndarray, data: BoundaryData | Sequence[complex]
) -> float:
    """Norm of the self-adjointness relation applied to boundary data.

    With psi_- = psi(2*pi), psi_+ = psi(0), the defining relation is

        (psi_- + i psi'_-, psi_+ - i psi'_+)^T = U (psi_- - i psi'_-, psi_+ + i psi'_+)^T

    and the residual is the Euclidean norm of left minus right.  Zero exactly
    when the data lies in the domain selected by U.
    """
    u = bc.matrix if isinstance(bc, BoundaryMatrix) else np.asarray(bc, dtype=complex)
    pm, pp, dm, dp = (complex(v) for v in data)
    left = np.array([pm + 1j * dm, pp - 1j * dp])
    right = u @ np.array([pm - 1j * dm, pp + 1j * dp])
    return float(np.linalg.norm(left - right))


def to_json(bc: BoundaryMatrix) -> str:
    """Serialize to the interchange form used by the command line tools."""
    m = bc.matrix
    entries = [[float(m[i, j].real), float(m[i, j].imag)] for i in range(2) for j in range(2)]
    return json.dumps(
        {"label": bc.label, "params": list(bc.params), "entries": entries},
        sort_keys=True,
    )


def from_json(text: str | dict) -> BoundaryMatrix:
    """Inverse of :func:`to_json`; re-validates unitarity on the way in."""
    obj = json.loads(text) if isinstance(text, str) else text
    entries = obj["entries"]
    if len(entries) != 4:
        raise ValueError("boundary JSON must carry 4 [re, im] entries, row-major")
    flat = [complex(re, im) for re, im in entries]
    m = np.array(flat, dtype=complex).reshape(2, 2)
    return BoundaryMatrix(m, label=obj.get("label", "custom"), params=tuple(obj.get("params", ())))
