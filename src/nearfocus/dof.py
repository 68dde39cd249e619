"""Effective degrees of freedom of the array-to-strip channel and spacing design."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import FocusScenario, Wave, _finite_positive
from .field import ChannelMatrix, SingularDistanceError, channel_matrix


class DegenerateChannelError(ValueError):
    """The channel carries no energy, so the degrees of freedom are undefined."""


@dataclass(frozen=True)
class DofResult:
    """Effective DoF together with the Gram eigenvalues it was computed from."""

    effective_dof: float
    eigenvalues: np.ndarray


def effective_dof(channel) -> DofResult:
    """Participation ratio (sum s)^2 / sum s^2 of the channel Gram eigenvalues.

    Accepts a :class:`ChannelMatrix` or a plain complex matrix. Eigenvalues of
    H H^H are evaluated with a Hermitian solver and clipped at zero; tiny
    negative values are numerical noise from the rank-deficient tail.
    """
    if isinstance(channel, ChannelMatrix):
        h = channel.entries
    else:
        h = np.asarray(channel, dtype=complex)
    if h.ndim != 2 or h.size == 0:
        raise DegenerateChannelError(f"channel matrix must be 2-D and non-empty, got shape {h.shape}")
    gram = h @ h.conj().T
    eig = np.linalg.eigvalsh(gram)[::-1]
    eig = np.clip(eig, 0.0, None)
    total = float(np.sum(eig))
    if total == 0.0:
        raise DegenerateChannelError("all Gram eigenvalues are zero")
    ne = total * total / float(np.sum(eig * eig))
    return DofResult(effective_dof=ne, eigenvalues=eig)


@dataclass(frozen=True)
class SpacingSweep:
    """Effective DoF as a function of element spacing, with the best point marked."""

    spacings: np.ndarray
    dof_curve: np.ndarray
    best_spacing: float
    best_dof: float


def dof_sweep(template: FocusScenario, spacings) -> SpacingSweep:
    """Sweep element spacing and record the effective DoF at each value.

    For every candidate d the scenario is rebuilt with both transmit and
    receive spacing set to d and the receive sample count matched to the
    transmit element count, so the strip tracks the array aperture. Ties on
    the maximum resolve to the smallest spacing.
    """
    ds = np.asarray(spacings, dtype=float)
    if ds.ndim != 1 or ds.size == 0:
        raise ValueError("spacings must be a non-empty 1-D sequence")
    if np.any(ds <= 0.0):
        raise ValueError("spacings must be positive")
    if np.any(np.diff(ds) <= 0.0):
        raise ValueError("spacings must be strictly ascending")
    curve = np.empty_like(ds)
    for i, d in enumerate(ds):
        tx = replace(template.tx, spacing=float(d))
        scen = FocusScenario(
            tx=tx,
            focal_distance=template.focal_distance,
            rx_num=tx.num_elements,
            rx_spacing=float(d),
        )
        try:
            curve[i] = effective_dof(channel_matrix(scen)).effective_dof
        except (SingularDistanceError, DegenerateChannelError) as exc:
            raise type(exc)(f"sweep aborted at spacing {d:.6g} m: {exc}") from exc
    best = int(np.argmax(curve))
    return SpacingSweep(
        spacings=ds,
        dof_curve=curve,
        best_spacing=float(ds[best]),
        best_dof=float(curve[best]),
    )


def optimal_spacing(num_elements: int, focal_distance: float, wave: Wave, n: int = 1) -> float:
    """Closed-form spacing sqrt(n * lambda * z0 / N) that aligns the n-th
    focusing-gain null with the adjacent element offset."""
    if not isinstance(num_elements, (int, np.integer)) or num_elements < 1:
        raise ValueError(f"num_elements must be a positive integer, got {num_elements!r}")
    _finite_positive("focal_distance", focal_distance)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"null index n must be a positive integer, got {n!r}")
    return math.sqrt(n * wave.wavelength * focal_distance / num_elements)
