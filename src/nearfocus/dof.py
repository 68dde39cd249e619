"""Effective degrees of freedom of the array-to-strip channel and spacing design."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import FocusScenario, Wave, _ascending_grid, _finite_positive, _int_at_least, element_positions
from .field import ChannelMatrix, SingularDistanceError, _propagation


class DegenerateChannelError(ValueError):
    """The channel carries no energy, so the degrees of freedom are undefined."""


@dataclass(frozen=True)
class DofResult:
    """Effective DoF of a channel matrix H, with its Gram spectrum on request.

    ``entries`` is the M-by-N matrix H passed to :func:`effective_dof`, held
    by reference. ``eigenvalues`` is computed from it on first access and
    cached: the M eigenvalues of H H^H in descending order, clipped at zero.
    """

    effective_dof: float
    entries: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        h = self.entries
        # a Hermitian solver; tiny negative values are numerical noise from
        # the rank-deficient tail
        return np.clip(np.linalg.eigvalsh(h @ h.conj().T)[::-1], 0.0, None)


def _sum_abs2(a: np.ndarray) -> float:
    """Sum of |a|^2 over a complex matrix as row sums, then NumPy's pairwise sum. No
    BLAS dot: it splits its sum across threads, so its last bits follow their count."""
    parts = np.ascontiguousarray(a).view(np.float64)
    return float(np.sum(np.einsum("ij,ij->i", parts, parts)))


def effective_dof(channel) -> DofResult:
    """Participation ratio (sum s)^2 / sum s^2 of the channel Gram eigenvalues.

    Accepts a :class:`ChannelMatrix` or a plain complex matrix H. The ratio
    is evaluated in trace form, tr(G)^2 / ||G||_F^2 with tr(G) = ||H||_F^2
    and G the Gram matrix on the smaller side of H (H H^H or H^H H), so no
    eigendecomposition is needed. H is first divided by max|H|, which makes
    the result independent of its overall scale.
    """
    h = np.asarray(channel.entries if isinstance(channel, ChannelMatrix) else channel, dtype=complex)
    if h.ndim != 2 or h.size == 0:
        raise DegenerateChannelError(f"channel matrix must be 2-D and non-empty, got shape {h.shape}")
    peak = float(np.max(np.abs(h)))
    if not math.isfinite(peak):
        raise ValueError("channel matrix has non-finite entries")
    if peak == 0.0:
        raise DegenerateChannelError("all Gram eigenvalues are zero")
    hs = h / peak
    gram = hs @ hs.conj().T if h.shape[0] <= h.shape[1] else hs.conj().T @ hs
    trace = _sum_abs2(hs)
    return DofResult(effective_dof=trace * trace / _sum_abs2(gram), entries=h)


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
    transmit element count, so the strip tracks the array aperture. The
    strip then copies the array, entry (m, n) of the channel depends only on
    m - n, and its 2N - 1 distinct entries come from the two strip-end
    samples. Ties on the maximum resolve to the smallest spacing.
    """
    ds = _ascending_grid("spacings", spacings, 1)
    _finite_positive("smallest spacing", float(ds[0]))
    num = template.tx.num_elements
    # position of entry (m, n) in the lag vector, which runs from m - n = 1 - N to N - 1
    lags = np.subtract.outer(np.arange(num), np.arange(num)) + (num - 1)
    z0 = np.full(2, template.focal_distance)
    curve = np.empty_like(ds)
    for i, d in enumerate(ds):
        tx = replace(template.tx, spacing=float(d))
        try:
            strip_ends = element_positions(tx)[[0, -1]]
            ends = np.vstack([k for _, k in _propagation(tx, strip_ends, z0, "dof_sweep")])
            # ends[0, n] has lag -n and ends[1, n] lag N - 1 - n
            lag_vector = np.concatenate((ends[0, ::-1], ends[1, -2::-1]))
            curve[i] = effective_dof(lag_vector[lags]).effective_dof
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
    _int_at_least("num_elements", num_elements)
    _finite_positive("focal_distance", focal_distance)
    _int_at_least("null index n", n)
    return math.sqrt(n * wave.wavelength * focal_distance / num_elements)
