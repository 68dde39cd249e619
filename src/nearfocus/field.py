"""Scalar free-space propagation, conjugate-phase excitation, and channel assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ArraySpec,
    FocusScenario,
    Wave,
    _cos2,
    _field_points,
    _finite_positive,
    _has_rolloff,
    _require_finite,
    centered_positions,
    element_positions,
)

MIN_DISTANCE_FRACTION = 0.01
"""Evaluation guard: distances below this fraction of a wavelength are rejected."""

KERNEL_BLOCK_BYTES = 2**20
"""Byte budget of one propagation-kernel block of field points by elements. It
bounds kernel memory, and a small block stays in cache with its temporaries
while every excitation is summed against it."""


class SingularDistanceError(ValueError):
    """A source-to-field distance fell below the evaluation guard."""


def _check_distances(r: np.ndarray, wave: Wave, context: str, shape=None, offset: int = 0) -> None:
    """Reject distances below the guard, naming the smallest one and its index.

    ``r`` may be a block of a larger C-ordered array of ``shape`` that starts
    at flat index ``offset``; the index is then reported in ``shape``.
    """
    guard = MIN_DISTANCE_FRACTION * wave.wavelength
    if np.any(r < guard):
        flat = int(np.argmin(r))
        idx = np.unravel_index(offset + flat, r.shape if shape is None else shape)
        raise SingularDistanceError(
            f"{context}: distance {float(r.flat[flat]):.6e} m at index {tuple(int(i) for i in idx)} "
            f"is below the evaluation guard {guard:.6e} m"
        )


def _green(r: np.ndarray, wave: Wave) -> np.ndarray:
    """exp(-j k r) / (4 pi r) without the distance guard."""
    return np.exp(-1j * wave.wavenumber * r) / (4.0 * np.pi * r)


def _propagation(tx: ArraySpec, x: np.ndarray, z: np.ndarray, context: str):
    """Yield ``(rows, kernel)`` over blocks of the field points ``x``, ``z``.

    ``x`` and ``z`` share one shape; ``rows`` slices their flattened points and
    ``kernel[i, n]`` is pattern * exp(-j k r) / (4 pi r) from element n to
    point ``rows.start + i``. Blocks hold at most :data:`KERNEL_BLOCK_BYTES`
    unless one point alone exceeds it, and each passes the distance guard
    before it is yielded.
    """
    xn = element_positions(tx)
    rolloff = _has_rolloff(tx.pattern)
    xf = x.reshape(-1, 1)
    zf = z.reshape(-1, 1)
    step = max(1, KERNEL_BLOCK_BYTES // (16 * xn.size))
    for start in range(0, xf.shape[0], step):
        rows = slice(start, start + step)
        dx = xf[rows] - xn
        r = np.hypot(dx, zf[rows])
        _check_distances(r, tx.wave, context, (*x.shape, xn.size), start * xn.size)
        kernel = _green(r, tx.wave)
        if rolloff:
            kernel *= _cos2(dx, zf[rows])
        yield rows, kernel


def greens(r, wave: Wave):
    """Scalar free-space Green's function exp(-j k r) / (4 pi r).

    Parameters
    ----------
    r : float or ndarray
        Source-to-field distance(s) in meters. Must be finite and stay at or
        above the singularity guard of one hundredth of a wavelength.
    wave : Wave
        Operating wave supplying the wavenumber.

    Returns
    -------
    complex or ndarray
        Field contribution per unit excitation.
    """
    rr = np.asarray(r, dtype=float)
    _require_finite("distance r", rr)
    _check_distances(rr, wave, "greens")
    out = _green(rr, wave)
    if out.ndim == 0:
        return complex(out)
    return out


def conjugate_excitation(tx: ArraySpec, focus_x: float, focus_z: float) -> np.ndarray:
    """Unit-magnitude weights that phase-align every element at the focal point.

    Each weight is exp(+j k r_n) with r_n the exact element-to-focus distance,
    so the propagation phase exp(-j k r_n) cancels at (focus_x, focus_z).
    """
    _require_finite("focus_x", focus_x)
    _finite_positive("focus_z", focus_z)
    xn = element_positions(tx)
    r = np.hypot(focus_x - xn, focus_z)
    return np.exp(1j * tx.wave.wavenumber * r)


def field_at(tx: ArraySpec, excitation: np.ndarray, x, z):
    """Total complex field radiated by the excited array at (x, z).

    Parameters
    ----------
    tx : ArraySpec
        Transmit array.
    excitation : ndarray
        Complex weight per element, shape (num_elements,), or T stacked
        excitations of shape (T, num_elements).
    x, z : float or ndarray
        Field point coordinates in meters; broadcast against each other.
        Coordinates must be finite and heights positive.

    Returns
    -------
    complex or ndarray
        Sum over elements of pattern-weighted Green's terms, with the shape
        of the broadcast points; a stacked excitation gives shape
        (T, *points) and row t equals the call with ``excitation[t]``.
        Each value is one fixed-order sum over elements, so stacking
        excitations and batching field points do not change results.
    """
    exc = np.asarray(excitation, dtype=complex)
    n = tx.num_elements
    if exc.ndim not in (1, 2) or exc.shape[-1] != n:
        raise ValueError(f"excitation has shape {exc.shape}, expected ({n},) or (T, {n})")
    _require_finite("excitation", exc)
    xb, zb = _field_points(x, z)
    weights = exc.reshape(-1, n)
    total = np.empty((weights.shape[0], xb.size), dtype=complex)
    for rows, kernel in _propagation(tx, xb, zb, "field_at"):
        for t, w in enumerate(weights):
            total[t, rows] = np.sum(w * kernel, axis=-1)
    total = total.reshape(exc.shape[:-1] + xb.shape)
    if total.ndim == 0:
        return complex(total)
    return total


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex gains between every transmit element and receive strip sample."""

    entries: np.ndarray
    rx_positions: np.ndarray
    tx_positions: np.ndarray
    z0: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def channel_matrix(scenario: FocusScenario) -> ChannelMatrix:
    """Assemble the rx-by-tx channel matrix for a focusing scenario.

    Entry (m, n) is the pattern-weighted Green's gain from transmit element n
    to receive sample m on the strip at height z0.
    """
    tx = scenario.tx
    rx_x = centered_positions(scenario.rx_num, scenario.rx_spacing)
    z0 = scenario.focal_distance
    entries = np.empty((rx_x.size, tx.num_elements), dtype=complex)
    for rows, kernel in _propagation(tx, rx_x, np.full_like(rx_x, z0), "channel_matrix"):
        entries[rows] = kernel
    return ChannelMatrix(entries=entries, rx_positions=rx_x, tx_positions=element_positions(tx), z0=z0)
