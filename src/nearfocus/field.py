"""Scalar free-space propagation, conjugate-phase excitation, and channel assembly."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import (
    ArraySpec,
    FocusScenario,
    Wave,
    _cos2,
    _field_points,
    _finite,
    _finite_positive,
    _has_rolloff,
    centered_positions,
    element_positions,
)

MIN_DISTANCE_FRACTION = 0.01
"""Evaluation guard: distances below this fraction of a wavelength are rejected."""

KERNEL_BLOCK_BYTES = 2**20
"""Byte budget of the propagation-kernel blocks of field points by elements
that are built at one time, shared by every worker thread. It bounds kernel
memory, and a small block stays in cache while every excitation is summed
against it; the sum makes no product temporaries."""


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


def _green(r: np.ndarray, wave: Wave, out: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """exp(-j k r) / (4 pi r) into ``out``, without the distance guard; ``kr`` is left holding 4 pi r.

    ``kr`` is a float scratch array of ``r``'s shape, and ``r`` is not written.
    cos(k r) and -sin(k r), written straight into ``out.real`` and ``out.imag``,
    give np.exp's bits, and cheaper.
    """
    np.cos(np.multiply(wave.wavenumber, r, out=kr), out=out.real)
    np.negative(np.sin(kr, out=kr), out=out.imag)
    out /= np.multiply(4.0 * np.pi, r, out=kr)
    return out


def _kernel_rows(tx: ArraySpec, xn: np.ndarray, x: np.ndarray, z: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 context: str, shape: tuple, offset: int) -> np.ndarray:
    """Kernel rows from the elements at ``xn`` to the points in the columns ``x``, ``z``, written into ``out``.

    ``scratch`` holds three float arrays of ``out``'s shape, for r, k r and dx,
    whatever the pattern. The distances pass the guard first, their index
    reported in ``shape`` from flat index ``offset`` on.
    """
    r, kr, dx = scratch
    np.subtract(x, xn, out=dx)
    np.hypot(dx, z, out=r)
    _check_distances(r, tx.wave, context, shape, offset)
    _green(r, tx.wave, out, kr)
    if _has_rolloff(tx.pattern):
        out *= _cos2(dx, z, out=kr)
    return out


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, or every CPU where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _propagation(tx: ArraySpec, x: np.ndarray, z: np.ndarray, context: str, consume) -> None:
    """Call ``consume(rows, kernel)`` on blocks that together cover the field points ``x``, ``z``.

    ``x`` and ``z`` share one shape; ``rows`` slices their flattened points,
    and ``kernel[i, n]`` is pattern * exp(-j k r) / (4 pi r) from element n to
    point ``rows.start + i``. A mirrored set (flattened, ``x[::-1] == -x`` and
    ``z[::-1] == z``, exact compare) builds rows from m // 2 on only, and each
    built block is followed by its twin rows: a reversed view, the same bits.

    Blocks run on one thread per CPU of :func:`_cpu_count`, the calling thread
    included, striding through the blocks. Each thread builds its blocks in
    buffers allocated once per call, so ``kernel`` is valid only until
    ``consume`` returns, and ``consume`` must write where no other block does.
    The blocks built at one time hold at most :data:`KERNEL_BLOCK_BYTES` in
    all unless one point alone exceeds it. Each block passes the distance
    guard before it is consumed; after every thread has stopped, the error of
    the earliest failed block, if any, is raised.
    """
    xn = element_positions(tx)
    xf = x.reshape(-1, 1)
    zf = z.reshape(-1, 1)
    m, n = xf.shape[0], xn.size
    # antisymmetric element positions make kernel row m - 1 - i of a mirrored set row i reversed, bit for bit
    half = m // 2 if np.array_equal(xf[::-1], -xf) and np.array_equal(zf[::-1], zf) else 0
    workers = _cpu_count()
    step = max(1, KERNEL_BLOCK_BYTES // (16 * n * workers))
    starts = range(half, m, step)
    workers = max(1, min(workers, len(starts)))
    errors = {}

    def work(first: int) -> None:
        b = first
        try:
            size = min(step, m - half)
            kernel = np.empty((size, n), dtype=complex)
            scratch = np.empty((3, size, n))
            for b in range(first, len(starts), workers):
                rows = slice(starts[b], min(starts[b] + step, m))
                k = rows.stop - rows.start
                block = _kernel_rows(tx, xn, xf[rows], zf[rows], kernel[:k], scratch[:, :k], context,
                                     (*x.shape, n), rows.start * n)
                consume(rows, block)
                # built rows lo..stop - 1 are the twins of m - stop..m - 1 - lo; none when half is 0
                lo = max(rows.start, m - half)
                if lo < rows.stop:
                    consume(slice(m - rows.stop, m - lo), block[lo - rows.start:][::-1, ::-1])
        except Exception as exc:  # a thread stops at its first failure; the caller raises the earliest
            errors[b] = exc

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=work, args=(first,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


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
    rr = _finite("distance r", r)
    _check_distances(rr, wave, "greens")
    out = _green(rr, wave, np.empty(rr.shape, dtype=complex), np.empty(rr.shape))
    if out.ndim == 0:
        return complex(out)
    return out


def conjugate_excitation(tx: ArraySpec, focus_x: float, focus_z: float) -> np.ndarray:
    """Unit-magnitude weights that phase-align every element at the focal point.

    Each weight is exp(+j k r_n) with r_n the exact element-to-focus distance,
    so the propagation phase exp(-j k r_n) cancels at (focus_x, focus_z).
    """
    _finite("focus_x", focus_x)
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
        Finite complex weight per element, shape (num_elements,), or T stacked
        excitations of shape (T, num_elements); not a bool array.
    x, z : float or ndarray
        Field point coordinates in meters; broadcast against each other.
        Coordinates must be finite and not bools, and heights positive.

    Returns
    -------
    complex or ndarray
        Sum over elements of pattern-weighted Green's terms, with the shape
        of the broadcast points; a stacked excitation gives shape
        (T, *points) and row t equals the call with ``excitation[t]``.
        Each value is one sequential sum over elements in element order
        (``np.einsum`` without ``optimize``: no BLAS, no product temporaries),
        so stacking excitations and batching field points do not change it. A
        mirrored point set (flattened, ``x[::-1] == -x`` and ``z[::-1] == z``)
        builds only half the kernel in :func:`_propagation`, with the same bits.
        Kernel blocks are built and summed on one thread per CPU of the
        process's affinity set, within one :data:`KERNEL_BLOCK_BYTES` budget
        shared by them all; each value is computed by one thread, so the CPU
        count does not change it either.
    """
    exc = _finite("excitation", excitation, complex)
    n = tx.num_elements
    if exc.ndim not in (1, 2) or exc.shape[-1] != n:
        raise ValueError(f"excitation has shape {exc.shape}, expected ({n},) or (T, {n})")
    xb, zb = _field_points(x, z)
    weights = exc.reshape(-1, n)
    total = np.empty((weights.shape[0], xb.size), dtype=complex)

    def add(rows, kernel):
        total[:, rows] = np.einsum("ij,tj->ti", kernel, weights)

    _propagation(tx, xb, zb, "field_at", add)
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
    to receive sample m on the strip at height z0. When the strip copies the
    array's count and spacing, entry (m, n) depends only on |m - n|, and the
    N distinct entries are computed at one strip end and gathered.
    """
    tx = scenario.tx
    rx_x = centered_positions(scenario.rx_num, scenario.rx_spacing)
    z0 = scenario.focal_distance
    if scenario.rx_num == tx.num_elements and scenario.rx_spacing == tx.spacing:
        n = tx.num_elements
        c = _kernel_rows(tx, element_positions(tx), rx_x[0], z0, np.empty((1, n), dtype=complex),
                         np.empty((3, 1, n)), "channel_matrix", (1, n), 0)[0]
        # c[n] has lag -n, and lag +n by antisymmetric positions: entry (m, n) = lag_vector[N - 1 + m - n] = c[|m - n|]
        lag_vector = np.concatenate((c[::-1], c[1:]))
        s = lag_vector.strides[0]
        entries = as_strided(lag_vector[tx.num_elements - 1:], (tx.num_elements,) * 2, (s, -s)).copy()
    else:
        entries = np.empty((rx_x.size, tx.num_elements), dtype=complex)
        _propagation(tx, rx_x, np.full_like(rx_x, z0), "channel_matrix", entries.__setitem__)
    return ChannelMatrix(entries=entries, rx_positions=rx_x, tx_positions=element_positions(tx), z0=z0)
