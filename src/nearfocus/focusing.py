"""Focusing gain profiles, focal-point scanning, lobe reporting, and axial analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ArraySpec, FocusScenario, Wave, _finite_positive
from .field import conjugate_excitation, field_at

LOBE_THRESHOLD_DB = -13.0
"""Secondary maxima within this range of the main peak are reported as lobes."""


def _parabola_vertex(y0: float, y1: float, y2: float) -> tuple[float, float]:
    """Vertex of the parabola through three equally spaced samples.

    Returns the fractional offset from the center sample, in units of the
    sample step, and the vertex value. Degenerate (flat) triples return the
    center sample unchanged.
    """
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return 0.0, y1
    frac = 0.5 * (y0 - y2) / denom
    value = y1 - 0.25 * (y0 - y2) * frac
    return frac, value


def _refine_max(x: np.ndarray, y: np.ndarray, index: int, log_domain: bool) -> tuple[float, float]:
    """Sub-step refinement of a sampled maximum by parabolic interpolation.

    Peaks are refined on the logarithm of the samples, which is closer to
    quadratic near a peak of a lobed magnitude pattern. Boundary samples are
    returned as-is.
    """
    if index == 0 or index == len(y) - 1:
        return float(x[index]), float(y[index])
    step = float(x[index + 1] - x[index])
    triple = y[index - 1 : index + 2]
    if log_domain:
        if np.any(triple <= 0.0):
            return float(x[index]), float(y[index])
        frac, value = _parabola_vertex(*np.log(triple))
        return float(x[index]) + frac * step, float(np.exp(value))
    frac, value = _parabola_vertex(*(float(v) for v in triple))
    return float(x[index]) + frac * step, float(value)


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of strict-from-the-left interior local maxima."""
    if len(y) < 3:
        return np.array([], dtype=int)
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    return np.nonzero(interior)[0] + 1


@dataclass(frozen=True)
class GainProfile:
    """Focusing gain sampled along the receive strip around the focal point.

    ``gain`` is |E|^2 normalized by the element count, so a lossless fully
    aligned array peaks at N. ``null_offsets`` lists refined local minima in
    ascending order; the peak location and value are parabolically refined.
    """

    offsets: np.ndarray
    gain: np.ndarray
    peak_offset: float
    peak_gain: float
    null_offsets: np.ndarray

    @property
    def first_positive_null(self) -> float | None:
        """Smallest null offset beyond the peak on the positive side, if any."""
        positive = self.null_offsets[self.null_offsets > 0.0]
        if positive.size == 0:
            return None
        return float(positive[0])


def _check_offsets(offsets: np.ndarray) -> None:
    if offsets.ndim != 1 or offsets.size < 3:
        raise ValueError("offsets must be a 1-D grid with at least three samples")
    if np.any(np.diff(offsets) <= 0.0):
        raise ValueError("offsets must be strictly ascending")


def gain_exact(tx: ArraySpec, z0: float, offsets) -> GainProfile:
    """Exact focusing gain of the conjugate-phased array along the strip at z0.

    Parameters
    ----------
    tx : ArraySpec
        Transmit array, focused on the strip center (0, z0) with exact
        per-element conjugate phases.
    z0 : float
        Focal distance in meters.
    offsets : ndarray
        Strictly ascending transverse offsets from the focal point.

    Returns
    -------
    GainProfile
        Gain samples with refined peak and refined local-minimum offsets.
    """
    offs = np.asarray(offsets, dtype=float)
    _check_offsets(offs)
    exc = conjugate_excitation(tx, 0.0, z0)
    e = field_at(tx, exc, offs, z0)
    gain = np.abs(e) ** 2 / tx.num_elements
    ipk = int(np.argmax(gain))
    peak_offset, peak_gain = _refine_max(offs, gain, ipk, log_domain=True)
    nulls = [
        _refine_max(offs, -gain, i, log_domain=False)[0] for i in _local_maxima(-gain)
    ]
    return GainProfile(
        offsets=offs,
        gain=gain,
        peak_offset=peak_offset,
        peak_gain=peak_gain,
        null_offsets=np.asarray(nulls, dtype=float),
    )


def _sine_ratio(num_elements: int, u: np.ndarray) -> np.ndarray:
    """sin(N u) / sin(u), taking the limit N cos(N u) / cos(u) where sin(u) vanishes."""
    s = np.sin(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(num_elements * u) / s
    near_pole = np.abs(s) < 1e-9
    if np.any(near_pole):
        limit = num_elements * np.cos(num_elements * u) / np.cos(u)
        ratio = np.where(near_pole, limit, ratio)
    return ratio


def gain_paraxial(num_elements: int, spacing: float, z0: float, wave: Wave, offsets) -> GainProfile:
    """Small-angle focusing gain G = (1/N) [sin(N u) / sin(u)]^2, u = k d delta / (2 z0).

    The ratio of sines is evaluated by its limit +-N wherever the denominator
    vanishes, which covers both the main peak and grating-lobe centers. Null
    offsets are analytic: integer multiples of lambda z0 / (N d), skipping
    multiples of N where the pattern peaks instead of vanishing.
    """
    offs = np.asarray(offsets, dtype=float)
    _check_offsets(offs)
    _finite_positive("z0", z0)
    _finite_positive("spacing", spacing)
    ratio = _sine_ratio(num_elements, 0.5 * wave.wavenumber * spacing * offs / z0)
    gain = ratio * ratio / num_elements
    ipk = int(np.argmax(gain))
    peak_offset, peak_gain = _refine_max(offs, gain, ipk, log_domain=True)
    null_step = wave.wavelength * z0 / (num_elements * spacing)
    max_m = int(math.floor(max(abs(float(offs[0])), abs(float(offs[-1]))) / null_step))
    nulls = [
        sign * m * null_step
        for m in range(1, max_m + 1)
        if m % num_elements != 0
        for sign in (-1.0, 1.0)
        if offs[0] <= sign * m * null_step <= offs[-1]
    ]
    return GainProfile(
        offsets=offs,
        gain=gain,
        peak_offset=peak_offset,
        peak_gain=peak_gain,
        null_offsets=np.asarray(sorted(nulls), dtype=float),
    )


def null_offsets_analytic(num_elements: int, spacing: float, z0: float, wave: Wave, count: int) -> np.ndarray:
    """First ``count`` positive small-angle null offsets m * lambda * z0 / (N d).

    Multiples of N are skipped; there the array factor re-peaks instead of
    vanishing.
    """
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    null_step = wave.wavelength * z0 / (num_elements * spacing)
    out = []
    m = 0
    while len(out) < count:
        m += 1
        if m % num_elements == 0:
            continue
        out.append(m * null_step)
    return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class ScanReport:
    """Per-target focusing results for a set of focal points on the strip.

    ``achieved_peaks`` holds the refined (position, field magnitude) of the
    strongest response per target. ``grating_lobes`` aggregates, across all
    targets, refined secondary maxima whose level relative to that target's
    peak exceeds :data:`LOBE_THRESHOLD_DB`; ``lobe_counts`` gives the count
    per target in target order.
    """

    focal_targets: np.ndarray
    achieved_peaks: tuple[tuple[float, float], ...]
    position_errors: np.ndarray
    peak_spread_db: float
    grating_lobes: tuple[tuple[float, float], ...]
    lobe_counts: tuple[int, ...]


def scan_focal_points(scenario: FocusScenario, targets, strip_resolution: int = 16) -> ScanReport:
    """Refocus the array on each target and measure where the response lands.

    The T conjugate excitations are stacked into one (T, N) ``field_at``
    call, so the strip's propagation kernel is built once for all targets;
    each row equals that target's single-excitation field. Only peak
    refinement and the lobe search run per target.

    Parameters
    ----------
    scenario : FocusScenario
        Geometry; the receive strip fixes the search extent.
    targets : ndarray
        Intended focal x positions, finite and all within the strip.
    strip_resolution : int
        Field samples per wavelength along the strip, at least 8. The strip
        is sampled on a symmetric grid that always contains x = 0.

    Returns
    -------
    ScanReport
    """
    if strip_resolution < 8:
        raise ValueError(f"strip_resolution must be at least 8 samples per wavelength, got {strip_resolution!r}")
    tgts = np.atleast_1d(np.asarray(targets, dtype=float))
    if tgts.ndim != 1 or tgts.size == 0:
        raise ValueError("targets must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(tgts)):
        raise ValueError(f"targets must be finite, got {tgts.tolist()!r}")
    tx = scenario.tx
    z0 = scenario.focal_distance
    half = 0.5 * scenario.strip_extent
    if np.any(np.abs(tgts) > half):
        worst = float(tgts[np.argmax(np.abs(tgts))])
        raise ValueError(f"target {worst:.6g} m lies outside the strip half-extent {half:.6g} m")
    n_side = math.ceil(half * strip_resolution / tx.wave.wavelength)
    xs = np.linspace(-half, half, 2 * n_side + 1)
    excitations = np.stack([conjugate_excitation(tx, float(xt), z0) for xt in tgts])
    fields = np.abs(field_at(tx, excitations, xs, z0))

    peaks: list[tuple[float, float]] = []
    errors = np.empty_like(tgts)
    lobes: list[tuple[float, float]] = []
    counts: list[int] = []
    for it, (xt, mag) in enumerate(zip(tgts, fields)):
        ipk = int(np.argmax(mag))
        x_peak, m_peak = _refine_max(xs, mag, ipk, log_domain=True)
        peaks.append((x_peak, m_peak))
        errors[it] = x_peak - xt
        floor = m_peak * 10.0 ** (LOBE_THRESHOLD_DB / 20.0)
        n_lobes = 0
        for j in _local_maxima(mag):
            if j == ipk:
                continue
            x_lobe, m_lobe = _refine_max(xs, mag, int(j), log_domain=True)
            if m_lobe > floor:
                lobes.append((x_lobe, 20.0 * math.log10(m_lobe / m_peak)))
                n_lobes += 1
        counts.append(n_lobes)

    mags = np.array([m for _, m in peaks])
    spread_db = 20.0 * math.log10(float(np.max(mags)) / float(np.min(mags)))
    return ScanReport(
        focal_targets=tgts,
        achieved_peaks=tuple(peaks),
        position_errors=errors,
        peak_spread_db=spread_db,
        grating_lobes=tuple(lobes),
        lobe_counts=tuple(counts),
    )


@dataclass(frozen=True)
class AxialProfile:
    """On-axis field magnitude versus depth for a focus at (0, z0).

    ``z_peak`` is the refined global maximum of the sampled magnitude;
    maxima landing on a range boundary are reported at the boundary sample.
    ``focal_shift`` is z0 - z_peak, positive when the true peak sits closer
    to the array than the intended focus.
    """

    z_samples: np.ndarray
    magnitude: np.ndarray
    z_peak: float
    focal_shift: float


def axial_profile(scenario: FocusScenario, z_range: tuple[float, float], samples: int = 2001) -> AxialProfile:
    """Sample |E(0, z)| over a depth range for the center-focused array.

    The range must bracket the focal distance; the excitation stays fixed to
    the conjugate phases for (0, z0) while z varies.
    """
    z_min, z_max = (float(z_range[0]), float(z_range[1]))
    if not 0.0 < z_min < z_max:
        raise ValueError(f"z_range must satisfy 0 < z_min < z_max, got ({z_min!r}, {z_max!r})")
    z0 = scenario.focal_distance
    if not z_min <= z0 <= z_max:
        raise ValueError(f"z_range ({z_min:.6g}, {z_max:.6g}) must include the focal distance {z0:.6g}")
    if samples < 3:
        raise ValueError(f"samples must be at least 3, got {samples!r}")
    zs = np.linspace(z_min, z_max, samples)
    exc = conjugate_excitation(scenario.tx, 0.0, z0)
    mag = np.abs(field_at(scenario.tx, exc, 0.0, zs))
    ipk = int(np.argmax(mag))
    z_peak, _ = _refine_max(zs, mag, ipk, log_domain=True)
    return AxialProfile(
        z_samples=zs,
        magnitude=mag,
        z_peak=z_peak,
        focal_shift=z0 - z_peak,
    )
