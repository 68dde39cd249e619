"""Focusing gain profiles, focal-point scanning, lobe reporting, and axial analysis."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ArraySpec, FocusScenario, Wave, _ascending_grid, _finite, _finite_positive, _int_at_least
from .field import conjugate_excitation, field_at

LOBE_THRESHOLD_DB = -13.0
"""Secondary maxima within this range of the main peak are reported as lobes."""

_MIN_STRIP_RESOLUTION = 8  # least strip samples per wavelength; the config schema reads it
_MIN_AXIAL_SAMPLES = 3  # least depth samples of an axial profile; the config schema reads it


def _refine(x: np.ndarray, y: np.ndarray, indices, log_domain: bool = True):
    """Sub-step (position, value) of the sampled extrema ``y[indices]`` by parabolic interpolation.

    Each index j is refined on its own triple y[j-1 : j+2] with the vertex
    x[j] + frac * (x[j+1] - x[j]), so an index array gives every entry the
    bits it gets alone. A boundary sample is returned as-is; so is a triple
    with a non-positive sample in the log domain, where the vertex of the
    log samples is taken (closer to quadratic near a peak of a lobed
    magnitude pattern) and its value exponentiated. A flat triple keeps its
    center position. A single index gives two floats, an index array two
    float arrays of its shape.
    """
    j = np.asarray(indices, dtype=np.intp)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, len(y) - 1)
    # a neighbour on each side, found by a cast, not a comparison: NumPy's integer
    # comparison loops would add 128 kB of library code to a scan's peak RSS
    refine = (j - lo).astype(bool) & (hi - j).astype(bool)
    y0, y1, y2 = y[lo], y[j], y[hi]
    if log_domain:
        refine &= (y0 > 0.0) & (y1 > 0.0) & (y2 > 0.0)
        y0, y1, y2 = (np.log(np.where(refine, v, 1.0)) for v in (y0, y1, y2))
    denom = y0 - 2.0 * y1 + y2
    flat = denom == 0.0
    frac = np.where(flat, 0.0, 0.5 * (y0 - y2) / np.where(flat, 1.0, denom))
    vertex = np.where(flat, y1, y1 - 0.25 * (y0 - y2) * frac)
    positions = np.where(refine, x[j] + frac * (x[hi] - x[j]), x[j])
    values = np.where(refine, np.exp(vertex) if log_domain else vertex, y[j])
    if positions.ndim == 0:
        return float(positions), float(values)
    return positions, values


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of strict-from-the-left interior local maxima."""
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


def _symmetric_grid(n_side: int, step: float) -> np.ndarray:
    """Samples k * step, k = -n_side..n_side; integer multiples of the step make
    ``x[::-1] == -x`` hold bitwise and put the center sample exactly at zero."""
    return np.arange(-n_side, n_side + 1, dtype=float) * step


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
    _finite_positive("z0", z0)
    offs = _ascending_grid("offsets", offsets, 3)
    exc = conjugate_excitation(tx, 0.0, z0)
    e = field_at(tx, exc, offs, z0)
    gain = np.abs(e) ** 2 / tx.num_elements
    peak_offset, peak_gain = _refine(offs, gain, np.argmax(gain))
    return GainProfile(
        offsets=offs,
        gain=gain,
        peak_offset=peak_offset,
        peak_gain=peak_gain,
        null_offsets=_refine(offs, -gain, _local_maxima(-gain), log_domain=False)[0],
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


def _null_ladder(num_elements: int, spacing: float, z0: float, wave: Wave, reach: float = math.inf):
    """Ascending small-angle null offsets m * step, step = lambda * z0 / (N d), for
    integers m >= 1 with m * step <= reach that are not multiples of N (one element has none)."""
    _int_at_least("num_elements", num_elements)
    _finite_positive("spacing", spacing)
    _finite_positive("z0", z0)
    null_step = wave.wavelength * z0 / (num_elements * spacing)
    _finite_positive("null step", null_step)
    ms = itertools.takewhile(lambda m: num_elements > 1 and m * null_step <= reach, itertools.count(1))
    return (m * null_step for m in ms if m % num_elements != 0)


def gain_paraxial(num_elements: int, spacing: float, z0: float, wave: Wave, offsets) -> GainProfile:
    """Small-angle focusing gain G = (1/N) [sin(N u) / sin(u)]^2, u = k d delta / (2 z0).

    The ratio of sines is evaluated by its limit +-N wherever the denominator
    vanishes, which covers both the main peak and grating-lobe centers. Null
    offsets are analytic: integer multiples of lambda z0 / (N d), skipping
    multiples of N where the pattern peaks instead of vanishing.
    """
    offs = _ascending_grid("offsets", offsets, 3)
    ladder = _null_ladder(num_elements, spacing, z0, wave, max(abs(float(offs[0])), abs(float(offs[-1]))))
    ratio = _sine_ratio(num_elements, 0.5 * wave.wavenumber * spacing * offs / z0)
    gain = ratio * ratio / num_elements
    peak_offset, peak_gain = _refine(offs, gain, np.argmax(gain))
    positive = np.fromiter(ladder, dtype=float)
    nulls = np.concatenate((-positive[::-1], positive))
    return GainProfile(
        offsets=offs,
        gain=gain,
        peak_offset=peak_offset,
        peak_gain=peak_gain,
        null_offsets=nulls[(offs[0] <= nulls) & (nulls <= offs[-1])],
    )


def null_offsets_analytic(num_elements: int, spacing: float, z0: float, wave: Wave, count: int) -> np.ndarray:
    """First ``count`` positive small-angle null offsets m * lambda * z0 / (N d).

    Multiples of N are skipped; there the array factor re-peaks instead of
    vanishing. A single element has no nulls, so N = 1 raises ValueError.
    """
    _int_at_least("count", count)
    ladder = _null_ladder(num_elements, spacing, z0, wave)
    if num_elements == 1:
        raise ValueError("a single element has no nulls")
    return np.fromiter(ladder, dtype=float, count=count)


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
    call on the mirrored strip grid, which builds half the propagation
    kernel once for all targets; each row has the bits of that target's
    single-excitation field. Per target, one call refines the peak and one
    every other local maximum; those above the floor are its lobes.

    Parameters
    ----------
    scenario : FocusScenario
        Geometry; the receive strip fixes the search extent.
    targets : ndarray
        Intended focal x positions, finite and all within the strip.
    strip_resolution : int
        Field samples per wavelength, an integer (not a bool or float) of at
        least 8, on an exactly mirror-symmetric strip grid that contains x = 0.

    Returns
    -------
    ScanReport
    """
    _int_at_least("strip_resolution", strip_resolution, _MIN_STRIP_RESOLUTION)
    tgts = np.atleast_1d(_finite("targets", targets))
    if tgts.ndim != 1 or tgts.size == 0:
        raise ValueError("targets must be a non-empty 1-D sequence")
    tx = scenario.tx
    z0 = scenario.focal_distance
    half = 0.5 * scenario.strip_extent
    if np.any(np.abs(tgts) > half):
        worst = float(tgts[np.argmax(np.abs(tgts))])
        raise ValueError(f"target {worst:.6g} m lies outside the strip half-extent {half:.6g} m")
    n_side = math.ceil(half * strip_resolution / tx.wave.wavelength)
    xs = _symmetric_grid(n_side, half / n_side)
    excitations = np.stack([conjugate_excitation(tx, float(xt), z0) for xt in tgts])
    fields = np.abs(field_at(tx, excitations, xs, z0))

    peaks: list[tuple[float, float]] = []
    lobes: list[tuple[float, float]] = []
    counts: list[int] = []
    for mag in fields:
        ipk = np.argmax(mag)
        x_peak, m_peak = _refine(xs, mag, ipk)
        peaks.append((x_peak, m_peak))
        maxima = _local_maxima(mag)
        # every maximum but the peak, selected by a cast as in _refine
        x_lobe, m_lobe = _refine(xs, mag, maxima[(maxima - ipk).astype(bool)])
        above = m_lobe > m_peak * 10.0 ** (LOBE_THRESHOLD_DB / 20.0)
        lobes.extend((float(x), 20.0 * math.log10(m / m_peak)) for x, m in zip(x_lobe[above], m_lobe[above]))
        counts.append(int(np.count_nonzero(above)))

    positions, mags = np.array(peaks).T
    spread_db = 20.0 * math.log10(float(np.max(mags)) / float(np.min(mags)))
    return ScanReport(
        focal_targets=tgts,
        achieved_peaks=tuple(peaks),
        position_errors=positions - tgts,
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

    The range (z_min, z_max) must be finite, positive, ascending and bracket
    the focal distance, and ``samples`` an integer (not a bool or float) of at
    least 3. The excitation stays fixed to the conjugate phases for (0, z0).
    """
    z_min, z_max = map(float, _ascending_grid("z_range", z_range, 2))
    _finite_positive("z_min", z_min)
    z0 = scenario.focal_distance
    if not z_min <= z0 <= z_max:
        raise ValueError(f"z_range ({z_min:.6g}, {z_max:.6g}) must include the focal distance {z0:.6g}")
    _int_at_least("samples", samples, _MIN_AXIAL_SAMPLES)
    zs = np.linspace(z_min, z_max, samples)
    exc = conjugate_excitation(scenario.tx, 0.0, z0)
    mag = np.abs(field_at(scenario.tx, exc, 0.0, zs))
    z_peak, _ = _refine(zs, mag, np.argmax(mag))
    return AxialProfile(
        z_samples=zs,
        magnitude=mag,
        z_peak=z_peak,
        focal_shift=z0 - z_peak,
    )
