"""Operating wave, array geometry, and element directivity patterns."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Free-space speed of light [m/s]."""


@dataclass(frozen=True)
class Wave:
    """Monochromatic free-space wave: frequency [Hz], wavelength [m], wavenumber [rad/m]."""

    frequency: float
    wavelength: float
    wavenumber: float


def _finite_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite positive number, not a bool or an int too large for a float."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value) and value > 0.0
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _int_at_least(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an int or NumPy integer, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _finite(name: str, values, dtype=float) -> np.ndarray:
    """``values`` converted to a ``dtype`` array; ValueError if it is a bool or bool array or has a non-finite
    entry or an int too large for a float. A mixed sequence such as ``(True, 2.0)`` converts as numbers and passes."""
    try:
        out = np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None
    if np.asarray(values).dtype == bool or not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def _field_points(x, z) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast field coordinates to float arrays; both must be finite and z positive."""
    xb, zb = np.broadcast_arrays(_finite("field points", x), _finite("field points", z))
    if np.any(zb <= 0.0):
        raise ValueError("field height z must be positive")
    return xb, zb


def _ascending_grid(name: str, values, min_size: int) -> np.ndarray:
    """``values`` as a finite, increasing 1-D float grid of ``min_size`` or more samples."""
    grid = _finite(name, values)
    if grid.ndim != 1 or grid.size < min_size:
        raise ValueError(f"{name} must be a 1-D grid of {min_size} or more samples")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError(f"{name} must be strictly ascending")
    return grid


def wave_from_frequency(frequency: float) -> Wave:
    """Build a :class:`Wave` from its frequency in hertz; its wavelength must be finite."""
    _finite_positive("frequency", frequency)
    wavelength = SPEED_OF_LIGHT / frequency
    _finite_positive("wavelength", wavelength)
    return Wave(
        frequency=float(frequency),
        wavelength=wavelength,
        wavenumber=2.0 * math.pi / wavelength,
    )


class ElementPattern(enum.Enum):
    """Element directivity variant, applied as a real amplitude factor per element."""

    ISOTROPIC = "isotropic"
    VERTICAL_DIPOLE = "vertical-dipole"
    HORIZONTAL_DIPOLE = "horizontal-dipole"
    PATCH = "patch"


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array along the x axis, centered on the origin."""

    wave: Wave
    num_elements: int
    spacing: float
    pattern: ElementPattern = ElementPattern.ISOTROPIC

    def __post_init__(self) -> None:
        _int_at_least("num_elements", self.num_elements)
        _finite_positive("spacing", self.spacing)

    @property
    def aperture(self) -> float:
        """Physical aperture length N*d [m]."""
        return self.num_elements * self.spacing


@dataclass(frozen=True)
class FocusScenario:
    """Transmit array focused toward a parallel receive strip at height z0.

    The receive strip is sampled like a second centered uniform array; its
    element count and spacing default to the transmit values when omitted.
    """

    tx: ArraySpec
    focal_distance: float
    rx_num: int | None = None
    rx_spacing: float | None = None

    def __post_init__(self) -> None:
        _finite_positive("focal_distance", self.focal_distance)
        if self.rx_num is None:
            object.__setattr__(self, "rx_num", self.tx.num_elements)
        if self.rx_spacing is None:
            object.__setattr__(self, "rx_spacing", self.tx.spacing)
        _int_at_least("rx_num", self.rx_num)
        _finite_positive("rx_spacing", self.rx_spacing)

    @property
    def strip_extent(self) -> float:
        """Receive strip length rx_num * rx_spacing [m]."""
        return self.rx_num * self.rx_spacing


def centered_positions(num: int, spacing: float) -> np.ndarray:
    """Positions x_n = (n - (N+1)/2) * d for n = 1..N, symmetric about the origin."""
    n = np.arange(1, num + 1, dtype=float)
    return (n - 0.5 * (num + 1)) * spacing


def element_positions(spec: ArraySpec) -> np.ndarray:
    """Element x coordinates of the array in meters."""
    return centered_positions(spec.num_elements, spec.spacing)


def _has_rolloff(pattern) -> bool:
    """Whether ``pattern`` applies the broadside cos^2 roll-off; unknown patterns raise."""
    if pattern in (ElementPattern.ISOTROPIC, ElementPattern.VERTICAL_DIPOLE):
        return False
    if pattern in (ElementPattern.HORIZONTAL_DIPOLE, ElementPattern.PATCH):
        return True
    raise ValueError(f"unknown element pattern {pattern!r}")


def _cos2(dx, z):
    """Broadside roll-off cos^2(theta) = z^2 / (z^2 + dx^2)."""
    return z * z / (z * z + dx * dx)


def pattern_factor(pattern, x_source, x_field, z):
    """Directivity amplitude of an element at ``x_source`` seen from ``(x_field, z)``.

    Isotropic and vertical-dipole variants radiate uniformly in the array
    plane and return 1. Horizontal-dipole and patch variants share the
    broadside cos^2(theta) = z^2 / (z^2 + dx^2) roll-off.

    Inputs broadcast; scalar inputs return a float.
    """
    xf, zz = _field_points(x_field, z)
    cos2 = _cos2(xf - _finite("x_source", x_source), zz)
    out = cos2 if _has_rolloff(pattern) else np.ones_like(cos2)
    if out.ndim == 0:
        return float(out)
    return out
