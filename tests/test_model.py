"""Wave quantities, array geometry, and element patterns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus import (
    SPEED_OF_LIGHT,
    ArraySpec,
    ElementPattern,
    FocusScenario,
    centered_positions,
    element_positions,
    optimal_spacing,
    pattern_factor,
    wave_from_frequency,
)


@pytest.fixture
def wave6():
    return wave_from_frequency(6e9)


def test_wave_quantities_at_6ghz(wave6):
    assert wave6.frequency == 6e9
    assert wave6.wavelength == pytest.approx(SPEED_OF_LIGHT / 6e9, rel=1e-15)
    assert wave6.wavelength == pytest.approx(0.049965409666666664, rel=1e-12)
    assert wave6.wavenumber == pytest.approx(2.0 * math.pi / wave6.wavelength, rel=1e-15)


@pytest.mark.parametrize(
    "bad", [0.0, -1.0, -6e9, math.inf, -math.inf, math.nan, pytest.param(10**400, id="huge-int")]
)
def test_wave_rejects_nonpositive_frequency(bad):
    with pytest.raises(ValueError):
        wave_from_frequency(bad)


@pytest.mark.parametrize("low", [1e-300, 5e-324])
def test_wave_rejects_frequency_with_infinite_wavelength(low):
    with pytest.raises(ValueError, match="wavelength must be finite"):
        wave_from_frequency(low)


def test_positions_small_arrays():
    np.testing.assert_allclose(centered_positions(4, 2.0), [-3.0, -1.0, 1.0, 3.0])
    np.testing.assert_allclose(centered_positions(1, 0.7), [0.0])
    np.testing.assert_allclose(centered_positions(3, 1.0), [-1.0, 0.0, 1.0])


def test_element_positions_match_spec_geometry(wave6):
    tx = ArraySpec(wave=wave6, num_elements=40, spacing=0.5 * wave6.wavelength)
    x = element_positions(tx)
    assert x.shape == (40,)
    assert x[0] == pytest.approx(-19.5 * 0.5 * wave6.wavelength)
    assert x[-1] == pytest.approx(19.5 * 0.5 * wave6.wavelength)


@settings(max_examples=100, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=200),
    spacing=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
)
def test_positions_are_antisymmetric_and_uniform(num, spacing):
    x = centered_positions(num, spacing)
    assert len(x) == num
    np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-12 * num * spacing)
    if num > 1:
        np.testing.assert_allclose(np.diff(x), spacing, rtol=1e-12)
    assert abs(float(np.sum(x))) <= 1e-12 * num * spacing


def test_array_spec_validation(wave6):
    with pytest.raises(ValueError):
        ArraySpec(wave=wave6, num_elements=0, spacing=0.01)
    with pytest.raises(ValueError):
        ArraySpec(wave=wave6, num_elements=4, spacing=0.0)
    with pytest.raises(ValueError):
        ArraySpec(wave=wave6, num_elements=4, spacing=-0.01)
    for bad in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="finite"):
            ArraySpec(wave=wave6, num_elements=4, spacing=bad)


def test_aperture_is_count_times_spacing(wave6):
    tx = ArraySpec(wave=wave6, num_elements=40, spacing=0.1)
    assert tx.aperture == pytest.approx(4.0)


def test_scenario_defaults_receive_side_to_transmit(wave6):
    tx = ArraySpec(wave=wave6, num_elements=40, spacing=0.1)
    scen = FocusScenario(tx=tx, focal_distance=10.0)
    assert scen.rx_num == 40
    assert scen.rx_spacing == pytest.approx(0.1)
    assert scen.strip_extent == pytest.approx(4.0)


def test_scenario_accepts_independent_receive_strip(wave6):
    tx = ArraySpec(wave=wave6, num_elements=40, spacing=0.02)
    scen = FocusScenario(tx=tx, focal_distance=10.0, rx_num=64, rx_spacing=0.1)
    assert scen.rx_num == 64
    assert scen.strip_extent == pytest.approx(6.4)


def test_scenario_validation(wave6):
    tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.1)
    with pytest.raises(ValueError):
        FocusScenario(tx=tx, focal_distance=0.0)
    with pytest.raises(ValueError):
        FocusScenario(tx=tx, focal_distance=1.0, rx_num=0)
    with pytest.raises(ValueError):
        FocusScenario(tx=tx, focal_distance=1.0, rx_spacing=-0.1)
    for bad in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="finite"):
            FocusScenario(tx=tx, focal_distance=bad)
        with pytest.raises(ValueError, match="finite"):
            FocusScenario(tx=tx, focal_distance=1.0, rx_spacing=bad)


def test_pattern_factor_is_one_at_broadside():
    for pattern in ElementPattern:
        assert pattern_factor(pattern, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=0.0)


def test_cos_squared_rolloff_value():
    # z = 200, transverse offset 20: z^2 / (z^2 + dx^2) = 40000 / 40400
    expected = 40000.0 / 40400.0
    got = pattern_factor(ElementPattern.HORIZONTAL_DIPOLE, 0.0, 20.0, 200.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.9900990099009901, rel=1e-12)


def test_omnidirectional_variants_are_flat():
    dx = np.linspace(-50.0, 50.0, 101)
    for pattern in (ElementPattern.ISOTROPIC, ElementPattern.VERTICAL_DIPOLE):
        np.testing.assert_array_equal(pattern_factor(pattern, 0.0, dx, 5.0), 1.0)


def test_directional_variants_share_the_same_rolloff():
    dx = np.linspace(-50.0, 50.0, 257)
    a = pattern_factor(ElementPattern.HORIZONTAL_DIPOLE, 0.0, dx, 7.0)
    b = pattern_factor(ElementPattern.PATCH, 0.0, dx, 7.0)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(
    x_source=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    x_field=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    z=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    pattern=st.sampled_from(list(ElementPattern)),
)
def test_pattern_factor_bounded_and_positive(x_source, x_field, z, pattern):
    value = pattern_factor(pattern, x_source, x_field, z)
    assert 0.0 < value <= 1.0


def test_pattern_factor_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        pattern_factor(ElementPattern.PATCH, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        pattern_factor(ElementPattern.ISOTROPIC, 0.0, 1.0, -2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pattern", [ElementPattern.ISOTROPIC, ElementPattern.PATCH])
@pytest.mark.parametrize("point", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)])
def test_pattern_factor_rejects_non_finite_point(pattern, point):
    with pytest.raises(ValueError, match="finite"):
        pattern_factor(pattern, 0.0, *point)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad", [0, -3, 2.5, 4.0, "4", True, False, pytest.param(np.float64(4.0), id="np-float64-4.0")]
)
def test_integer_counts_are_validated(wave6, bad):
    with pytest.raises(ValueError, match="num_elements must be an integer of at least 1"):
        ArraySpec(wave=wave6, num_elements=bad, spacing=0.01)
    tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.01)
    with pytest.raises(ValueError, match="rx_num must be an integer of at least 1"):
        FocusScenario(tx=tx, focal_distance=1.0, rx_num=bad)


@pytest.mark.parametrize("bad", [True, False, np.True_], ids=["True", "False", "np-True"])
@pytest.mark.parametrize("name", ["spacing", "focal_distance", "rx_spacing", "optimal_spacing-focal_distance"])
def test_quantities_reject_bools(wave6, name, bad):
    tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.01)
    build = {
        "spacing": lambda: ArraySpec(wave=wave6, num_elements=4, spacing=bad),
        "focal_distance": lambda: FocusScenario(tx=tx, focal_distance=bad),
        "rx_spacing": lambda: FocusScenario(tx=tx, focal_distance=1.0, rx_spacing=bad),
        "optimal_spacing-focal_distance": lambda: optimal_spacing(4, bad, wave6),
    }[name]
    with pytest.raises(ValueError, match=f"^{name.split('-')[-1]} must be finite and positive, got"):
        build()


def test_integer_counts_accept_numpy_integers(wave6):
    tx = ArraySpec(wave=wave6, num_elements=np.int64(4), spacing=0.01)
    assert FocusScenario(tx=tx, focal_distance=1.0, rx_num=np.int32(3)).strip_extent == pytest.approx(0.03)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pattern", [ElementPattern.ISOTROPIC, ElementPattern.PATCH])
@pytest.mark.parametrize(
    "x_source",
    [math.nan, math.inf, -math.inf, [0.0, math.nan], True, np.array([False, True])]
    + [pytest.param(10**400, id="huge-int")],
)
def test_pattern_factor_rejects_non_finite_source(pattern, x_source):
    with pytest.raises(ValueError, match="x_source must be finite"):
        pattern_factor(pattern, x_source, 0.0, 1.0)
