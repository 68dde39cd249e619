"""Gain profiles, small-angle reference, focal scanning, lobes, and axial peaks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus import (
    LOBE_THRESHOLD_DB,
    ArraySpec,
    ElementPattern,
    FocusScenario,
    axial_profile,
    conjugate_excitation,
    field_at,
    gain_exact,
    gain_paraxial,
    null_offsets_analytic,
    optimal_spacing,
    scan_focal_points,
    wave_from_frequency,
)
from nearfocus.focusing import _refine, _symmetric_grid

from _oracles import golden_max, field_magnitude


@pytest.fixture
def wave6():
    return wave_from_frequency(6e9)


def make_tx(wave, spacing_wl, num=40, pattern=ElementPattern.ISOTROPIC):
    return ArraySpec(
        wave=wave, num_elements=num, spacing=spacing_wl * wave.wavelength, pattern=pattern
    )


def offsets_grid(wave, half_span, step_wl=0.005):
    step = step_wl * wave.wavelength
    n = int(round(half_span / step))
    return np.linspace(-n, n, 2 * n + 1) * step


class TestRefinement:
    def test_parabola_vertex_recovers_quadratic(self):
        # y = 5 - (t - 0.3)^2 sampled at t = -1, 0, 1
        y = [5.0 - (t - 0.3) ** 2 for t in (-1.0, 0.0, 1.0)]
        frac, value = _refine(np.array([-1.0, 0.0, 1.0]), np.array(y), 1, log_domain=False)
        assert frac == pytest.approx(0.3, rel=1e-12)
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_refine_max_on_gaussian(self):
        x = np.linspace(-1.0, 1.0, 41)
        true_peak = 0.137
        y = np.exp(-((x - true_peak) ** 2) / 0.05)
        xp, yp = _refine(x, y, int(np.argmax(y)), log_domain=True)
        assert xp == pytest.approx(true_peak, abs=1e-9)
        assert yp == pytest.approx(1.0, rel=1e-9)

    def test_boundary_maxima_are_left_unrefined(self):
        x = np.linspace(0.0, 1.0, 11)
        y = np.linspace(0.0, 1.0, 11)
        xp, yp = _refine(x, y, 10, log_domain=True)
        assert xp == 1.0 and yp == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("log_domain", [True, False])
    def test_index_array_matches_each_index_alone(self, log_domain):
        # refinement is elementwise: refining many extrema at once gives each one's bits
        x = np.linspace(-1.0, 1.0, 12)
        # a smooth peak at 2, a flat triple at 5, and triples 7 to 9 hold a zero sample
        y = np.array([0.3, 0.9, 1.0, 0.7, 0.5, 0.5, 0.5, 0.8, 0.0, 0.6, 0.4, 0.2])
        indices = np.arange(12)
        positions, values = _refine(x, y, indices, log_domain=log_domain)
        assert positions.shape == values.shape == (12,)
        for j in indices:
            alone = _refine(x, y, int(j), log_domain=log_domain)
            assert all(type(v) is float for v in alone)
            assert (positions[j], values[j]) == alone
        assert positions[2] != x[2]  # the smooth peak is refined
        assert positions[5] == x[5]  # the flat triple keeps its center
        as_is = [0, 11, 7, 8, 9] if log_domain else [0, 11]
        np.testing.assert_array_equal(positions[as_is], x[as_is])
        np.testing.assert_array_equal(values[as_is], y[as_is])
        positions, values = _refine(x, y, np.array([], dtype=int), log_domain=log_domain)
        assert positions.shape == values.shape == (0,)
        assert positions.dtype == values.dtype == np.float64


class TestGainExact:
    def test_peak_at_center_with_value_near_count_times_greens(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 0.5)
        z0 = 200.0 * lam
        profile = gain_exact(tx, z0, offsets_grid(wave6, 3 * tx.spacing))
        assert abs(profile.peak_offset) < 0.005 * lam
        # with nearly equal element distances the peak approaches N |g(z0)|^2
        reference = 40.0 / (4.0 * math.pi * z0) ** 2
        assert profile.peak_gain == pytest.approx(reference, rel=5e-3)

    def test_single_element_profile_is_smooth(self, wave6):
        tx = make_tx(wave6, 0.5, num=1)
        z0 = 200.0 * wave6.wavelength
        profile = gain_exact(tx, z0, offsets_grid(wave6, 2.0 * wave6.wavelength))
        assert profile.null_offsets.size == 0
        assert abs(profile.peak_offset) < 0.005 * wave6.wavelength

    def test_profile_is_symmetric(self, wave6):
        tx = make_tx(wave6, 2.27)
        z0 = 200.0 * wave6.wavelength
        profile = gain_exact(tx, z0, offsets_grid(wave6, 3 * tx.spacing))
        np.testing.assert_allclose(profile.gain, profile.gain[::-1], rtol=1e-9)

    def test_rejects_bad_grids(self, wave6):
        tx = make_tx(wave6, 0.5)
        with pytest.raises(ValueError):
            gain_exact(tx, 1.0, np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            gain_exact(tx, 1.0, np.array([0.1, 0.0, 0.2]))
        with pytest.raises(ValueError, match="strictly ascending"):
            gain_exact(tx, 1.0, np.array([0.0, 0.1, 0.1, 0.2]))
        for bad in ([0.0, math.nan, 0.2], [-math.inf, 0.0, 0.2], [0.0, 0.1, math.inf], [0.0, 0.1, 10**400]):
            with pytest.raises(ValueError, match="finite"):
                gain_exact(tx, 1.0, np.array(bad))
            with pytest.raises(ValueError, match="finite"):
                gain_paraxial(40, tx.spacing, 1.0, wave6, np.array(bad))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z0", [-1.0, 0.0, math.nan, math.inf, pytest.param(10**400, id="huge-int")])
    def test_rejects_bad_focal_distance_by_name(self, wave6, z0):
        tx = make_tx(wave6, 0.5)
        with pytest.raises(ValueError, match="^z0 must be finite and positive"):
            gain_exact(tx, z0, np.linspace(-0.1, 0.1, 5))


class TestGainParaxial:
    def test_peak_value_equals_element_count(self, wave6):
        lam = wave6.wavelength
        profile = gain_paraxial(40, 0.5 * lam, 200.0 * lam, wave6, offsets_grid(wave6, 1.5 * lam))
        assert profile.peak_gain == pytest.approx(40.0, rel=1e-9)
        assert profile.peak_offset == pytest.approx(0.0, abs=1e-12)

    def test_first_null_matches_analytic_spacing(self, wave6):
        lam = wave6.wavelength
        z0 = 200.0 * lam
        profile = gain_paraxial(40, 0.5 * lam, z0, wave6, offsets_grid(wave6, 12.0 * lam, 0.01))
        assert profile.first_positive_null == pytest.approx(10.0 * lam, rel=1e-12)
        # grid route: the sampled gain dips toward zero at the analytic null
        i = int(np.argmin(np.abs(profile.offsets - 10.0 * lam)))
        assert profile.gain[i] < 1e-4 * profile.peak_gain

    def test_grating_centers_re_peak_to_element_count(self, wave6):
        lam = wave6.wavelength
        z0 = 200.0 * lam
        d = 0.5 * lam
        # delta at u = pi: N * lambda * z0 / (N d) from the null ladder
        grating = 40.0 * lam * z0 / (40.0 * d)
        offs = np.linspace(grating - 0.2 * lam, grating + 0.2 * lam, 801)
        profile = gain_paraxial(40, d, z0, wave6, offs)
        assert profile.peak_gain == pytest.approx(40.0, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        num=st.integers(min_value=2, max_value=64),
        spacing_wl=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        z0_wl=st.floats(min_value=20.0, max_value=1000.0, allow_nan=False),
    )
    def test_symmetric_in_offset(self, num, spacing_wl, z0_wl):
        wave = wave_from_frequency(6e9)
        lam = wave.wavelength
        offs = np.linspace(-3.0, 3.0, 241) * spacing_wl * lam
        profile = gain_paraxial(num, spacing_wl * lam, z0_wl * lam, wave, offs)
        np.testing.assert_allclose(profile.gain, profile.gain[::-1], rtol=1e-9, atol=1e-12)

    def test_rejects_bad_arguments(self, wave6):
        offs = np.linspace(-0.1, 0.1, 21)
        with pytest.raises(ValueError):
            gain_paraxial(40, -0.01, 1.0, wave6, offs)
        with pytest.raises(ValueError):
            gain_paraxial(40, 0.01, 0.0, wave6, offs)
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                gain_paraxial(40, bad, 1.0, wave6, offs)
            with pytest.raises(ValueError, match="finite"):
                gain_paraxial(40, 0.01, bad, wave6, offs)


class TestParaxialExactAgreement:
    @pytest.mark.parametrize("spacing_wl", [0.5, 1.0, 1.5, 2.0, 2.2360679775, 2.5])
    def test_peak_and_null_locations_agree(self, wave6, spacing_wl):
        lam = wave6.wavelength
        z0 = 200.0 * lam
        tx = make_tx(wave6, spacing_wl)
        first_null = lam * z0 / (40.0 * tx.spacing)
        offs = offsets_grid(wave6, max(3 * tx.spacing, 1.3 * first_null))
        exact = gain_exact(tx, z0, offs)
        parax = gain_paraxial(40, tx.spacing, z0, wave6, offs)
        step = offs[1] - offs[0]
        assert abs(exact.peak_offset - parax.peak_offset) < step
        # peak-normalized profiles evaluated at each other's peak stay within 1%
        cross_a = np.interp(parax.peak_offset, offs, exact.gain) / exact.peak_gain
        cross_b = np.interp(exact.peak_offset, offs, parax.gain) / parax.peak_gain
        assert cross_a == pytest.approx(1.0, abs=0.01)
        assert cross_b == pytest.approx(1.0, abs=0.01)
        rel = abs(exact.first_positive_null - parax.first_positive_null) / parax.first_positive_null
        assert rel < 0.02


class TestNullLadder:
    def test_first_five_nulls_skip_multiples_of_count(self, wave6):
        lam = wave6.wavelength
        z0 = 200.0 * lam
        step = lam * z0 / (4 * 0.5 * lam)
        nulls = null_offsets_analytic(4, 0.5 * lam, z0, wave6, count=5)
        np.testing.assert_allclose(nulls / step, [1.0, 2.0, 3.0, 5.0, 6.0], rtol=1e-12)

    def test_requires_positive_count(self, wave6):
        with pytest.raises(ValueError):
            null_offsets_analytic(4, 0.01, 1.0, wave6, count=0)
        with pytest.raises(ValueError, match="count must be an integer of at least 1"):
            null_offsets_analytic(4, 0.01, 1.0, wave6, count=2.5)
        with pytest.raises(ValueError, match="count must be an integer of at least 1"):
            null_offsets_analytic(4, 0.01, 1.0, wave6, count=True)
        assert null_offsets_analytic(4, 0.01, 1.0, wave6, count=np.int64(2)).shape == (2,)

    def test_keeps_nulls_on_grid_ends(self, wave6):
        # reach / step rounds to 2.9999999999999996 here, below the null index 3
        lam = wave6.wavelength
        num, d, z0 = 40, 0.5 * lam, 20.0 * lam
        step = lam * z0 / (num * d)
        offs = np.arange(-3, 4) * step
        profile = gain_paraxial(num, d, z0, wave6, offs)
        np.testing.assert_array_equal(profile.null_offsets, offs[offs != 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spacing", [1e308, 5e-324])
    def test_unrepresentable_null_step_raises(self, wave6, spacing):
        # N d overflows, or lambda z0 / (N d) does; neither may hang the ladder
        with pytest.raises(ValueError, match="null step must be finite and positive"):
            gain_paraxial(40, spacing, 1.0, wave6, np.linspace(-0.1, 0.1, 5))

    def test_single_element_has_no_nulls(self, wave6):
        # every m is a multiple of one, so no null exists to return
        with pytest.raises(ValueError, match="single element"):
            null_offsets_analytic(1, 0.01, 1.0, wave6, count=3)
        profile = gain_paraxial(1, 0.01, 1.0, wave6, np.linspace(-0.5, 0.5, 101))
        assert profile.null_offsets.shape == (0,)
        np.testing.assert_allclose(profile.gain, 1.0, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("num", [0, -3, 2.5])
    def test_rejects_bad_element_counts(self, wave6, num):
        offs = np.linspace(-0.1, 0.1, 21)
        with pytest.raises(ValueError, match="num_elements must be an integer of at least 1"):
            gain_paraxial(num, 0.01, 1.0, wave6, offs)
        with pytest.raises(ValueError, match="num_elements must be an integer of at least 1"):
            null_offsets_analytic(num, 0.01, 1.0, wave6, count=3)

    @pytest.mark.parametrize("num", [2, 3, 4, 40])
    @pytest.mark.parametrize("grid", ["linspace", "nulls-on-ends", "one-sided", "fine"])
    def test_ladder_matches_inline_reference(self, wave6, num, grid):
        # the two inline ladders the shared one replaced, kept as the reference
        lam = wave6.wavelength
        d, z0 = 0.7 * lam, 150.0 * lam
        step = lam * z0 / (num * d)
        offs = {
            "linspace": np.linspace(-9.3 * step, 9.3 * step, 301),
            "nulls-on-ends": np.arange(-23, 24) * step,
            "one-sided": np.linspace(1.5 * step, 17.0 * step, 50),
            "fine": np.arange(-400, 401) * (0.03 * step),
        }[grid]
        max_m = int(math.floor(max(abs(float(offs[0])), abs(float(offs[-1]))) / step))
        expected = sorted(
            sign * m * step
            for m in range(1, max_m + 1)
            if m % num != 0
            for sign in (-1.0, 1.0)
            if offs[0] <= sign * m * step <= offs[-1]
        )
        got = gain_paraxial(num, d, z0, wave6, offs).null_offsets
        assert np.array_equal(got, np.asarray(expected, dtype=float))
        first = []
        m = 0
        while len(first) < 12:
            m += 1
            if m % num != 0:
                first.append(m * step)
        assert np.array_equal(null_offsets_analytic(num, d, z0, wave6, count=12), np.asarray(first))


class TestSymmetricGrid:
    @pytest.mark.parametrize("n_side", [1, 2, 7, 8, 3621, 3622])
    def test_exact_mirror_with_zero_center(self, n_side):
        # the scan's step: the strip half-extent over n_side
        half = 0.5 * 1024 * 2.27 * 0.049965409666666664
        xs = _symmetric_grid(n_side, half / n_side)
        assert xs.shape == (2 * n_side + 1,)
        assert np.array_equal(xs[::-1], -xs)
        assert 0.0 in xs and xs[n_side] == 0.0
        assert np.all(np.diff(xs) > 0.0)
        assert xs[-1] == pytest.approx(half, rel=1e-14)


class TestScan:
    def test_center_target_has_negligible_error(self, wave6):
        tx = make_tx(wave6, 2.27)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * wave6.wavelength)
        report = scan_focal_points(scen, [0.0])
        assert abs(report.position_errors[0]) < 1e-4 * wave6.wavelength
        assert report.peak_spread_db == 0.0

    def test_errors_symmetric_under_target_negation(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 2.27)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * lam)
        xt = 10 * tx.spacing
        report = scan_focal_points(scen, [-xt, xt])
        step = lam / 16.0
        assert abs(report.position_errors[0] + report.position_errors[1]) < step

    def test_achieved_peaks_match_continuous_search(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 2.27)
        z0 = 200.0 * lam
        scen = FocusScenario(tx=tx, focal_distance=z0)
        xt = 5 * tx.spacing
        report = scan_focal_points(scen, [xt])
        x_ref, m_ref = golden_max(
            lambda x: field_magnitude(40, tx.spacing, wave6.wavenumber, z0, xt, x),
            xt - 2.0 * lam,
            xt + 2.0 * lam,
        )
        x_got, m_got = report.achieved_peaks[0]
        assert x_got == pytest.approx(x_ref, abs=lam / 16.0)
        assert m_got == pytest.approx(m_ref, rel=1e-4)

    def test_conjugate_excitation_maximizes_target_response(self, wave6):
        rng = np.random.default_rng(42)
        lam = wave6.wavelength
        tx = make_tx(wave6, 2.27)
        z0 = 200.0 * lam
        xt = 7.0 * lam
        best = abs(field_at(tx, conjugate_excitation(tx, xt, z0), xt, z0))
        for _ in range(100):
            random_phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 40))
            assert abs(field_at(tx, random_phases, xt, z0)) <= best + 1e-15

    def test_rejects_targets_outside_strip(self, wave6):
        tx = make_tx(wave6, 0.5)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * wave6.wavelength)
        with pytest.raises(ValueError, match="strip"):
            scan_focal_points(scen, [0.6 * scen.strip_extent])

    def test_rejects_coarse_resolution(self, wave6):
        tx = make_tx(wave6, 0.5)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * wave6.wavelength)
        with pytest.raises(ValueError):
            scan_focal_points(scen, [0.0], strip_resolution=4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [True, 8.5, 16.0, math.inf, math.nan, 7, np.int64(7)])
    def test_resolution_must_be_an_integer_of_at_least_8(self, wave6, bad):
        scen = FocusScenario(tx=make_tx(wave6, 0.5, num=4), focal_distance=10.0 * wave6.wavelength)
        with pytest.raises(ValueError, match="strip_resolution must be an integer of at least 8"):
            scan_focal_points(scen, [0.0], strip_resolution=bad)

    def test_numpy_integer_resolution_is_accepted(self, wave6):
        scen = FocusScenario(tx=make_tx(wave6, 0.5, num=4), focal_distance=10.0 * wave6.wavelength)
        report = scan_focal_points(scen, [0.0], strip_resolution=np.int64(8))
        assert report.achieved_peaks == scan_focal_points(scen, [0.0], strip_resolution=8).achieved_peaks

    # a bool is no position: True would otherwise focus at x = 1 m
    @pytest.mark.parametrize(
        "targets",
        [[0.0, math.nan], [0.0, math.inf], [0.0, -math.inf], True, [False, True], [0.0, 10**400]],
        ids=["nan", "inf", "-inf", "True", "bool-list", "huge-int"],
    )
    def test_rejects_non_finite_targets(self, wave6, targets):
        tx = make_tx(wave6, 0.5)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * wave6.wavelength)
        with pytest.raises(ValueError, match="targets must be finite"):
            scan_focal_points(scen, targets)

    @pytest.mark.parametrize("targets", [[], np.zeros((2, 2))], ids=["empty", "2-D"])
    def test_targets_must_be_a_non_empty_1d_sequence(self, wave6, targets):
        scen = FocusScenario(tx=make_tx(wave6, 0.5), focal_distance=200.0 * wave6.wavelength)
        with pytest.raises(ValueError, match="targets must be a non-empty 1-D sequence"):
            scan_focal_points(scen, targets)

    def test_peaks_match_per_target_field(self, wave6):
        # the scan contracts all targets against one kernel; each row must be
        # the field of that target's excitation alone
        lam = wave6.wavelength
        tx = make_tx(wave6, 2.27)
        z0 = 200.0 * lam
        scen = FocusScenario(tx=tx, focal_distance=z0)
        targets = [-6.0 * lam, 0.0, 11.0 * lam]
        report = scan_focal_points(scen, targets)
        half = 0.5 * scen.strip_extent
        n_side = math.ceil(half * 16 / lam)
        xs = _symmetric_grid(n_side, half / n_side)
        for xt, peak in zip(targets, report.achieved_peaks):
            mag = np.abs(field_at(tx, conjugate_excitation(tx, xt, z0), xs, z0))
            assert peak == _refine(xs, mag, int(np.argmax(mag)), log_domain=True)

    def test_lobe_levels_are_relative_to_each_target_peak(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 2.27)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * lam)
        report = scan_focal_points(scen, [0.0])
        assert len(report.grating_lobes) == report.lobe_counts[0]
        for _, level_db in report.grating_lobes:
            assert LOBE_THRESHOLD_DB < level_db < 0.0


class TestAxial:
    def test_single_element_peaks_at_range_start(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 0.5, num=1)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * lam)
        profile = axial_profile(scen, (20.0 * lam, 400.0 * lam), samples=2001)
        assert profile.z_peak == pytest.approx(20.0 * lam, rel=1e-12)
        assert profile.focal_shift == pytest.approx(180.0 * lam, rel=1e-12)

    def test_dense_array_peak_sits_before_focus(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 0.5)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * lam)
        profile = axial_profile(scen, (20.0 * lam, 400.0 * lam), samples=4001)
        assert profile.focal_shift > 0.0
        assert profile.z_peak / lam == pytest.approx(29.05085440293125, rel=1e-3)

    def test_magnitude_shape_matches_samples(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 0.5, num=4)
        scen = FocusScenario(tx=tx, focal_distance=10.0 * lam)
        profile = axial_profile(scen, (5.0 * lam, 20.0 * lam), samples=501)
        assert profile.z_samples.shape == (501,)
        assert profile.magnitude.shape == (501,)
        assert np.all(profile.magnitude > 0.0)

    def test_range_must_bracket_focus(self, wave6):
        lam = wave6.wavelength
        tx = make_tx(wave6, 0.5, num=4)
        scen = FocusScenario(tx=tx, focal_distance=10.0 * lam)
        with pytest.raises(ValueError, match="focal distance"):
            axial_profile(scen, (20.0 * lam, 40.0 * lam))
        with pytest.raises(ValueError):
            axial_profile(scen, (5.0 * lam, 4.0 * lam))
        with pytest.raises(ValueError):
            axial_profile(scen, (-1.0, 20.0 * lam))
        with pytest.raises(ValueError):
            axial_profile(scen, (5.0 * lam, 20.0 * lam), samples=2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [3.5, 101.0, True, 2, math.nan])
    def test_samples_must_be_an_integer_of_at_least_3(self, wave6, bad):
        lam = wave6.wavelength
        scen = FocusScenario(tx=make_tx(wave6, 0.5, num=4), focal_distance=10.0 * lam)
        with pytest.raises(ValueError, match="samples must be an integer of at least 3"):
            axial_profile(scen, (5.0 * lam, 20.0 * lam), samples=bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ends", [(5.0, math.inf), (math.nan, 20.0), (-math.inf, 20.0), (5.0, math.nan)])
    def test_range_ends_must_be_finite(self, wave6, ends):
        lam = wave6.wavelength
        scen = FocusScenario(tx=make_tx(wave6, 0.5, num=4), focal_distance=10.0 * lam)
        with pytest.raises(ValueError, match="z_range must be finite"):
            axial_profile(scen, tuple(e * lam for e in ends))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z_min", [-1.0, 0.0])
    def test_range_start_must_be_positive(self, wave6, z_min):
        lam = wave6.wavelength
        scen = FocusScenario(tx=make_tx(wave6, 0.5, num=4), focal_distance=10.0 * lam)
        with pytest.raises(ValueError, match="z_min must be finite and positive"):
            axial_profile(scen, (z_min, 20.0 * lam))

    def test_numpy_integer_samples_are_accepted(self, wave6):
        lam = wave6.wavelength
        scen = FocusScenario(tx=make_tx(wave6, 0.5, num=4), focal_distance=10.0 * lam)
        profile = axial_profile(scen, (5.0 * lam, 20.0 * lam), samples=np.int64(3))
        assert profile.z_samples.shape == (3,)

    def test_sparse_spacing_shifts_peak_outward(self, wave6):
        # with the spacing at its closed-form optimum the focal lobe itself
        # peaks past the half-wavelength case, measured on the focal lobe
        lam = wave6.wavelength
        z0 = 200.0 * lam
        d_opt = optimal_spacing(40, z0, wave6)
        dense = axial_profile(
            FocusScenario(tx=make_tx(wave6, 0.5), focal_distance=z0),
            (100.0 * lam, 400.0 * lam),
            samples=4001,
        )
        sparse = axial_profile(
            FocusScenario(tx=ArraySpec(wave=wave6, num_elements=40, spacing=d_opt), focal_distance=z0),
            (100.0 * lam, 400.0 * lam),
            samples=4001,
        )
        assert sparse.z_peak > dense.z_peak
        assert abs(sparse.focal_shift) < abs(dense.focal_shift)


def test_result_fields_are_plain_floats(wave6):
    # refined results are Python floats, never NumPy scalars
    lam = wave6.wavelength
    tx = make_tx(wave6, 2.27)
    z0 = 200.0 * lam
    offs = offsets_grid(wave6, 3 * tx.spacing)
    profiles = [gain_exact(tx, z0, offs), gain_paraxial(40, tx.spacing, z0, wave6, offs)]
    report = scan_focal_points(FocusScenario(tx=tx, focal_distance=z0), [-6.0 * lam, 0.0])
    axial = axial_profile(FocusScenario(tx=tx, focal_distance=z0), (100.0 * lam, 400.0 * lam), samples=501)
    assert report.grating_lobes
    values = [v for p in profiles for v in (p.peak_offset, p.peak_gain)]
    values += [v for pair in report.achieved_peaks + report.grating_lobes for v in pair]
    values += [axial.z_peak, axial.focal_shift]
    assert [type(v) for v in values] == [float] * len(values)
