"""Green's-function propagation, conjugate excitation, and channel assembly."""

import math
import os
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus import (
    ArraySpec,
    ElementPattern,
    FocusScenario,
    SingularDistanceError,
    Wave,
    centered_positions,
    channel_matrix,
    conjugate_excitation,
    element_positions,
    field_at,
    greens,
    pattern_factor,
    wave_from_frequency,
)
from nearfocus import field

from _oracles import field_magnitude


def make_wave(wavelength: float) -> Wave:
    return Wave(
        frequency=299792458.0 / wavelength,
        wavelength=wavelength,
        wavenumber=2.0 * math.pi / wavelength,
    )


@pytest.fixture
def wave6():
    return wave_from_frequency(6e9)


def set_cpus(monkeypatch, count: int) -> None:
    """Make the process's affinity set, which sizes the block workers, ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestGreens:
    def test_quarter_meter_at_5cm_wavelength(self):
        # r = 5 wavelengths: phase is a whole number of turns, amplitude 1/pi
        wave = make_wave(0.05)
        g = greens(0.25, wave)
        assert g.real == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert g.imag == pytest.approx(0.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        wave = make_wave(0.05)
        r = np.array([0.05, 0.25, 1.0, 3.7])
        vec = greens(r, wave)
        # a float64 array reaches the kernel as-is, so the kernel must not write into it
        np.testing.assert_array_equal(r, [0.05, 0.25, 1.0, 3.7])
        for i, ri in enumerate(r):
            assert vec[i] == greens(float(ri), wave)

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))
    def test_magnitude_is_inverse_distance_over_4pi(self, r):
        wave = make_wave(0.05)
        assert abs(greens(r, wave)) == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-12)

    def test_guard_rejects_near_singular_distance(self):
        wave = make_wave(0.05)
        with pytest.raises(SingularDistanceError):
            greens(0.99 * 0.01 * wave.wavelength, wave)
        # exactly at the guard is allowed
        greens(0.01 * wave.wavelength, wave)

    @pytest.mark.filterwarnings("error")
    # a bool is no distance: True would otherwise give the gain at r = 1 m; 10**400 overflows a float
    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, np.array([1.0, math.nan]), True, np.array([True])]
        + [pytest.param(10**400, id="huge-int")],
    )
    def test_rejects_non_finite_distance(self, bad):
        with pytest.raises(ValueError, match="finite"):
            greens(bad, make_wave(0.05))

    def test_guard_reports_offending_distance(self):
        wave = make_wave(0.05)
        with pytest.raises(SingularDistanceError, match="guard"):
            greens(np.array([1.0, 1e-6]), wave)

    def test_phase_matches_complex_exponential(self):
        # the phase comes from cos and sin of k r; it must stay within one ulp of exp(-j k r)
        wave = make_wave(0.05)
        r = np.random.default_rng(11).uniform(0.01 * wave.wavelength, 1e3, 200_000)
        ref = np.exp(-1j * wave.wavenumber * r) / (4.0 * np.pi * r)
        got = greens(r, wave)
        np.testing.assert_array_max_ulp(got.real, ref.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, ref.imag, maxulp=1)
        for r0 in (float(r[0]), r[1], np.asarray(r[2])):
            g = greens(r0, wave)
            assert type(g) is complex
            want = np.exp(-1j * wave.wavenumber * float(r0)) / (4.0 * np.pi * float(r0))
            np.testing.assert_array_max_ulp(np.array([g.real, g.imag]), np.array([want.real, want.imag]), maxulp=1)


class TestConjugateExcitation:
    def test_unit_magnitude(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=40, spacing=2.27 * wave6.wavelength)
        exc = conjugate_excitation(tx, 0.3, 10.0)
        np.testing.assert_allclose(np.abs(exc), 1.0, rtol=1e-15)

    def test_rejects_nonpositive_height(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.01)
        with pytest.raises(ValueError):
            conjugate_excitation(tx, 0.0, 0.0)

    # a bool is no coordinate: True would otherwise focus at x = 1 m
    @pytest.mark.parametrize(
        "focus",
        [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)]
        + [(True, 1.0), (False, 1.0), (np.True_, 1.0), (0.0, True), (10**400, 1.0)],
    )
    def test_rejects_non_finite_focus(self, wave6, focus):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.01)
        with pytest.raises(ValueError, match="finite"):
            conjugate_excitation(tx, *focus)

    @settings(max_examples=100, deadline=None)
    @given(
        num=st.integers(min_value=1, max_value=64),
        spacing_wl=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
        z0_wl=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        focus_frac=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        pattern=st.sampled_from(list(ElementPattern)),
    )
    def test_phase_alignment_at_focus(self, num, spacing_wl, z0_wl, focus_frac, pattern):
        wave = make_wave(0.05)
        tx = ArraySpec(wave=wave, num_elements=num, spacing=spacing_wl * wave.wavelength, pattern=pattern)
        z0 = z0_wl * wave.wavelength
        focus_x = focus_frac * tx.aperture
        exc = conjugate_excitation(tx, focus_x, z0)
        e = field_at(tx, exc, focus_x, z0)
        xn = element_positions(tx)
        r = np.hypot(focus_x - xn, z0)
        pf = pattern_factor(pattern, xn, focus_x, z0)
        expected = float(np.sum(pf / (4.0 * math.pi * r)))
        assert abs(np.angle(e)) < 1e-9
        assert abs(e) == pytest.approx(expected, rel=1e-12)


class TestFieldAt:
    def test_scalar_and_array_forms_agree(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=8, spacing=0.6 * wave6.wavelength)
        exc = conjugate_excitation(tx, 0.0, 1.0)
        xs = np.linspace(-0.1, 0.1, 7)
        vec = field_at(tx, exc, xs, 1.0)
        for i, x in enumerate(xs):
            assert vec[i] == field_at(tx, exc, float(x), 1.0)

    def test_broadcasts_over_depth(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=8, spacing=0.6 * wave6.wavelength)
        exc = conjugate_excitation(tx, 0.0, 1.0)
        zs = np.linspace(0.5, 2.0, 5)
        vec = field_at(tx, exc, 0.0, zs)
        for i, z in enumerate(zs):
            assert vec[i] == field_at(tx, exc, 0.0, float(z))

    def test_linearity_in_excitation(self, wave6):
        rng = np.random.default_rng(7)
        tx = ArraySpec(wave=wave6, num_elements=16, spacing=0.5 * wave6.wavelength)
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        xs = np.linspace(-0.3, 0.3, 11)
        lhs = field_at(tx, a + b, xs, 2.0)
        rhs = field_at(tx, a, xs, 2.0) + field_at(tx, b, xs, 2.0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_matches_independent_summation(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=40, spacing=2.27 * wave6.wavelength)
        z0 = 200.0 * wave6.wavelength
        focus_x = 5.0 * tx.spacing
        exc = conjugate_excitation(tx, focus_x, z0)
        for x in (0.0, focus_x, -3.3 * wave6.wavelength):
            got = abs(field_at(tx, exc, x, z0))
            ref = field_magnitude(40, tx.spacing, wave6.wavenumber, z0, focus_x, x)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_single_element_is_weight_times_greens(self, wave6):
        # one isotropic element: each value is the complex product w * G(r), bit for bit
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=1, spacing=lam)
        w = 0.8 * np.exp(2.1j)
        xs = centered_positions(9, 2.3 * lam)
        want = [w * greens(math.hypot(x, 30.0 * lam), wave6) for x in xs]
        assert field_at(tx, [w], xs, 30.0 * lam).tolist() == want

    def test_rejects_wrong_excitation_length(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=8, spacing=0.03)
        for shape in [(7,), (2, 7), (2, 2, 8)]:
            with pytest.raises(ValueError, match="expected"):
                field_at(tx, np.ones(shape, dtype=complex), 0.0, 1.0)

    def test_rejects_nonpositive_height(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        with pytest.raises(ValueError):
            field_at(tx, np.ones(4, dtype=complex), 0.0, -1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "point",
        [(0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (True, 1.0), (0.0, np.True_)]
        + [(10**400, 1.0)],
    )
    def test_rejects_non_finite_point(self, wave6, point):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        with pytest.raises(ValueError, match="finite"):
            field_at(tx, np.ones(4, dtype=complex), *point)
        # one bad sample among good ones, in a stacked call; a bool sample comes in a bool array,
        # since NumPy converts a bool among floats to a number
        x = np.array([0.0, point[0], 0.1], dtype=np.asarray(point[0]).dtype)
        z = np.array([1.0, point[1], 1.0], dtype=np.asarray(point[1]).dtype)
        with pytest.raises(ValueError, match="finite"):
            field_at(tx, np.ones((2, 4), dtype=complex), x, z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 0.0), False]
    )
    @pytest.mark.parametrize("stacked", [False, True])
    def test_rejects_non_finite_excitation(self, wave6, bad, stacked):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        # a bool array is no excitation: True would otherwise weight an element by 1
        exc = np.ones((2, 4) if stacked else 4, dtype=bool if isinstance(bad, bool) else complex)
        exc.flat[-2] = bad
        with pytest.raises(ValueError, match="excitation must be finite"):
            field_at(tx, exc, 0.0, 1.0)

    def test_guard_identifies_singular_point(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        with pytest.raises(SingularDistanceError, match="field_at"):
            field_at(tx, np.ones(4, dtype=complex), tx.spacing * 1.5, 1e-7)

    def test_guard_index_is_in_caller_shape_across_blocks(self, wave6, monkeypatch):
        # three points per block on two workers: point (3, 2) is flat point 17, in the sixth block, the second
        # worker's third
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(field, "KERNEL_BLOCK_BYTES", 2 * 3 * 16 * 4)
        xs = np.linspace(-0.2, 0.2, 5) * np.ones((4, 1))
        zs = np.ones((4, 5))
        xs[3, 2] = element_positions(tx)[1]
        zs[3, 2] = 1e-7
        with pytest.raises(SingularDistanceError, match=r"field_at: .* at index \(3, 2, 1\)"):
            field_at(tx, np.ones(4, dtype=complex), xs, zs)

    def test_guard_on_mirrored_grid_names_a_singular_pair(self, wave6):
        # a singular point on the negative side of a mirrored (2, 3) grid; the
        # kernel is built for the second half only, so the guard meets its twin
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        xn = element_positions(tx)
        xs = np.array([xn[0], -0.02, -0.01, 0.01, 0.02, -xn[0]]).reshape(2, 3)
        zs = np.array([1e-7, 1.0, 1.0, 1.0, 1.0, 1e-7]).reshape(2, 3)
        assert np.array_equal(xs.ravel()[::-1], -xs.ravel()) and np.array_equal(zs.ravel()[::-1], zs.ravel())
        with pytest.raises(SingularDistanceError, match="field_at") as err:
            field_at(tx, np.ones((2, 4), dtype=complex), xs, zs)
        i, j, n = map(int, re.search(r"at index \((\d+), (\d+), (\d+)\)", str(err.value)).groups())
        r = math.hypot(xs[i, j] - xn[n], zs[i, j])
        assert r < field.MIN_DISTANCE_FRACTION * wave6.wavelength
        assert f"distance {r:.6e} m" in str(err.value)

    def test_focus_dominates_strip(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=40, spacing=2.27 * wave6.wavelength)
        z0 = 200.0 * wave6.wavelength
        exc = conjugate_excitation(tx, 0.0, z0)
        xs = np.linspace(-0.5 * tx.aperture, 0.5 * tx.aperture, 4001)
        mags = np.abs(field_at(tx, exc, xs, z0))
        assert abs(field_at(tx, exc, 0.0, z0)) >= np.max(mags) - 1e-15


class TestChannelMatrix:
    def test_shape_and_finiteness(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=40, spacing=0.5 * wave6.wavelength)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * wave6.wavelength, rx_num=24, rx_spacing=0.1)
        h = channel_matrix(scen)
        assert h.shape == (24, 40)
        assert np.all(np.isfinite(h.entries))

    def test_entry_magnitude_bounds_half_wavelength_square(self, wave6):
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=40, spacing=0.5 * lam)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * lam)
        h = np.abs(channel_matrix(scen).entries)
        r_far = math.hypot(39 * 0.5 * lam, 200.0 * lam)
        lo = 1.0 / (4.0 * math.pi * r_far)
        hi = 1.0 / (4.0 * math.pi * 200.0 * lam)
        assert np.all(h >= lo - 1e-18)
        assert np.all(h <= hi + 1e-18)

    def test_entries_match_single_element_field(self, wave6):
        lam = wave6.wavelength
        # (N, d, z0, rx_num, rx_spacing, rtol): a strip of its own count and
        # spacing, then one that copies the array and is gathered by lag
        cases = [(6, 1.3 * lam, 30.0 * lam, 5, 0.7 * lam, 1e-13), (40, 2.27 * lam, 200.0 * lam, None, None, 1e-12)]
        for pattern in ElementPattern:
            for num, d, z0, rx_num, rx_spacing, rtol in cases:
                tx = ArraySpec(wave=wave6, num_elements=num, spacing=d, pattern=pattern)
                h = channel_matrix(FocusScenario(tx=tx, focal_distance=z0, rx_num=rx_num, rx_spacing=rx_spacing))
                cols = field_at(tx, np.eye(num), h.rx_positions, z0)
                np.testing.assert_allclose(h.entries, cols.T, rtol=rtol, err_msg=f"{pattern} N={num}")
                if rx_num is not None:  # an unmatched strip is built from the same kernel rows as field_at's
                    assert np.array_equal(h.entries, cols.T), f"{pattern} N={num}"

    @pytest.mark.parametrize("num", [1, 2, 40])
    @pytest.mark.parametrize("pattern", [ElementPattern.ISOTROPIC, ElementPattern.PATCH])
    def test_matched_strip_is_gathered_by_lag(self, wave6, num, pattern):
        tx = ArraySpec(wave=wave6, num_elements=num, spacing=0.8 * wave6.wavelength, pattern=pattern)
        scen = FocusScenario(tx=tx, focal_distance=20.0 * wave6.wavelength)
        h = channel_matrix(scen).entries
        assert h.shape == (num, num)
        assert h.flags.c_contiguous and h.flags.owndata and h.flags.writeable
        # the strip ends are evaluated per pair; every other row repeats them by lag
        ends = field_at(tx, np.eye(num), element_positions(tx)[[0, -1]], scen.focal_distance).T
        assert np.array_equal(h[[0, -1]], ends)
        for lag in range(1 - num, num):
            assert np.all(np.diagonal(h, -lag) == (ends[0, -lag] if lag <= 0 else ends[1, num - 1 - lag]))
        if num == 1:
            assert h[0, 0] == greens(scen.focal_distance, wave6)

    def test_centro_symmetry_for_symmetric_scenario(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=12, spacing=0.8 * wave6.wavelength)
        scen = FocusScenario(tx=tx, focal_distance=40.0 * wave6.wavelength, rx_num=9, rx_spacing=0.5 * wave6.wavelength)
        h = channel_matrix(scen).entries
        np.testing.assert_allclose(h, h[::-1, ::-1], rtol=1e-13)
        # effective_dof folds only an exactly centrosymmetric channel
        assert np.array_equal(h, h[::-1, ::-1])

    def test_column_norms_decrease_away_from_center(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=40, spacing=2.27 * wave6.wavelength)
        scen = FocusScenario(tx=tx, focal_distance=200.0 * wave6.wavelength)
        h = channel_matrix(scen)
        norms = np.linalg.norm(h.entries, axis=0)
        # positions are symmetric; norms must fall strictly from the middle outward
        half = norms[20:]
        assert np.all(np.diff(half) < 0.0)
        np.testing.assert_allclose(norms, norms[::-1], rtol=1e-12)

    def test_guard_identifies_offending_pair(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        scen = FocusScenario(tx=tx, focal_distance=1e-7)
        with pytest.raises(SingularDistanceError, match=r"channel_matrix: .* at index \(0, 0\)"):
            channel_matrix(scen)


class TestDeterminism:
    """Stacking excitations and batching field points do not change results."""

    BUDGETS = {
        "one_row": lambda n: 16 * n,
        "seven_rows": lambda n: 7 * 16 * n,
        "one_block": lambda n: 2**40,
    }

    @staticmethod
    def evaluate(tx, monkeypatch, budget):
        monkeypatch.setattr(field, "KERNEL_BLOCK_BYTES", budget)
        lam = tx.wave.wavelength
        z0 = 30.0 * lam
        weights = np.stack([conjugate_excitation(tx, xt, z0) for xt in (-2.0 * lam, 0.0, 3.5 * lam)])
        xs = np.linspace(-0.6, 0.6, 61) * tx.aperture
        zs = np.linspace(0.5, 1.5, 3)[:, None] * z0
        scen = FocusScenario(tx=tx, focal_distance=z0, rx_num=23, rx_spacing=0.7 * lam)
        # the second strip copies the array, so its channel is gathered by lag
        entries = [channel_matrix(s).entries for s in (scen, FocusScenario(tx=tx, focal_distance=z0))]
        return weights, xs, zs, field_at(tx, weights, xs, zs), entries

    @pytest.mark.parametrize("pattern", list(ElementPattern))
    def test_results_identical_across_blocks_stacking_and_reruns(self, wave6, monkeypatch, pattern):
        for num_elements in (1, 13):
            tx = ArraySpec(wave=wave6, num_elements=num_elements, spacing=1.7 * wave6.wavelength, pattern=pattern)
            runs = {name: self.evaluate(tx, monkeypatch, size(num_elements)) for name, size in self.BUDGETS.items()}
            weights, xs, zs, stacked, entries = runs["one_block"]
            assert stacked.shape == (3, 3, 61)
            for name, (_, _, _, other, other_entries) in runs.items():
                assert np.array_equal(other, stacked), (num_elements, name)
                for got, want in zip(other_entries, entries):
                    assert np.array_equal(got, want), (num_elements, name)
            for t, w in enumerate(weights):
                assert np.array_equal(field_at(tx, w, xs, zs), stacked[t]), (num_elements, t)
            assert np.array_equal(self.evaluate(tx, monkeypatch, 2**40)[3], stacked), num_elements

    @staticmethod
    def per_point(tx, weights, xs, zs):
        """Each point evaluated on its own, in the caller's point shape."""
        return np.stack([[field_at(tx, w, x, z) for x, z in zip(xs.flat, zs.flat)] for w in weights]).reshape(
            weights.shape[:1] + xs.shape
        )

    # each value is one sequential sum over elements, so neither the element count nor the point count may change it
    @pytest.mark.parametrize("num_elements", [1, 2, 13, 40])
    @pytest.mark.parametrize("m", [9, 10])
    @pytest.mark.parametrize("pattern", list(ElementPattern))
    def test_mirrored_points_match_per_point_for_every_block(self, wave6, monkeypatch, pattern, m, num_elements):
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=num_elements, spacing=1.7 * lam, pattern=pattern)
        z0 = 30.0 * lam
        weights = np.stack([conjugate_excitation(tx, xt, z0) for xt in (-2.0 * lam, 0.0, 3.5 * lam)])
        # flattened x[::-1] == -x and z[::-1] == z, with heights that vary along the set
        xs = centered_positions(m, 2.3 * lam)
        zs = z0 + 0.5 * np.abs(xs)
        points = [(xs, zs)] + ([(xs.reshape(2, -1), zs.reshape(2, -1))] if m % 2 == 0 else [])
        for x, z in points:
            want = self.per_point(tx, weights, x, z)
            # every block size from one row to all m, on two workers: built rows
            # start at the mirror point m // 2, so one-row blocks put a boundary
            # one row after it, and m - m // 2 rows or more hold the whole built
            # half in one block
            set_cpus(monkeypatch, 2)
            for block_rows in range(1, m + 1):
                monkeypatch.setattr(field, "KERNEL_BLOCK_BYTES", 2 * block_rows * 16 * tx.num_elements)
                got = field_at(tx, weights, x, z)
                assert np.array_equal(got, want), (x.shape, block_rows)
                for t, w in enumerate(weights):
                    assert np.array_equal(field_at(tx, w, x, z), want[t]), (x.shape, block_rows, t)

    @pytest.mark.parametrize("coordinate", ["x", "z"])
    @pytest.mark.parametrize("pattern", list(ElementPattern))
    def test_one_ulp_from_mirrored_takes_the_per_point_values(self, wave6, pattern, coordinate):
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=13, spacing=1.7 * lam, pattern=pattern)
        z0 = 2.0 * lam
        weights = np.stack([conjugate_excitation(tx, xt, z0) for xt in (-2.0 * lam, 3.5 * lam)])
        xs = centered_positions(9, 2.3 * lam)
        zs = np.full_like(xs, z0)
        nudged = {"x": xs, "z": zs}[coordinate].copy()
        nudged[1] = np.nextafter(nudged[1], np.inf)
        x, z = (nudged, zs) if coordinate == "x" else (xs, nudged)
        got = field_at(tx, weights, x, z)
        assert np.array_equal(got, self.per_point(tx, weights, x, z))
        # the nudge moves the field there, so reusing the twin's row would show
        assert not np.array_equal(got[:, 1], field_at(tx, weights, xs, zs)[:, 1])


class TestParallelBlocks:
    """Blocks run on one thread per CPU of the process's affinity set; no result or error depends on the count."""

    M = 100_000
    GUARD = "is below the evaluation guard 4.996541e-04 m"

    @staticmethod
    def evaluate(tx, monkeypatch, cpus):
        """Fields and an unmatched channel at ``cpus`` CPUs, each call starting at most ``cpus - 1`` threads."""
        set_cpus(monkeypatch, cpus)
        # two rows per block at four CPUs, eight at one
        monkeypatch.setattr(field, "KERNEL_BLOCK_BYTES", 8 * 16 * tx.num_elements)
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(field, "threading", SimpleNamespace(Thread=Counted))
        lam = tx.wave.wavelength
        z0 = 30.0 * lam
        weights = np.stack([conjugate_excitation(tx, xt, z0) for xt in (-2.0 * lam, 0.0, 3.5 * lam)])
        xs = centered_positions(40, 2.3 * lam)
        zs = z0 + 0.5 * np.abs(xs)
        calls = [lambda x=x, z=z, w=w: field_at(tx, w, x, z) for w in (weights, weights[1])
                 # mirrored, mirrored 2-D, and five unmirrored points: three blocks at four CPUs, fewer than workers
                 for x, z in ((xs, zs), (xs.reshape(4, 10), zs.reshape(4, 10)), (xs[:5], zs[:5]))]
        scen = FocusScenario(tx=tx, focal_distance=z0, rx_num=23, rx_spacing=0.7 * lam)
        calls.append(lambda: channel_matrix(scen).entries)
        results, most = [], 0
        for call in calls:
            before = threading.active_count()
            started.clear()
            results.append(call())
            assert threading.active_count() == before
            most = max(most, len(started))
        return results, most

    @pytest.mark.parametrize("num_elements", [1, 13, 40])
    @pytest.mark.parametrize("pattern", list(ElementPattern))
    def test_results_identical_at_one_and_four_cpus(self, wave6, monkeypatch, pattern, num_elements):
        tx = ArraySpec(wave=wave6, num_elements=num_elements, spacing=1.7 * wave6.wavelength, pattern=pattern)
        one, started_one = self.evaluate(tx, monkeypatch, 1)
        four, started_four = self.evaluate(tx, monkeypatch, 4)
        assert (started_one, started_four) == (0, 3)
        for got, want in zip(four, one):
            assert np.array_equal(got, want)

    def test_one_row_blocks_on_four_workers_with_frequent_switches(self, wave6, monkeypatch):
        # a lost or misplaced block write would leave np.empty garbage in place of the one-worker values
        tx = ArraySpec(wave=wave6, num_elements=13, spacing=1.7 * wave6.wavelength, pattern=ElementPattern.PATCH)
        weights = np.stack([conjugate_excitation(tx, xt, 1.0) for xt in (-0.1, 0.2)])
        xs = centered_positions(301, 0.01)
        zs = 1.0 + np.abs(xs)
        results = []
        for cpus in (1, 4):
            set_cpus(monkeypatch, cpus)
            monkeypatch.setattr(field, "KERNEL_BLOCK_BYTES", 16 * 13 * cpus)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results.append(field_at(tx, weights, xs, zs))
            finally:
                sys.setswitchinterval(interval)
        assert np.array_equal(results[0], results[1])

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_blocks_cover_every_point_once_within_the_shared_budget(self, wave6, monkeypatch, cpus):
        tx = ArraySpec(wave=wave6, num_elements=13, spacing=0.03)
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(field, "KERNEL_BLOCK_BYTES", 12 * 16 * 13)
        xs = centered_positions(61, 0.01)
        seen = []
        field._propagation(tx, xs, np.ones_like(xs), "test", lambda rows, kernel: seen.append((rows, kernel.shape)))
        assert sorted(i for rows, _ in seen for i in range(61)[rows]) == list(range(61))
        assert max(shape[0] for _, shape in seen) == 12 // cpus
        assert all(shape == (rows.stop - rows.start, 13) for rows, shape in seen)

    def test_cpu_count_falls_back_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert field._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert field._cpu_count() == 1

    # Two singular points in different blocks at every worker count; the later
    # block's is nearer its element, so the message names the earliest block's
    # pair, not the smallest distance. The mirrored grid's singular points both
    # sit on its negative side and are met as their built twins.
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize(
        "mirrored, shape, index",
        [(True, (M,), (51000, 3)), (False, (M,), (500, 0)), (False, (400, 250), (2, 0, 0))],
    )
    def test_earliest_singular_block_is_reported(self, wave6, monkeypatch, cpus, mirrored, shape, index):
        set_cpus(monkeypatch, cpus)
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.03)
        xn = element_positions(tx)
        m = self.M
        xs, zs = centered_positions(m, 1e-5), np.ones(m)
        if mirrored:
            for row, r in ((48999, 2e-7), (500, 1e-7)):
                xs[row], xs[m - 1 - row] = xn[0], xn[3]
                zs[row] = zs[m - 1 - row] = r
            assert np.array_equal(xs[::-1], -xs) and np.array_equal(zs[::-1], zs)
        else:
            for row, n, r in ((500, 0, 2e-7), (99499, 3, 1e-7)):
                xs[row], zs[row] = xn[n], r
        before = threading.active_count()
        with pytest.raises(SingularDistanceError) as err:
            field_at(tx, np.ones((2, 4), dtype=complex), xs.reshape(shape), zs.reshape(shape))
        assert str(err.value) == f"field_at: distance 2.000000e-07 m at index {index} {self.GUARD}"
        assert threading.active_count() == before
        field_at(tx, np.ones((2, 4), dtype=complex), xs.reshape(shape), np.ones(shape))
        assert threading.active_count() == before
