"""Effective degrees of freedom, spacing sweeps, and the closed-form optimum."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nearfocus import (
    ArraySpec,
    DegenerateChannelError,
    ElementPattern,
    FocusScenario,
    SingularDistanceError,
    channel_matrix,
    dof_sweep,
    effective_dof,
    optimal_spacing,
    parse_config,
    wave_from_frequency,
)

from _oracles import participation_ratio_svd


@pytest.fixture
def wave6():
    return wave_from_frequency(6e9)


SHIPPED_SWEEP = Path(__file__).resolve().parents[1] / "configs" / "dof_sweep.yaml"


def shipped_sweep(pattern: ElementPattern):
    """Template scenario and spacing grid of configs/dof_sweep.yaml, as the runner builds them."""
    cfg = dataclasses.replace(parse_config(SHIPPED_SWEEP.read_text()), pattern=pattern)
    npts = int(round((cfg.sweep_stop - cfg.sweep_start) / cfg.sweep_step)) + 1
    spacings = np.linspace(cfg.sweep_start, cfg.sweep_start + (npts - 1) * cfg.sweep_step, npts)
    return cfg.scenario(), spacings


def scenario_with_spacing(wave, spacing_wl: float) -> FocusScenario:
    tx = ArraySpec(wave=wave, num_elements=40, spacing=spacing_wl * wave.wavelength)
    return FocusScenario(tx=tx, focal_distance=200.0 * wave.wavelength)


# prints the bytes of an N=128 patch sweep curve, an N=256 DoF, and the DoF of
# an odd N=127 channel and of an N=256 array onto an unmatched 255-sample strip,
# so both parities of the centrosymmetric fold are covered
THREAD_PROBE = """
import sys
import numpy as np
from nearfocus import ArraySpec, ElementPattern, FocusScenario, channel_matrix, dof_sweep, effective_dof, wave_from_frequency
wave = wave_from_frequency(6e9)
lam = wave.wavelength
def scenario(num, **strip):
    tx = ArraySpec(wave=wave, num_elements=num, spacing=0.5 * lam, pattern=ElementPattern.PATCH)
    return FocusScenario(tx=tx, focal_distance=200.0 * lam, **strip)
curve = dof_sweep(scenario(128), np.linspace(0.1, 4.0, 391) * lam).dof_curve
dofs = [
    effective_dof(channel_matrix(s)).effective_dof
    for s in (scenario(256), scenario(127), scenario(256, rx_num=255, rx_spacing=0.7 * lam))
]
sys.stdout.write(curve.tobytes().hex() + " " + np.array(dofs).tobytes().hex())
"""


def mirrored(top: np.ndarray, num_rows: int) -> np.ndarray:
    """The centrosymmetric num_rows-by-N matrix whose top ceil(num_rows/2) rows are ``top``;
    the middle row of an odd count is made mirror-symmetric from its left half."""
    half = num_rows // 2
    n = top.shape[1]
    h = np.empty((num_rows, n), dtype=complex)
    h[: num_rows - half] = top
    h[num_rows - half :] = top[:half][::-1, ::-1]
    if num_rows > 2 * half:
        h[half, n - n // 2 :] = h[half, : n // 2][::-1]
    return h


def general_path_dof(h: np.ndarray) -> float:
    """tr(G)^2 / ||G||_F^2 on the unfolded G = hs hs^H, hs = h / max|h|, each sum
    taken as row sums of squared real and imaginary parts, then NumPy's sum."""
    hs = h / np.max(np.abs(h))
    gram = hs @ hs.conj().T

    def sum_abs2(a):
        parts = np.ascontiguousarray(a).view(np.float64)
        return float(np.sum(np.einsum("ij,ij->i", parts, parts)))

    trace = sum_abs2(hs)
    return trace * trace / sum_abs2(gram)


complex_matrices = arrays(
    dtype=np.complex128,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    elements=st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    ),
)


class TestEffectiveDof:
    def test_known_eigenvalue_triple(self):
        # rows with squared norms 2, 1, 1 and mutual orthogonality:
        # participation ratio (2+1+1)^2 / (4+1+1) = 16/6
        h = np.diag([math.sqrt(2.0), 1.0, 1.0]).astype(complex)
        result = effective_dof(h)
        assert result.effective_dof == pytest.approx(16.0 / 6.0, rel=1e-12)
        np.testing.assert_allclose(result.eigenvalues, [2.0, 1.0, 1.0], rtol=1e-12)

    def test_eigenvalues_sorted_descending_and_nonnegative(self, wave6):
        h = channel_matrix(scenario_with_spacing(wave6, 2.27))
        eig = effective_dof(h).eigenvalues
        assert np.all(eig >= 0.0)
        assert np.all(np.diff(eig) <= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(h=complex_matrices)
    def test_bounds_and_svd_route_agree(self, h):
        try:
            result = effective_dof(h)
        except DegenerateChannelError:
            return
        m, n = h.shape
        assert 1.0 - 1e-9 <= result.effective_dof <= min(m, n) + 1e-9
        assert result.effective_dof == pytest.approx(participation_ratio_svd(h), rel=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(h=complex_matrices, scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_scale_invariance(self, h, scale):
        try:
            base = effective_dof(h).effective_dof
        except DegenerateChannelError:
            return
        scaled = effective_dof(scale * h).effective_dof
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_rank_one_matrix_has_unit_dof(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        h = np.outer(u, v)
        assert effective_dof(h).effective_dof == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_equal_norm_rows_reach_row_count(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(a)
        h = 3.7 * q[:6, :]
        assert effective_dof(h).effective_dof == pytest.approx(6.0, rel=1e-9)

    def test_channel_matrix_and_raw_entries_agree(self, wave6):
        h = channel_matrix(scenario_with_spacing(wave6, 1.2))
        assert effective_dof(h).effective_dof == effective_dof(h.entries).effective_dof

    @pytest.mark.parametrize("shape", [(40, 40), (9, 4), (4, 9)])
    def test_any_memory_layout_or_dtype(self, wave6, shape):
        h = channel_matrix(scenario_with_spacing(wave6, 1.2)).entries[: shape[0], : shape[1]]
        want = effective_dof(np.ascontiguousarray(h)).effective_dof
        for layout in (np.asfortranarray(h), h[::-1, ::-1], h.astype(np.complex64)):
            assert effective_dof(layout).effective_dof == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-200])
    def test_extreme_scales_match_unit_scale(self, wave6, scale):
        h = channel_matrix(scenario_with_spacing(wave6, 2.27)).entries
        base = effective_dof(h).effective_dof
        assert effective_dof(scale * h).effective_dof == pytest.approx(base, rel=1e-12)

    def test_trace_form_matches_spectrum(self, wave6):
        result = effective_dof(channel_matrix(scenario_with_spacing(wave6, 1.2)))
        eig = result.eigenvalues
        assert result.effective_dof == pytest.approx(eig.sum() ** 2 / np.sum(eig * eig), rel=1e-12)

    def test_eigenvalues_are_lazy_and_cached(self, wave6):
        result = effective_dof(channel_matrix(scenario_with_spacing(wave6, 1.2)))
        assert "eigenvalues" not in vars(result)
        assert result.eigenvalues is result.eigenvalues

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
    def test_eigenvalues_have_one_per_row(self, shape):
        rng = np.random.default_rng(11)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        result = effective_dof(h)
        want = np.clip(np.linalg.eigvalsh(h @ h.conj().T)[::-1], 0.0, None)
        assert result.eigenvalues.shape == (shape[0],)
        np.testing.assert_array_equal(result.eigenvalues, want)
        assert result.effective_dof == pytest.approx(participation_ratio_svd(h), rel=1e-12)

    @pytest.mark.parametrize("pattern", [ElementPattern.ISOTROPIC, ElementPattern.PATCH])
    @pytest.mark.parametrize(
        "num, rx_num",
        [(num, rx) for num in (1, 2, 3, 40, 127, 128) for rx in (None, num - 1, num + 1) if rx != 0],
    )
    def test_folded_channel_matches_svd(self, wave6, pattern, num, rx_num):
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=num, spacing=2.27 * lam, pattern=pattern)
        strip = {} if rx_num is None else {"rx_num": rx_num, "rx_spacing": 0.7 * lam}
        h = channel_matrix(FocusScenario(tx=tx, focal_distance=200.0 * lam, **strip)).entries
        # the fold runs only on an exactly centrosymmetric channel
        assert np.array_equal(h, h[::-1, ::-1])
        assert effective_dof(h).effective_dof == pytest.approx(participation_ratio_svd(h), rel=1e-12)

    @pytest.mark.parametrize("num", [40, 41])
    def test_one_ulp_off_centrosymmetric_takes_general_path(self, wave6, num):
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=num, spacing=2.27 * lam)
        h = channel_matrix(FocusScenario(tx=tx, focal_distance=200.0 * lam)).entries
        h[0, 1] = complex(np.nextafter(h[0, 1].real, np.inf), h[0, 1].imag)
        assert not np.array_equal(h, h[::-1, ::-1])
        assert effective_dof(h).effective_dof == general_path_dof(h)

    @settings(max_examples=40, deadline=None)
    @given(
        top=arrays(
            dtype=np.complex128,
            shape=(6, 12),
            elements=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        )
    )
    def test_folded_random_centrosymmetric_matches_svd(self, top):
        # every shape from 1x1 to 12x12, each the mirror of a corner of one drawn top half
        for m in range(1, 13):
            for n in range(1, 13):
                h = mirrored(top[: m - m // 2, :n], m)
                assert np.array_equal(h, h[::-1, ::-1])
                dof = effective_dof(h).effective_dof
                assert dof == pytest.approx(participation_ratio_svd(h), rel=1e-10)
                assert 1.0 - 1e-12 <= dof <= min(m, n) + 1e-12

    def test_non_finite_entries_rejected(self):
        h = np.eye(3, dtype=complex)
        h[1, 2] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            effective_dof(h)

    def test_bits_do_not_depend_on_blas_threads(self):
        # the BLAS thread count is read at import, so each count runs in its own process
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateChannelError):
            effective_dof(np.zeros((4, 4), dtype=complex))

    def test_empty_matrix_is_degenerate(self):
        with pytest.raises(DegenerateChannelError):
            effective_dof(np.zeros((0, 4), dtype=complex))

    def test_sparse_spacing_beats_dense_regression(self, wave6):
        dense = effective_dof(channel_matrix(scenario_with_spacing(wave6, 0.5))).effective_dof
        sparse = effective_dof(
            channel_matrix(scenario_with_spacing(wave6, math.sqrt(5.0)))
        ).effective_dof
        assert sparse > dense
        assert dense == pytest.approx(2.518980188666612, rel=1e-6)
        assert sparse == pytest.approx(38.39850809813814, rel=1e-6)


class TestDofSweep:
    def test_argmax_lands_near_closed_form(self, wave6):
        lam = wave6.wavelength
        template = scenario_with_spacing(wave6, 0.5)
        sweep = dof_sweep(template, np.linspace(0.1, 4.0, 391) * lam)
        assert 2.2 * lam <= sweep.best_spacing <= 2.3 * lam
        assert sweep.best_dof == pytest.approx(39.56855794665938, rel=1e-6)
        assert sweep.best_dof == np.max(sweep.dof_curve)

    def test_refined_sweep_is_stable(self, wave6):
        lam = wave6.wavelength
        template = scenario_with_spacing(wave6, 0.5)
        coarse_step = 0.01 * lam
        sweep = dof_sweep(template, np.linspace(0.1, 4.0, 391) * lam)
        fine = np.linspace(
            sweep.best_spacing - coarse_step, sweep.best_spacing + coarse_step, 21
        )
        refined = dof_sweep(template, fine)
        assert abs(refined.best_spacing - sweep.best_spacing) < coarse_step

    def test_curve_is_positive_and_aligned(self, wave6):
        lam = wave6.wavelength
        sweep = dof_sweep(scenario_with_spacing(wave6, 0.5), np.array([0.5, 1.0, 2.0]) * lam)
        assert sweep.dof_curve.shape == (3,)
        assert np.all(sweep.dof_curve >= 1.0)

    @pytest.mark.parametrize("pattern", [ElementPattern.ISOTROPIC, ElementPattern.PATCH])
    def test_curve_matches_per_spacing_channel(self, pattern):
        template, spacings = shipped_sweep(pattern)
        sweep = dof_sweep(template, spacings)
        assert spacings.size == 391
        for d, value in zip(spacings, sweep.dof_curve):
            tx = dataclasses.replace(template.tx, spacing=float(d))
            scen = FocusScenario(tx=tx, focal_distance=template.focal_distance, rx_num=tx.num_elements, rx_spacing=float(d))
            assert value == effective_dof(channel_matrix(scen)).effective_dof
        # the best spacing of the shipped config, 2.28 wavelengths, found by
        # the per-spacing Gram-eigenvalue sweep this one replaced
        assert sweep.best_spacing == spacings[218]

    def test_reruns_are_bit_identical(self):
        template, spacings = shipped_sweep(ElementPattern.PATCH)
        first = dof_sweep(template, spacings)
        assert np.array_equal(first.dof_curve, dof_sweep(template, spacings).dof_curve)

    def test_single_element_sweep(self, wave6):
        tx = ArraySpec(wave=wave6, num_elements=1, spacing=wave6.wavelength)
        sweep = dof_sweep(FocusScenario(tx=tx, focal_distance=10.0 * wave6.wavelength), [0.5, 1.0])
        np.testing.assert_array_equal(sweep.dof_curve, [1.0, 1.0])

    def test_guard_failure_names_spacing(self, wave6):
        lam = wave6.wavelength
        tx = ArraySpec(wave=wave6, num_elements=4, spacing=0.5 * lam)
        template = FocusScenario(tx=tx, focal_distance=0.005 * lam)
        with pytest.raises(SingularDistanceError, match=r"sweep aborted at spacing 0\.001 m"):
            dof_sweep(template, np.array([0.001, 0.002]))

    def test_rejects_bad_spacing_grids(self, wave6):
        template = scenario_with_spacing(wave6, 0.5)
        with pytest.raises(ValueError):
            dof_sweep(template, np.array([]))
        with pytest.raises(ValueError):
            dof_sweep(template, np.array([0.02, 0.01]))
        with pytest.raises(ValueError, match="strictly ascending"):
            dof_sweep(template, np.array([0.01, 0.01]))
        with pytest.raises(ValueError):
            dof_sweep(template, np.array([-0.01, 0.01]))
        for bad in ([0.01, math.nan], [math.nan], [0.01, math.inf], [True], [0.01, 10**400]):
            with pytest.raises(ValueError, match="finite"):
                dof_sweep(template, np.array(bad))


class TestOptimalSpacing:
    def test_closed_form_value(self, wave6):
        lam = wave6.wavelength
        d = optimal_spacing(40, 200.0 * lam, wave6)
        assert d / lam == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_higher_null_indices_scale_as_square_root(self, wave6):
        lam = wave6.wavelength
        d1 = optimal_spacing(40, 200.0 * lam, wave6, n=1)
        d4 = optimal_spacing(40, 200.0 * lam, wave6, n=4)
        assert d4 == pytest.approx(2.0 * d1, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        num=st.integers(min_value=1, max_value=512),
        z0=st.floats(min_value=1e-2, max_value=1e4, allow_nan=False),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_matches_definition(self, num, z0, n):
        wave = wave_from_frequency(6e9)
        d = optimal_spacing(num, z0, wave, n=n)
        assert d == pytest.approx(math.sqrt(n * wave.wavelength * z0 / num), rel=1e-12)

    def test_rejects_bad_arguments(self, wave6):
        with pytest.raises(ValueError):
            optimal_spacing(0, 1.0, wave6)
        with pytest.raises(ValueError):
            optimal_spacing(4, -1.0, wave6)
        with pytest.raises(ValueError, match="finite"):
            optimal_spacing(4, math.inf, wave6)
        with pytest.raises(ValueError, match="finite"):
            optimal_spacing(4, 10**400, wave6)
        with pytest.raises(ValueError):
            optimal_spacing(4, 1.0, wave6, n=0)

    @pytest.mark.parametrize("bad", [True, 2.0, pytest.param(10**400, id="huge-int")])
    def test_integer_arguments_reject_bools_and_floats(self, wave6, bad):
        with pytest.raises(ValueError, match="num_elements must be an integer of at least 1"):
            optimal_spacing(bad, 1.0, wave6)
        with pytest.raises(ValueError, match="null index n must be an integer of at least 1"):
            optimal_spacing(4, 1.0, wave6, n=bad)

    def test_accepts_numpy_integers(self, wave6):
        assert optimal_spacing(np.int64(4), 1.0, wave6, n=np.int32(2)) == optimal_spacing(4, 1.0, wave6, n=2)

    @pytest.mark.parametrize("num", [16, 40, 64])
    @pytest.mark.parametrize("z0_wl", [100, 200, 400])
    def test_is_the_small_angle_limit_of_the_swept_optimum(self, wave6, num, z0_wl):
        # The swept optimum sits above d* by a fraction that grows with (aperture / z0)^2 = N lambda / z0 at d*:
        # the next term of the distance expansion, -Delta^4 / (8 z0^3), weakens the coupling phase k x_m x_n / z0
        # toward the aperture edges. Its average over both apertures predicts a coefficient of 1/8; the sweep gives
        # 0.075-0.100 at 501 steps, and 0.15 bounds both.
        lam = wave6.wavelength
        z0 = z0_wl * lam
        d_star = optimal_spacing(num, z0, wave6)
        spacings = np.linspace(0.5, 1.5, 201) * d_star
        best = dof_sweep(FocusScenario(ArraySpec(wave6, num, d_star), z0), spacings).best_spacing
        assert d_star <= best <= d_star * (1.0 + 0.15 * num * lam / z0) + (spacings[1] - spacings[0])
