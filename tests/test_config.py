"""YAML experiment configuration: units, defaults, errors, round-trip."""

import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfocus import (
    ArraySpec,
    ConfigError,
    ElementPattern,
    ExperimentConfig,
    FocusScenario,
    axial_profile,
    parse_config,
    scan_focal_points,
    serialize_config,
    wave_from_frequency,
)
from nearfocus.runner import _metadata

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = """\
frequency: 6 GHz
num_elements: 40
spacing: 2.27 lambda
focal_distance: 200 lambda
"""


def test_parse_resolves_wavelength_units():
    cfg = parse_config(BASE)
    lam = wave_from_frequency(6e9).wavelength
    assert cfg.frequency == 6e9
    assert cfg.spacing == pytest.approx(2.27 * lam, rel=1e-15)
    assert cfg.spacing == pytest.approx(0.11342147994333333, rel=1e-12)
    assert cfg.focal_distance == pytest.approx(200.0 * lam, rel=1e-15)
    assert cfg.num_elements == 40


def test_defaults_mirror_transmit_side():
    cfg = parse_config(BASE)
    lam = wave_from_frequency(6e9).wavelength
    assert cfg.pattern is ElementPattern.ISOTROPIC
    assert cfg.experiment is None
    assert cfg.rx_num == 40
    assert cfg.rx_spacing == cfg.spacing
    assert cfg.sweep_start == pytest.approx(0.1 * lam)
    assert cfg.sweep_stop == pytest.approx(4.0 * lam)
    assert cfg.sweep_step == pytest.approx(0.01 * lam)
    assert cfg.gain_span == pytest.approx(3.0 * cfg.spacing)
    assert cfg.scan_resolution == 16
    assert cfg.axial_z_min == pytest.approx(0.1 * cfg.focal_distance)
    assert cfg.axial_z_max == pytest.approx(2.0 * cfg.focal_distance)
    assert cfg.output_dir == "out"
    assert cfg.output_format == "csv"
    assert cfg.seed is None


def test_default_targets_are_strip_spacing_multiples():
    cfg = parse_config(BASE)
    expected = tuple(m * cfg.rx_spacing for m in (-10, -5, 0, 5, 10))
    assert cfg.scan_targets == pytest.approx(expected)


def test_paper_default_keyword_accepted():
    cfg = parse_config(BASE + "scan:\n  targets: paper-default\n")
    assert cfg.scan_targets == pytest.approx(
        tuple(m * cfg.rx_spacing for m in (-10, -5, 0, 5, 10))
    )


def test_targets_follow_receive_spacing_override():
    text = BASE + "rx:\n  spacing: 0.5 lambda\n"
    cfg = parse_config(text)
    lam = wave_from_frequency(6e9).wavelength
    assert cfg.rx_spacing == pytest.approx(0.5 * lam)
    assert cfg.scan_targets[-1] == pytest.approx(5.0 * lam)


def test_explicit_target_list_with_mixed_units():
    text = BASE + "scan:\n  targets: [\"-1 lambda\", 0, 0.05, \"20 mm\"]\n"
    cfg = parse_config(text)
    lam = wave_from_frequency(6e9).wavelength
    assert cfg.scan_targets == pytest.approx((-lam, 0.0, 0.05, 0.02))


def test_frequency_unit_spellings():
    for text, hz in (
        ("frequency: 6 GHz", 6e9),
        ("frequency: 6000 MHz", 6e9),
        ("frequency: 6000000 kHz", 6e9),
        ("frequency: 6.0e9 Hz", 6e9),
        ("frequency: 6.0e9", 6e9),
    ):
        doc = text + "\nnum_elements: 4\nspacing: 0.01\nfocal_distance: 1\n"
        assert parse_config(doc).frequency == pytest.approx(hz)


def test_length_unit_spellings():
    for spec, meters in (
        ("0.0254", 0.0254),
        ("25.4 mm", 0.0254),
        ("2.54 cm", 0.0254),
        ("0.0000254 km", 0.0254),
        ("1 wavelength", wave_from_frequency(6e9).wavelength),
        ("2 wavelengths", 2 * wave_from_frequency(6e9).wavelength),
        ("1.5 LAMBDA", 1.5 * wave_from_frequency(6e9).wavelength),
    ):
        doc = f"frequency: 6 GHz\nnum_elements: 4\nspacing: {spec}\nfocal_distance: 1\n"
        assert parse_config(doc).spacing == pytest.approx(meters, rel=1e-12)


def test_pattern_and_experiment_enums():
    text = BASE + "pattern: horizontal-dipole\nexperiment: dof-sweep\n"
    cfg = parse_config(text)
    assert cfg.pattern is ElementPattern.HORIZONTAL_DIPOLE
    assert cfg.experiment == "dof-sweep"


def test_seed_and_output_sections():
    text = BASE + "seed: 1234\noutput:\n  directory: results\n  format: json\n"
    cfg = parse_config(text)
    assert cfg.seed == 1234
    assert cfg.output_dir == "results"
    assert cfg.output_format == "json"


class TestErrors:
    def expect(self, text, key, line=None):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == key
        if line is not None:
            assert err.value.line == line
        return err.value

    def test_missing_required_key(self):
        self.expect("frequency: 6 GHz\nnum_elements: 4\nspacing: 0.01\n", "focal_distance")

    def test_unknown_top_level_key_with_line(self):
        err = self.expect(BASE + "spacing_mm: 5\n", "spacing_mm", line=5)
        assert "unknown key" in str(err)

    def test_unknown_nested_key(self):
        self.expect(BASE + "scan:\n  resolutions: 16\n", "scan.resolutions", line=6)

    def test_duplicate_key(self):
        err = self.expect(BASE + "spacing: 0.5 lambda\n", "spacing", line=5)
        assert "duplicate" in str(err)

    def test_bad_length_unit(self):
        err = self.expect(
            "frequency: 6 GHz\nnum_elements: 4\nspacing: 2 parsec\nfocal_distance: 1\n",
            "spacing",
            line=3,
        )
        assert "parsec" in str(err)

    def test_bad_frequency_unit(self):
        self.expect("frequency: 6 THz\nnum_elements: 4\nspacing: 0.01\nfocal_distance: 1\n", "frequency", line=1)

    def test_negative_spacing(self):
        self.expect(
            "frequency: 6 GHz\nnum_elements: 4\nspacing: -0.01\nfocal_distance: 1\n",
            "spacing",
        )

    def test_zero_frequency(self):
        self.expect("frequency: 0\nnum_elements: 4\nspacing: 0.01\nfocal_distance: 1\n", "frequency")

    def test_boolean_rejected_for_integer(self):
        self.expect("frequency: 6 GHz\nnum_elements: true\nspacing: 0.01\nfocal_distance: 1\n", "num_elements")

    @pytest.mark.parametrize("key, line", [("frequency", 1), ("spacing", 3), ("focal_distance", 4)])
    def test_boolean_rejected_for_quantity(self, key, line):
        text = BASE.replace(f"{key}: ", f"{key}: true # ", 1)
        err = self.expect(text, key, line=line)
        assert "got bool" in str(err)

    def test_fractional_element_count_rejected(self):
        self.expect("frequency: 6 GHz\nnum_elements: 4.5\nspacing: 0.01\nfocal_distance: 1\n", "num_elements")

    def test_bad_pattern_name(self):
        self.expect(BASE + "pattern: omnidirectional\n", "pattern", line=5)

    def test_bad_experiment_name(self):
        self.expect(BASE + "experiment: all\n", "experiment", line=5)

    def test_coarse_scan_resolution(self):
        self.expect(BASE + "scan:\n  resolution: 4\n", "scan.resolution", line=6)

    def test_empty_target_list(self):
        self.expect(BASE + "scan:\n  targets: []\n", "scan.targets", line=6)

    def test_sweep_start_after_stop(self):
        self.expect(BASE + "sweep:\n  start: 2 lambda\n  stop: 1 lambda\n", "sweep")

    def test_axial_range_inverted(self):
        self.expect(BASE + "axial:\n  z_min: 5\n  z_max: 2\n", "axial")

    def test_bad_output_format(self):
        self.expect(BASE + "output:\n  format: parquet\n", "output.format", line=6)

    def test_empty_document(self):
        self.expect("", "config")

    def test_non_mapping_document(self):
        self.expect("- 1\n- 2\n", "config")

    def test_invalid_yaml(self):
        self.expect("frequency: [unclosed\n", "config")

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("frequency: .inf\nnum_elements: 4\nspacing: 0.01\nfocal_distance: 1\n", "frequency", 1),
            ("frequency: 1e400 Hz\nnum_elements: 4\nspacing: 0.01\nfocal_distance: 1\n", "frequency", 1),
            ("frequency: 1e-300 Hz\nnum_elements: 4\nspacing: 1 lambda\nfocal_distance: 1\n", "frequency", 1),
            ("frequency: 6 GHz\nnum_elements: 4\nspacing: .inf\nfocal_distance: 1\n", "spacing", 3),
            ("frequency: 6 GHz\nnum_elements: 4\nspacing: -.inf\nfocal_distance: 1\n", "spacing", 3),
            ("frequency: 6 GHz\nnum_elements: 4\nspacing: .nan\nfocal_distance: 1\n", "spacing", 3),
            ("frequency: 6 GHz\nnum_elements: 4\nspacing: 1e400\nfocal_distance: 1\n", "spacing", 3),
            ("frequency: 6 GHz\nnum_elements: 4\nspacing: 1" + "0" * 400 + "\nfocal_distance: 1\n", "spacing", 3),
            ("frequency: 6 GHz\nnum_elements: 4\nspacing: 0.01\nfocal_distance: .inf\n", "focal_distance", 4),
            (BASE + "axial:\n  z_max: .inf\n", "axial.z_max", 6),
            (BASE + "gain:\n  span: 1e400 lambda\n", "gain.span", 6),
            (BASE + "scan:\n  targets: [0, .inf]\n", "scan.targets[1]", 6),
            (BASE + "scan:\n  targets:\n    - 0\n    - -.inf\n", "scan.targets[1]", 8),
        ],
        ids=[
            "frequency-inf", "frequency-1e400-unit", "frequency-infinite-wavelength", "spacing-inf", "spacing-minus-inf", "spacing-nan",
            "spacing-1e400", "spacing-400-digit-int", "focal_distance-inf", "axial-z_max-inf",
            "gain-span-1e400-lambda", "scan-target-flow-inf", "scan-target-block-minus-inf",
        ],
    )
    def test_non_finite_quantity(self, text, key, line):
        err = self.expect(text, key, line=line)
        assert "finite" in str(err)

    def test_integer_error_reports_the_validator_message(self):
        err = self.expect(BASE + "scan:\n  resolution: 8.0\n", "scan.resolution", line=6)
        assert str(err) == "scan.resolution (line 6): scan.resolution must be an integer of at least 8, got 8.0"
        err = self.expect(BASE + "seed: -1\n", "seed", line=5)
        assert "seed must be an integer of at least 0" in str(err)


def _library_accepts(key: str, value) -> bool:
    """Whether the library call that consumes config ``key`` accepts ``value``."""
    wave = wave_from_frequency(6e9)
    tx = ArraySpec(wave=wave, num_elements=4, spacing=0.5 * wave.wavelength)
    z0 = 10.0 * wave.wavelength
    calls = {
        "num_elements": lambda: ArraySpec(wave=wave, num_elements=value, spacing=0.01),
        "rx.num_elements": lambda: FocusScenario(tx=tx, focal_distance=z0, rx_num=value),
        "scan.resolution": lambda: scan_focal_points(FocusScenario(tx, z0), [0.0], strip_resolution=value),
        "axial.samples": lambda: axial_profile(FocusScenario(tx, z0), (0.5 * z0, 2.0 * z0), samples=value),
    }
    try:
        calls[key]()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("key", ["num_elements", "rx.num_elements", "scan.resolution", "axial.samples"])
@settings(max_examples=60, deadline=None)
@given(
    value=st.one_of(
        st.integers(min_value=-2, max_value=12),
        st.booleans(),
        st.integers(min_value=-2, max_value=12).map(float),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.inf, -math.inf, math.nan, 2.5, 8.5]),
    )
)
def test_config_and_library_accept_the_same_integers(key, value):
    section, _, name = key.rpartition(".")
    doc = {"frequency": "6 GHz", "num_elements": 4, "spacing": "0.5 lambda", "focal_distance": "10 lambda"}
    (doc.setdefault(section, {}) if section else doc)[name] = value
    text = yaml.safe_dump(doc, sort_keys=False)
    loaded = yaml.safe_load(text)
    parsed = (loaded[section] if section else loaded)[name]
    assert parsed == value or (math.isnan(parsed) and math.isnan(value))
    try:
        parse_config(text)
        config_accepts = True
    except ConfigError:
        config_accepts = False
    assert config_accepts == _library_accepts(key, parsed)


SHIPPED_CONFIG_SHA256 = {
    "axial": "7af9a93a8da237ad3357b29fa3a6529463e5da8069003f97b94a95c22020cddc",
    "dof_sweep": "832a0d4151b66315be01c7771833087f1ee984d0cb4e060cc52f64c9ef5323ff",
    "gain_profile": "c99cfb4f558f0cb6d0de3011009cdb6697aef4dee9ef944ef13cf155bc9ae0c1",
    "optimal_spacing": "6ad696d82a0d093746badf40da73c957f112e4a601d74300ec9acec0127cf343",
    "scan": "77b19adffb84c8d81ce11807b447156b4be6060b173cd95372b8019f200b90ff",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_SHA256))
def test_shipped_config_hash_is_pinned(name):
    # the canonical serialization names a run in its metadata (config_sha256),
    # so it must not drift for the shipped configs
    cfg = parse_config((CONFIGS / f"{name}.yaml").read_text())
    assert _metadata(cfg)["config_sha256"] == SHIPPED_CONFIG_SHA256[name]
    assert parse_config(serialize_config(cfg)) == cfg


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        text = BASE + (
            "pattern: patch\nexperiment: scan\nseed: 9\n"
            "rx:\n  num_elements: 64\n  spacing: 0.25 lambda\n"
            "scan:\n  targets: [\"-2 lambda\", 0, \"2 lambda\"]\n  resolution: 32\n"
            "output:\n  directory: tmpdir\n  format: json\n"
        )
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert cfg == again
        assert serialize_config(cfg) == serialize_config(again)

    @settings(max_examples=100, deadline=None)
    @given(
        frequency=st.floats(min_value=1e6, max_value=1e11, allow_nan=False),
        num=st.integers(min_value=1, max_value=256),
        spacing=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
        z0=st.floats(min_value=1e-2, max_value=100.0, allow_nan=False),
        pattern=st.sampled_from(list(ElementPattern)),
        experiment=st.sampled_from(["dof-sweep", "gain-profile", "scan", "axial", "optimal-spacing"]),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_round_trip_over_generated_configs(
        self, frequency, num, spacing, z0, pattern, experiment, seed, fmt
    ):
        cfg = ExperimentConfig(
            frequency=frequency,
            num_elements=num,
            spacing=spacing,
            focal_distance=z0,
            pattern=pattern,
            experiment=experiment,
            rx_num=num,
            rx_spacing=spacing,
            sweep_start=0.5 * spacing,
            sweep_stop=2.0 * spacing,
            sweep_step=0.1 * spacing,
            gain_span=3.0 * spacing,
            gain_step=0.01 * spacing,
            scan_targets=(-spacing, 0.0, spacing),
            scan_resolution=16,
            axial_z_min=0.5 * z0,
            axial_z_max=2.0 * z0,
            axial_samples=101,
            output_dir="out",
            output_format=fmt,
            seed=seed,
        )
        assert parse_config(serialize_config(cfg)) == cfg
