import hashlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from pctl.config import RunConfig
from pctl.data import (
    HsiCube,
    SynthSpec,
    generate_synthetic_pair,
    read_cube,
    read_labels,
    split_labels,
    write_cube,
    write_labels,
)
from pctl.errors import ConfigError, ContractError, ParseError


SCENES = Path(__file__).resolve().parents[1] / "scenes"

# SHA-256 of the generator's outputs that involve no BLAS call, for the
# default scene and the two scene files. The three share a seed, so their
# labels, abundances and target basis agree; the source basis differs.
SHARED_DIGESTS = {
    "labels_source": "3cae499db7dd4d2393ab65f57bcb45fe809709ded718d440a406f3d9e7023650",
    "labels_target": "8378f7dd7396f8346f8b029bb8ca8276ef4f3cdb43b9be0bfe87144bab282820",
    "source": "484a956c338a0b1732b76978970fd153da78ff4b48437a1979073fc45410b28a",
    "target": "cd55f091541f8356b15cebd8cdea2f6c60ee4ef39a82586322c407cb2513a18d",
    "basis_target": "b134d094201a6afa162454358e0df4dcf4e01a1793c2e12c5f2aefb3a6850f88",
}
SOURCE_BASIS_DIGESTS = {
    "default": "c9cc55bcf86d582376a0a679cffd7fe3e5d0d1dc45e4571d7390424723e38b46",
    "bump": "102eca826d73920b3d405e425dd4327efb684feec380cec3ba5239d6354c60f7",
    "ramp": "ad05bffa1ee1d0b9ef69dc1a0c4158864432e73bda805ec618436774b5fb8407",
}


def random_cube(rng, h=5, w=4, l=6, labeled=True):
    data = rng.uniform(0.0, 1.0, (h, w, l)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, 3, (h, w)) if labeled else None
    return HsiCube(data, labels)


class TestCubeFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cube = random_cube(rng)
        path = tmp_path / "scene.hsic"
        write_cube(cube, path)
        back = read_cube(path)
        npt.assert_array_equal(back.reflectance, cube.reflectance)
        npt.assert_array_equal(back.labels, cube.labels)

    def test_minimal_cube_is_twenty_bytes(self, tmp_path):
        cube = HsiCube(np.ones((1, 1, 1)))
        path = tmp_path / "one.hsic"
        write_cube(cube, path)
        assert path.stat().st_size == 20

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.hsic"
        path.write_bytes(b"HSIX" + b"\x00" * 16)
        with pytest.raises(ParseError, match="offset 0"):
            read_cube(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        cube = random_cube(rng, labeled=False)
        path = tmp_path / "cut.hsic"
        write_cube(cube, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])
        with pytest.raises(ParseError, match=rf"offset {len(whole) - 7}"):
            read_cube(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        import struct
        path = tmp_path / "huge.hsic"
        path.write_bytes(b"HSIC" + struct.pack("<III", 2 ** 16, 2 ** 16, 64))
        with pytest.raises(ParseError, match="offset 4"):
            read_cube(path)

    def test_labels_round_trip_and_magic(self, tmp_path):
        labels = np.arange(12).reshape(3, 4) % 5
        path = tmp_path / "gt.hsil"
        write_labels(labels, path)
        npt.assert_array_equal(read_labels(path), labels)
        broken = bytearray(path.read_bytes())
        broken[:4] = b"XXXX"
        path.write_bytes(bytes(broken))
        with pytest.raises(ParseError, match="offset 0"):
            read_labels(path)

    def test_cube_without_sibling_labels(self, tmp_path):
        cube = HsiCube(np.ones((2, 2, 3)))
        path = tmp_path / "plain.hsic"
        write_cube(cube, path)
        assert read_cube(path).labels is None

    def test_nonfinite_reflectance_rejected(self):
        bad = np.ones((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ContractError):
            HsiCube(bad)


class TestSplitLabels:
    def make_cube(self, counts):
        total = sum(counts)
        labels = np.concatenate([np.full(n, i + 1) for i, n in enumerate(counts)])
        return HsiCube(np.zeros((total, 1, 2)), labels.reshape(total, 1))

    def test_full_fraction_takes_all_labeled(self):
        cube = self.make_cube([10, 20, 5])
        train, eval_mask = split_labels(cube, 1.0, seed=0)
        assert train.sum() == 35
        assert eval_mask.sum() == 0

    def test_one_percent_of_pavia_scale_counts(self):
        # 13105 labeled pixels, 1% -> 131 selected
        cube = self.make_cube([3064, 5029, 1330, 3682])
        train, eval_mask = split_labels(cube, 0.01, seed=1)
        assert train.sum() == 131
        assert eval_mask.sum() == 13105 - 131

    def test_per_class_counts_within_one_of_proportional(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(40, 400, size=6).tolist()
        cube = self.make_cube(counts)
        for fraction in (0.01, 0.03, 0.05, 0.3):
            train, _ = split_labels(cube, fraction, seed=3)
            got = np.bincount(cube.labels[train], minlength=7)[1:]
            quota = fraction * np.asarray(counts)
            assert np.all(np.abs(got - quota) <= 1.0)
            assert np.all(got >= 1)

    def test_masks_disjoint_and_cover_labeled(self):
        cube = self.make_cube([50, 60])
        train, eval_mask = split_labels(cube, 0.2, seed=4)
        assert not np.any(train & eval_mask)
        npt.assert_array_equal(train | eval_mask, cube.labels > 0)

    def test_reproducible(self):
        cube = self.make_cube([30, 40, 50])
        t1, e1 = split_labels(cube, 0.1, seed=5)
        t2, e2 = split_labels(cube, 0.1, seed=5)
        npt.assert_array_equal(t1, t2)
        npt.assert_array_equal(e1, e2)

    def test_empty_class_rejected(self):
        labels = np.array([[1, 1, 3, 3]])  # class 2 has no samples
        cube = HsiCube(np.zeros((1, 4, 2)), labels)
        with pytest.raises(ContractError, match="class 2"):
            split_labels(cube, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        cube = self.make_cube([10, 10])
        with pytest.raises(ContractError):
            split_labels(cube, 0.0, seed=0)


class TestSynthSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.classes == 4 and spec.abundance_dim == 6 and spec.bands == 40
        npt.assert_array_equal(spec.scale, np.full(40, 0.7))
        npt.assert_array_equal(spec.offset, np.full(40, 0.1))

    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(scale=0.0)

    def test_abundance_dim_must_cover_classes(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes=5, abundance_dim=4)


class TestGenerator:
    def test_affine_relation_exact(self):
        _, _, truth = generate_synthetic_pair(SynthSpec(seed=7))
        spec = SynthSpec(seed=7)
        recomposed = spec.scale * truth["basis_target"] + spec.offset
        assert np.max(np.abs(truth["basis_source"] - recomposed)) == 0.0

    def test_noiseless_pixels_in_basis_span(self):
        spec = SynthSpec(noise_sigma=0.0, seed=8, pixels_per_class=100)
        source, target, truth = generate_synthetic_pair(spec)
        for cube, key in ((source, "basis_source"), (target, "basis_target")):
            px = cube.pixels()
            sol, *_ = np.linalg.lstsq(truth[key].T, px.T, rcond=None)
            residual = truth[key].T @ sol - px.T
            assert np.max(np.abs(residual)) < 1e-10

    def test_noiseless_pixels_match_truth_abundances(self):
        spec = SynthSpec(noise_sigma=0.0, seed=9, pixels_per_class=64)
        source, _, truth = generate_synthetic_pair(spec)
        a = truth["source"].reshape(-1, spec.abundance_dim)
        npt.assert_allclose(source.pixels(), a @ truth["basis_source"], atol=1e-12)

    def test_degenerate_shift_gives_matching_distributions(self):
        spec = SynthSpec(noise_sigma=0.0, scale=1.0, offset=0.0,
                         seed=10, pixels_per_class=900)
        source, target, truth = generate_synthetic_pair(spec)
        assert np.max(np.abs(truth["basis_source"] - truth["basis_target"])) == 0.0
        for cls in range(1, 5):
            ms = source.pixels()[source.labels.reshape(-1) == cls].mean(axis=0)
            mt = target.pixels()[target.labels.reshape(-1) == cls].mean(axis=0)
            assert np.max(np.abs(ms - mt)) < 0.03

    def test_layout_is_spatially_coherent(self):
        source, target, _ = generate_synthetic_pair(SynthSpec(seed=11))
        for cube in (source, target):
            labels = cube.labels
            same = 0
            total = 0
            for shift in ((0, 1), (1, 0)):
                a = labels[: labels.shape[0] - shift[0], : labels.shape[1] - shift[1]]
                b = labels[shift[0]:, shift[1]:]
                same += np.count_nonzero(a == b)
                total += a.size
            assert same / total > 0.9

    def test_class_counts_near_pixels_per_class(self):
        spec = SynthSpec(seed=12)
        source, _, _ = generate_synthetic_pair(spec)
        counts = np.bincount(source.labels.reshape(-1), minlength=5)[1:]
        npt.assert_allclose(counts, spec.pixels_per_class, rtol=0.05)

    def test_deterministic_for_fixed_seed(self):
        a_src, a_tgt, _ = generate_synthetic_pair(SynthSpec(seed=13))
        b_src, b_tgt, _ = generate_synthetic_pair(SynthSpec(seed=13))
        npt.assert_array_equal(a_src.reflectance, b_src.reflectance)
        npt.assert_array_equal(a_tgt.labels, b_tgt.labels)

    def test_target_labels_present_for_evaluation(self):
        _, target, _ = generate_synthetic_pair(SynthSpec(seed=14))
        assert target.labels is not None and target.labels.max() == 4


class TestSceneFiles:
    # the committed band-dependent shifts, as functions of t = band / 39
    @pytest.mark.parametrize("name, scale, offset", [
        ("ramp", lambda t: 0.5 + 0.4 * t, lambda t: 0.15 - 0.1 * t),
        ("bump", lambda t: 0.7 + 0.25 * np.sin(2 * np.pi * t),
         lambda t: 0.1 + 0.05 * np.cos(2 * np.pi * t)),
    ])
    def test_scene_generates_its_band_dependent_shift(self, name, scale, offset):
        spec = RunConfig(SCENES / f"{name}.txt", sections=("synth",)).synth_spec()
        t = np.arange(40) / 39
        npt.assert_allclose(spec.scale, scale(t), atol=1e-6)
        npt.assert_allclose(spec.offset, offset(t), atol=1e-6)
        source, target, truth = generate_synthetic_pair(spec)
        assert source.bands == target.bands == 40
        # the source basis is the target's under a scale that varies by band
        assert np.ptp(spec.scale) > 0.1
        npt.assert_array_equal(truth["basis_source"],
                               spec.scale * truth["basis_target"] + spec.offset)


class TestPinnedScenes:
    @pytest.mark.parametrize("name", ["default", "bump", "ramp"])
    def test_generator_outputs_keep_their_digests(self, name):
        spec = SynthSpec() if name == "default" else \
            RunConfig(SCENES / f"{name}.txt", sections=("synth",)).synth_spec()
        source, target, truth = generate_synthetic_pair(spec)
        arrays = {"labels_source": source.labels, "labels_target": target.labels, **truth}
        digests = {key: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
                   for key, value in arrays.items()}
        assert digests == {**SHARED_DIGESTS, "basis_source": SOURCE_BASIS_DIGESTS[name]}
