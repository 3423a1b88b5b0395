import hashlib
import itertools

import numpy as np
import pytest

from mlnpose import synth
from mlnpose.evalkit import MAX_IMAGE_SIDE
from mlnpose.skeleton import default_skeleton
from mlnpose.synth import (InfeasibleSceneError, NoiseSpec, SceneConfig,
                           corrupt_maps, derive_seed, sample_scene, splitmix64)
from oracles import optimal_assignment, validate_person

CROWD = dict(image_dims=(368, 432), person_count=(10, 10),
             limb_length_range=(8.0, 16.0), min_spacing=80.0)


def keypoint_digest(configs):
    """sha256 of the (x, y) float64 bytes of every keypoint of every
    scene sampled from configs, in order."""
    h = hashlib.sha256()
    for cfg in configs:
        for person in sample_scene(cfg):
            h.update(np.array([(kp.x, kp.y) for kp in person.keypoints]).tobytes())
    return h.hexdigest()


def corrupt_digest(spec, clamp):
    """sha256 of corrupt_maps' output on a fixed 19x46x54 stack at seeds 1-3."""
    maps = np.random.default_rng(0).uniform(size=(19, 46, 54)).astype(np.float32)
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        h.update(corrupt_maps(maps, spec, seed, clamp=clamp).tobytes())
    return h.hexdigest()


class TestSeeds:
    def test_splitmix64_deterministic(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_derive_seed_spread(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_range(self):
        for i in range(100):
            assert 0 <= derive_seed(7, i) < 2 ** 64


class TestSceneSampling:
    def test_deterministic(self):
        cfg = SceneConfig(seed=123)
        a = sample_scene(cfg)
        b = sample_scene(cfg)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            for ka, kb in zip(pa.keypoints, pb.keypoints):
                assert (ka.x, ka.y) == (kb.x, kb.y)

    def test_seed_changes_scene(self):
        a = sample_scene(SceneConfig(seed=1))
        b = sample_scene(SceneConfig(seed=2))
        assert (len(a) != len(b)
                or any(ka.x != kb.x for pa, pb in zip(a, b)
                       for ka, kb in zip(pa.keypoints, pb.keypoints)))

    def test_person_count_range(self):
        counts = {len(sample_scene(SceneConfig(seed=s, person_count=(1, 10))))
                  for s in range(50)}
        assert counts <= set(range(1, 11))
        assert len(counts) > 3

    def test_people_valid_and_in_bounds(self):
        sk = default_skeleton()
        for seed in range(20):
            cfg = SceneConfig(seed=seed)
            for person in sample_scene(cfg):
                assert validate_person(person, sk, cfg.image_dims) == []
                assert person.labeled_count() == 18

    def test_limb_lengths_in_range(self):
        sk = default_skeleton()
        lo, hi = 12.0, 26.0
        # The placement tree edges respect the length range directly;
        # chain limbs like neck->hip span several tree edges, so only
        # tree edges are checked here.
        tree_edges = {(1, 0), (0, 14), (14, 16), (0, 15), (15, 17),
                      (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7)}
        for seed in range(10):
            for person in sample_scene(SceneConfig(seed=seed)):
                for a, b in sk.limbs:
                    if (a, b) not in tree_edges:
                        continue
                    ka, kb = person.keypoints[a], person.keypoints[b]
                    d = np.hypot(ka.x - kb.x, ka.y - kb.y)
                    assert lo - 1e-9 <= d <= hi + 1e-9

    def test_pairwise_spacing(self):
        for seed in range(10):
            cfg = SceneConfig(seed=seed, person_count=(5, 10))
            scene = sample_scene(cfg)
            necks = [(p.keypoints[1].x, p.keypoints[1].y) for p in scene]
            for (x1, y1), (x2, y2) in itertools.combinations(necks, 2):
                assert np.hypot(x1 - x2, y1 - y2) >= cfg.min_spacing

    def test_longest_chain_inside_margin(self):
        # Each person is drawn once: no chain of the placement tree from
        # the neck reaches from a jittered slot to the image edge.
        depth = {1: 0}
        for parent, child, _ in synth._PLACEMENT_TREE:
            depth[child] = depth[parent] + 1
        assert max(depth.values()) == 3
        for cfg in (SceneConfig(), SceneConfig(**CROWD)):
            hi = cfg.limb_length_range[1]
            jitter = 0.1 * cfg.min_spacing
            margin = 3.5 * hi + jitter
            assert max(depth.values()) * hi < margin - jitter

    @pytest.mark.parametrize("fields", [
        {}, CROWD, dict(CROWD, image_dims=(183, 183), person_count=(1, 1)),
    ], ids=["default", "crowd", "single_slot"])
    def test_every_keypoint_inside_image(self, fields):
        people = 0
        for seed in range(30):
            cfg = SceneConfig(seed=seed, **fields)
            h, w = cfg.image_dims
            for person in sample_scene(cfg):
                people += 1
                assert all(0.0 <= kp.x <= w and 0.0 <= kp.y <= h for kp in person.keypoints)
        assert people >= 30

    def test_infeasible_raises(self):
        cfg = SceneConfig(image_dims=(200, 200), person_count=(5, 5),
                          min_spacing=300.0)
        with pytest.raises(InfeasibleSceneError):
            sample_scene(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(image_dims=(0, 100))
        with pytest.raises(ValueError):
            SceneConfig(limb_length_range=(5.0, 2.0))

    @pytest.mark.parametrize("dims", [(MAX_IMAGE_SIDE + 1, 16), (16, MAX_IMAGE_SIDE + 1)])
    def test_image_dims_within_annotation_limit(self, dims):
        with pytest.raises(ValueError, match="image_dims"):
            SceneConfig(image_dims=dims)
        side = MAX_IMAGE_SIDE
        assert SceneConfig(image_dims=(side, side)).image_dims == (side, side)


class TestPinnedStreams:
    """Digests recorded before the sampler drew each placement attempt in
    one call. A digest depends on every draw, so a stream that moves by
    one double fails."""

    @pytest.mark.parametrize("fields, digest", [
        ({}, "c5dbc2341efa654492a1ab281aeed674d548572acc06c1a5bc487d8a6749a699"),
        (CROWD, "674ee4632b035073e39b53cd2e4d043f8c130386cadc80e296faa88e8d015aa9"),
        (dict(person_count=(0, 0)),
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ], ids=["default", "crowd", "no_people"])
    def test_scenes(self, fields, digest):
        assert keypoint_digest(SceneConfig(seed=s, **fields) for s in range(20)) == digest

    @pytest.mark.parametrize("spec, clamp, digest", [
        (NoiseSpec(map_sigma=0.02, false_peak_count=40), (0.0, 1.0),
         "09557264c46e3833e66c43612ced56d71fe5c1ebd327238608649debe3018ed9"),
        (NoiseSpec(map_sigma=0.02), None,
         "a872d175119fc0d2d7a45cedc3459cca982a6bd2d6aa1314e1df7f520ece94bd"),
    ], ids=["joints", "limbs"])
    def test_corrupt_maps(self, spec, clamp, digest):
        assert corrupt_digest(spec, clamp) == digest


class TestCorruptMaps:
    def test_identity_when_disabled(self):
        maps = np.random.default_rng(0).uniform(size=(3, 8, 8)).astype(np.float32)
        out = corrupt_maps(maps, NoiseSpec(), seed=1)
        np.testing.assert_array_equal(out, maps)

    def test_deterministic(self):
        maps = np.zeros((2, 8, 8), dtype=np.float32)
        spec = NoiseSpec(map_sigma=0.1, false_peak_count=2)
        a = corrupt_maps(maps, spec, seed=5)
        b = corrupt_maps(maps, spec, seed=5)
        np.testing.assert_array_equal(a, b)
        c = corrupt_maps(maps, spec, seed=6)
        assert (a != c).any()

    def test_clamped(self):
        maps = np.full((1, 8, 8), 0.5, dtype=np.float32)
        out = corrupt_maps(maps, NoiseSpec(map_sigma=5.0), seed=2)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unclamped_for_vector_fields(self):
        maps = np.zeros((2, 8, 8), dtype=np.float32)
        out = corrupt_maps(maps, NoiseSpec(map_sigma=5.0), seed=3, clamp=None)
        assert out.min() < 0.0

    def test_false_peaks_add_mass(self):
        maps = np.zeros((1, 16, 16), dtype=np.float32)
        out = corrupt_maps(maps, NoiseSpec(false_peak_count=3,
                                           false_peak_amplitude=0.8), seed=4)
        assert out.max() > 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", [NoiseSpec(), NoiseSpec(map_sigma=0.1, false_peak_count=2)])
    def test_input_left_unchanged(self, dtype, spec):
        maps = np.random.default_rng(0).uniform(size=(2, 8, 8)).astype(dtype)
        before = maps.copy()
        out = corrupt_maps(maps, spec, seed=7)
        np.testing.assert_array_equal(maps, before)
        assert out.dtype == np.float32 and not np.shares_memory(out, maps)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(map_sigma=-1.0)

    @pytest.mark.parametrize("fields, match", [
        (dict(map_sigma=float("nan")), "map_sigma must be a finite number"),
        (dict(map_sigma=True), "map_sigma must be a finite number"),
        (dict(false_peak_amplitude=float("inf")), "false_peak_amplitude must be a finite number"),
        (dict(false_peak_count=-3), "false_peak_count must be >= 0"),
        (dict(false_peak_count=True), "false_peak_count must be int"),
        (dict(false_peak_count=2.0), "false_peak_count must be int"),
    ])
    def test_noise_spec_typed_and_ranged(self, fields, match):
        with pytest.raises(ValueError, match=match):
            NoiseSpec(**fields)


def brute_best(matrix):
    """Definitionally optimal total over all one-to-one assignments."""
    s = np.asarray(matrix, dtype=np.float64)
    n, m = s.shape
    k = min(n, m)
    best = -np.inf
    for rows in itertools.permutations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            best = max(best, sum(s[r, c] for r, c in zip(rows, cols)))
    return best


class TestOptimalAssignment:
    def test_diagonal(self):
        pairs, total = optimal_assignment(np.eye(3))
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2)]
        assert total == pytest.approx(3.0)

    def test_single_cell(self):
        pairs, total = optimal_assignment([[2.5]])
        assert pairs == [(0, 0)] and total == 2.5

    def test_empty(self):
        assert optimal_assignment(np.zeros((0, 3))) == ([], 0.0)

    def test_rectangular(self):
        s = np.array([[1.0, 9.0, 2.0], [8.0, 1.0, 1.0]])
        pairs, total = optimal_assignment(s)
        assert sorted(pairs) == [(0, 1), (1, 0)]
        assert total == pytest.approx(17.0)

    def test_rectangular_tall(self):
        s = np.array([[1.0, 9.0, 2.0], [8.0, 1.0, 1.0]]).T
        pairs, total = optimal_assignment(s)
        assert sorted(pairs) == [(0, 1), (1, 0)]
        assert total == pytest.approx(17.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_definition(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 5, size=2)
        s = rng.normal(size=(n, m))
        _, total = optimal_assignment(s)
        assert total == pytest.approx(brute_best(s), abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            optimal_assignment(np.zeros((9, 3)))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            optimal_assignment(np.array([[np.nan]]))
