import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlnpose.groundtruth import (_GAUSS_CUTOFF, GtConfig, cell_centers, joint_loss,
                                 loss_gradient, render_background_map, render_joint_maps,
                                 render_pafs)
from mlnpose.skeleton import (Keypoint, Person, SkeletonDef, Visibility,
                              default_skeleton)
from mlnpose.synth import SceneConfig, derive_seed, sample_scene
from mlnpose.tensor_ops import ShapeError
from oracles import dense_joint_map, dense_paf

PAIR = SkeletonDef(("a", "b"), ((0, 1),), background_channel=False)
TRIANGLE = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2), (2, 0)))


def pair_person(ax, ay, bx, by, vis=Visibility.VISIBLE):
    return Person([Keypoint(ax, ay, vis), Keypoint(bx, by, vis)])


class TestCellCenters:
    def test_values(self):
        xs, ys = cell_centers((2, 3), 8)
        np.testing.assert_array_equal(xs, [4.0, 12.0, 20.0])
        np.testing.assert_array_equal(ys, [4.0, 12.0])


class TestJointMap:
    def test_peak_value_at_cell_center(self):
        # (20, 36) is the center of cell (row 4, col 2) at stride 8.
        cfg = GtConfig(sigma=8.0)
        people = [Person([Keypoint(20.0, 36.0), None])]
        m = render_joint_maps(people, PAIR, cfg, (10, 10))[0]
        assert m[4, 2] == pytest.approx(1.0)
        assert m.max() == pytest.approx(1.0)

    def test_value_at_distance_sigma(self):
        cfg = GtConfig(sigma=8.0)
        people = [Person([Keypoint(20.0, 36.0), None])]
        m = render_joint_maps(people, PAIR, cfg, (10, 10))[0]
        # Cell (4, 3) sits 8 px (= sigma) to the right of the annotation.
        assert m[4, 3] == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_max_not_sum(self):
        cfg = GtConfig(sigma=8.0)
        one = [Person([Keypoint(20.0, 36.0), None])]
        two = one + [Person([Keypoint(20.0, 36.0), None])]
        np.testing.assert_array_equal(
            render_joint_maps(one, PAIR, cfg, (10, 10))[0],
            render_joint_maps(two, PAIR, cfg, (10, 10))[0])

    def test_occluded_excluded(self):
        cfg = GtConfig(sigma=8.0)
        people = [Person([Keypoint(20.0, 36.0, Visibility.OCCLUDED), None])]
        assert render_joint_maps(people, PAIR, cfg, (10, 10))[0].max() == 0.0

    def test_missing_excluded(self):
        cfg = GtConfig(sigma=8.0)
        assert render_joint_maps([Person([None, None])], PAIR, cfg, (10, 10))[0].max() == 0.0

    def test_translation_equivariance(self):
        cfg = GtConfig(sigma=8.0)
        base = render_joint_maps([Person([Keypoint(20.0, 36.0), None])], PAIR, cfg, (10, 10))
        shifted = render_joint_maps([Person([Keypoint(36.0, 52.0), None])], PAIR, cfg, (10, 10))
        np.testing.assert_allclose(shifted[0, 2:, 2:], base[0, :-2, :-2], atol=1e-7)


def assert_maps_match_dense(people, skeleton, cfg, map_dims):
    """The library's stacks equal the dense oracles' byte for byte, channel
    for channel, the background channel included; returns the library's
    stacks."""
    joints = render_joint_maps(people, skeleton, cfg, map_dims)
    pafs = render_pafs(people, skeleton, cfg, map_dims)
    m = skeleton.num_joints
    assert joints.shape == (skeleton.joint_map_channels, *map_dims)
    assert pafs.shape == (skeleton.limb_map_channels, *map_dims)
    assert joints.dtype == pafs.dtype == np.float32
    with np.errstate(all="ignore"):
        for j in range(m):
            assert joints[j].tobytes() == dense_joint_map(people, j, cfg, map_dims).tobytes()
        for k in range(skeleton.num_limbs):
            dense = dense_paf(people, k, skeleton, cfg, map_dims)
            assert pafs[2 * k:2 * k + 2].tobytes() == dense.tobytes()
        if skeleton.background_channel:
            dense_bg = 1.0 - np.maximum.reduce(
                [dense_joint_map(people, j, cfg, map_dims) for j in range(m)])
            assert joints[m].tobytes() == dense_bg.astype(np.float32).tobytes()
    return joints, pafs


@st.composite
def render_cases(draw):
    """People with keypoints on, off and at the edge of the map, on cell
    centres and cell borders, with random map dims and GtConfig."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    stride = draw(st.integers(1, 8))
    cfg = GtConfig(sigma=draw(st.floats(0.5, 20.0)),
                   limb_half_width=draw(st.floats(0.5, 20.0)),
                   output_stride=stride)

    def coord(cells):
        extent = float(cells * stride)
        return st.one_of(st.floats(-extent, 2.0 * extent),
                         st.sampled_from([0.0, extent, -3.0 * extent, 4.0 * extent]),
                         st.integers(-2, 2 * cells + 2).map(lambda k: k * stride / 2.0))

    keypoint = st.builds(Keypoint, coord(w), coord(h),
                         st.sampled_from([Visibility.VISIBLE, Visibility.VISIBLE,
                                          Visibility.OCCLUDED]))
    person = st.lists(st.one_of(st.none(), keypoint), min_size=3, max_size=3).map(Person)
    return draw(st.lists(person, max_size=6)), cfg, (h, w)


class TestWindowedRendering:
    """The windowed renderers against the dense oracles, byte for byte."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=render_cases())
    def test_matches_dense_oracle(self, case):
        people, cfg, map_dims = case
        assert_maps_match_dense(people, TRIANGLE, cfg, map_dims)

    def test_scenes_match_dense_oracle(self):
        sk, cfg = default_skeleton(), GtConfig()
        for i in range(10):
            people = sample_scene(SceneConfig(seed=derive_seed(8, i)))
            assert_maps_match_dense(people, sk, cfg, (100, 150))
            crowd = SceneConfig(image_dims=(368, 432), person_count=(10, 10),
                                limb_length_range=(8.0, 16.0), min_spacing=80.0,
                                seed=derive_seed(9, i))
            assert_maps_match_dense(sample_scene(crowd), sk, cfg, (46, 54))

    def test_cutoff_rounds_to_zero_in_float32(self):
        # float64 values at or below 2**-150 = exp(-103.97) cast to 0.0.
        assert np.float32(np.exp(-(_GAUSS_CUTOFF - 5.0))) == 0.0
        assert np.float32(np.exp(-103.9)) > 0.0

    def test_last_nonzero_cell_inside_window(self):
        # Cells are 1 px apart along row 0. sigma puts cell 10 at exponent
        # 103.9: its float64 value is above 2**-150 and casts to the
        # smallest float32 subnormal. Cell 11 lies outside the window at
        # exponent 125.7; its float64 value is nonzero but casts to 0.0.
        cfg = GtConfig(sigma=10.0 / math.sqrt(103.9), output_stride=1)
        assert 10.0 < cfg.sigma * math.sqrt(_GAUSS_CUTOFF) < 11.0
        people = [Person([Keypoint(0.5, 0.5), None])]
        m = render_joint_maps(people, PAIR, cfg, (1, 16))[0]
        assert m.tobytes() == dense_joint_map(people, 0, cfg, (1, 16)).tobytes()
        assert m[0, 10] == np.float32(2.0 ** -149)
        assert m[0, 11] == 0.0 and math.exp(-121.0 / cfg.sigma ** 2) > 0.0

    def test_limb_window_covers_rounding(self):
        # The dense test accepts column 1 (centre 1.5): |1.5 - ax| rounds to
        # at most hw. But ax + hw rounds below 1.5, so a window of exactly
        # the bounding box widened by limb_half_width would miss it.
        ax, hw = -0.8658749798321932, 2.365874979832193
        assert abs(1.5 - ax) <= hw and ax + hw < 1.5
        cfg = GtConfig(limb_half_width=hw, output_stride=1)
        people = [pair_person(ax, 0.5, ax, 10.5)]
        paf = render_pafs(people, PAIR, cfg, (12, 4))
        assert paf.tobytes() == dense_paf(people, 0, PAIR, cfg, (12, 4)).tobytes()
        assert (paf[1, :, 1] == 1.0).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x, y", [
        (math.nan, 40.0), (40.0, math.nan), (math.inf, 40.0), (-math.inf, 40.0),
        (40.0, math.inf), (math.inf, math.nan), (math.nan, -math.inf),
        (math.inf, -math.inf)])
    def test_non_finite_keypoint(self, x, y):
        # A NaN coordinate turns the whole joint channel NaN, an infinite
        # one adds nothing, and limb fields skip both.
        cfg = GtConfig(sigma=8.0)
        people = [pair_person(30.0, 30.0, 70.0, 20.0), pair_person(x, y, 60.0, 50.0)]
        joints, pafs = assert_maps_match_dense(people, PAIR, cfg, (12, 12))
        assert np.isnan(joints[0]).all() == (math.isnan(x) or math.isnan(y))
        assert pafs.tobytes() == render_pafs(people[:1], PAIR, cfg, (12, 12)).tobytes()


BG_TRIANGLE = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2), (2, 0)), background_channel=True)
PLAIN_TRIANGLE = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2), (2, 0)),
                             background_channel=False)


def triangle_person(*xy):
    return Person([Keypoint(x, y) for x, y in zip(xy[::2], xy[1::2])])


def limbs_through_one_cell(n=10, cx=52.0, cy=44.0):
    """n people whose type-0 limbs all cross the centre (cx, cy) of cell
    (5, 6), at angles 0.1 + 2*pi*i/n. The x components of their unit
    vectors nearly cancel, so their mean in float32 tells a sequential sum
    from numpy's pairwise one."""
    people, ux = [], []
    for i in range(n):
        t = 0.1 + 2.0 * math.pi * i / n
        ax, ay = cx - 30.0 * math.cos(t), cy - 30.0 * math.sin(t)
        bx, by = cx + 30.0 * math.cos(t), cy + 30.0 * math.sin(t)
        people.append(triangle_person(ax, ay, bx, by, cx, cy))
        ux.append((bx - ax) / np.hypot(bx - ax, by - ay))
    sequential = 0.0
    for u in ux:
        sequential += u
    pairwise = np.add.reduce(np.array(ux))
    assert np.float32(sequential / n) != np.float32(pairwise / n)
    return people


STACK_CASES = {
    # Three people whose limbs of each type overlap: averaged cells.
    "overlapping_limbs": [triangle_person(10.0, 40.0, 80.0, 40.0, 40.0, 80.0),
                          triangle_person(12.0, 44.0, 78.0, 36.0, 44.0, 78.0),
                          triangle_person(80.0, 40.0, 10.0, 42.0, 36.0, 84.0)],
    # A NaN coordinate: the joint window is the whole map, limbs skip it.
    "nan_keypoint": [triangle_person(30.0, 30.0, 70.0, 20.0, 50.0, 60.0),
                     triangle_person(math.nan, 40.0, 60.0, 50.0, 20.0, 80.0)],
    # One person straddles the top-left corner, one lies wholly off the map.
    "off_map": [triangle_person(-20.0, -10.0, 30.0, 20.0, -40.0, 50.0),
                triangle_person(500.0, 500.0, 560.0, 520.0, 530.0, 600.0),
                triangle_person(90.0, 70.0, 130.0, 90.0, 60.0, 120.0)],
    "no_people": [],
    # Ten limbs of one type cross one cell: its sum runs in person order.
    "ten_limbs_one_cell": limbs_through_one_cell(),
    # A limb from x = 0.0 to x = -0.0 has x component -0.0; the averaged
    # field holds 0.0 + -0.0 = +0.0 there.
    "negative_zero_x": [triangle_person(0.0, 20.0, -0.0, 80.0, 40.0, 50.0)],
}


class TestStackOracle:
    """render_joint_maps and render_pafs write every channel into one
    stack; each channel equals its dense oracle."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("skeleton", [BG_TRIANGLE, PLAIN_TRIANGLE], ids=["bg", "no_bg"])
    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_matches_dense_oracle(self, case, skeleton):
        people = STACK_CASES[case]
        cfg = GtConfig(sigma=8.0, limb_half_width=10.0)
        joints, pafs = assert_maps_match_dense(people, skeleton, cfg, (12, 13))
        if case == "nan_keypoint":
            assert np.isnan(joints[0]).all()
        if case == "overlapping_limbs":
            assert ((np.hypot(pafs[0], pafs[1]) > 0.0) & (np.hypot(pafs[0], pafs[1]) < 0.999)).any()
        if case == "no_people":
            assert not pafs.any() and not joints[:3].any()
        if case == "ten_limbs_one_cell":
            assert pafs[0, 5, 6] != 0.0 and abs(pafs[0, 5, 6]) < 1e-15
        if case == "negative_zero_x":
            assert (pafs[1, :, 0] == 1.0).any() and not np.signbit(pafs[0]).any()

    @pytest.mark.parametrize("background", [False, True])
    def test_limbless_skeleton(self, background):
        sk = SkeletonDef(("a", "b"), (), background_channel=background)
        people = [pair_person(10.0, 40.0, 80.0, 40.0)]
        joints, pafs = assert_maps_match_dense(people, sk, GtConfig(), (12, 14))
        assert pafs.shape == (0, 12, 14)
        assert joints.shape == (2 + background, 12, 14)


class TestRenderMemory:
    """The one-pass renderers keep their float64 and index temporaries to
    the windows' cells, not whole maps."""

    @pytest.mark.parametrize("render", [render_joint_maps, render_pafs])
    def test_peak_above_stack(self, render):
        people = sample_scene(SceneConfig(person_count=(10, 10), seed=derive_seed(8, 0)))
        sk, cfg = default_skeleton(), GtConfig()
        tracemalloc.start()
        try:
            stack = render(people, sk, cfg, (100, 150))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - stack.nbytes <= 1.5e6


class TestBackgroundMap:
    def test_empty_scene(self):
        cfg = GtConfig()
        maps = render_joint_maps([], PAIR, cfg, (4, 4))
        assert maps.shape == (2, 4, 4)
        sk = SkeletonDef(("a", "b"), ((0, 1),), background_channel=True)
        maps = render_joint_maps([], sk, cfg, (4, 4))
        assert maps.shape == (3, 4, 4)
        assert (maps[-1] == 1.0).all()

    def test_complement(self):
        rng = np.random.default_rng(0)
        maps = rng.uniform(size=(3, 5, 5)).astype(np.float32)
        bg = render_background_map(maps)
        np.testing.assert_allclose(bg, 1.0 - maps.max(axis=0), atol=1e-7)

    def test_stack_channel_count(self):
        cfg = GtConfig(sigma=8.0)
        sk = default_skeleton()
        people = [Person([Keypoint(100.0 + 5 * i, 100.0 + 3 * i) for i in range(18)])]
        maps = render_joint_maps(people, sk, cfg, (20, 20))
        assert maps.shape == (19, 20, 20)
        assert maps.dtype == np.float32


class TestPaf:
    def test_horizontal_limb(self):
        cfg = GtConfig(limb_half_width=8.0)
        people = [pair_person(0.0, 40.0, 80.0, 40.0)]
        paf = render_pafs(people, PAIR, cfg, (12, 12))
        # Rows 4 and 5 have centers 36 and 44 px, within 8 px of y=40;
        # columns 0..9 have centers 4..76 px, all within [0, 80].
        for r in (4, 5):
            for c in range(10):
                assert paf[0, r, c] == pytest.approx(1.0)
                assert paf[1, r, c] == pytest.approx(0.0)
        assert paf[0, 0, 0] == 0.0 and paf[1, 0, 0] == 0.0
        assert paf[0, 8, 4] == 0.0

    def test_unit_norm_single_person(self):
        cfg = GtConfig(limb_half_width=8.0)
        people = [pair_person(10.0, 10.0, 70.0, 60.0)]
        paf = render_pafs(people, PAIR, cfg, (12, 12))
        norm = np.hypot(paf[0], paf[1])
        on = norm > 0
        assert on.any()
        np.testing.assert_allclose(norm[on], 1.0, atol=1e-6)

    def test_overlap_average_norm_at_most_one(self):
        cfg = GtConfig(limb_half_width=10.0)
        people = [pair_person(10.0, 40.0, 80.0, 40.0),
                  pair_person(10.0, 44.0, 80.0, 36.0)]
        paf = render_pafs(people, PAIR, cfg, (12, 12))
        norm = np.hypot(paf[0], paf[1])
        assert (norm <= 1.0 + 1e-6).all()
        # Anti-parallel overlap averages below 1.
        opposing = [pair_person(10.0, 40.0, 80.0, 40.0),
                    pair_person(80.0, 40.0, 10.0, 40.0)]
        paf2 = render_pafs(opposing, PAIR, cfg, (12, 12))
        assert np.hypot(paf2[0], paf2[1]).max() == pytest.approx(0.0)

    def test_degenerate_limb(self):
        cfg = GtConfig()
        paf = render_pafs([pair_person(40.0, 40.0, 40.0, 40.0)], PAIR, cfg, (12, 12))
        assert (paf == 0).all()

    def test_occluded_endpoint_excluded(self):
        cfg = GtConfig()
        people = [pair_person(0.0, 40.0, 80.0, 40.0, vis=Visibility.OCCLUDED)]
        assert (render_pafs(people, PAIR, cfg, (12, 12)) == 0).all()

    def test_stack_shape(self):
        cfg = GtConfig()
        sk = default_skeleton()
        people = [Person([Keypoint(100.0 + 7 * i, 90.0 + 4 * i) for i in range(18)])]
        pafs = render_pafs(people, sk, cfg, (20, 20))
        assert pafs.shape == (38, 20, 20)
        assert pafs.dtype == np.float32

    def test_limbless_stack(self):
        sk = SkeletonDef(("a", "b"), (), background_channel=False)
        pafs = render_pafs([pair_person(0.0, 40.0, 80.0, 40.0)], sk, GtConfig(), (12, 14))
        assert pafs.shape == (0, 12, 14)
        assert pafs.dtype == np.float32


class TestLosses:
    def test_zero_when_equal(self):
        x = np.random.default_rng(1).uniform(size=(3, 4, 4)).astype(np.float32)
        assert joint_loss(x, x, np.ones((4, 4))) == 0.0

    def test_zero_mask(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(size=(2, 4, 4))
        gt = rng.uniform(size=(2, 4, 4))
        assert joint_loss(pred, gt, np.zeros((4, 4))) == 0.0

    def test_single_cell(self):
        pred = np.zeros((1, 2, 2))
        gt = np.zeros((1, 2, 2))
        pred[0, 0, 0] = 0.5
        assert joint_loss(pred, gt, np.ones((2, 2))) == pytest.approx(0.25)

    def test_unit_vector_residual(self):
        pred = np.zeros((2, 1, 1))
        gt = np.zeros((2, 1, 1))
        gt[0, 0, 0], gt[1, 0, 0] = 0.6, 0.8
        assert joint_loss(pred, gt, np.ones((1, 1))) == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(size=(2, 3, 3))
        gt = rng.uniform(size=(2, 3, 3))
        mask = np.ones((3, 3))
        base = joint_loss(pred, gt, mask)
        scaled = joint_loss(gt + 2.0 * (pred - gt), gt, mask)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            joint_loss(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            joint_loss(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), np.ones((3, 3)))


class TestLossGradient:
    def test_zero_at_optimum(self):
        x = np.random.default_rng(4).uniform(size=(2, 3, 3))
        assert (loss_gradient(x, x, np.ones((3, 3))) == 0).all()

    def test_analytic_form(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(size=(2, 3, 3))
        gt = rng.uniform(size=(2, 3, 3))
        mask = rng.integers(0, 2, size=(3, 3)).astype(np.float64)
        np.testing.assert_allclose(loss_gradient(pred, gt, mask),
                                   2.0 * mask * (pred - gt), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(size=(3, 4, 5))
        gt = rng.uniform(size=(3, 4, 5))
        mask = (rng.uniform(size=(4, 5)) > 0.3).astype(np.float64)
        grad = loss_gradient(pred, gt, mask)
        h = 1e-4
        flat = pred.ravel()
        for idx in rng.choice(flat.size, size=20, replace=False):
            bumped = flat.copy()
            bumped[idx] += h
            up = joint_loss(bumped.reshape(pred.shape), gt, mask)
            bumped[idx] -= 2 * h
            down = joint_loss(bumped.reshape(pred.shape), gt, mask)
            fd = (up - down) / (2 * h)
            g = grad.ravel()[idx]
            if abs(g) > 1e-6:
                assert abs(fd - g) / abs(g) <= 1e-3
            else:
                assert abs(fd) <= 1e-5

    def test_preserves_dtype(self):
        pred = np.zeros((1, 2, 2), dtype=np.float32)
        gt = np.ones((1, 2, 2), dtype=np.float32)
        assert loss_gradient(pred, gt, np.ones((2, 2))).dtype == np.float32

