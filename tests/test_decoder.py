import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mlnpose import decoder
from mlnpose.decoder import (DecodeParams, Peaks, _limb_dots, _limb_scores,
                             assemble_skeletons, decode, find_all_peaks, match_all_limbs)
from mlnpose.groundtruth import GtConfig, render_joint_maps, render_pafs
from mlnpose.skeleton import Keypoint, Person, SkeletonDef, default_skeleton
from mlnpose.synth import NoiseSpec, SceneConfig, corrupt_maps, derive_seed, sample_scene
from mlnpose.tensor_ops import ShapeError
from oracles import bilinear, greedy_matches, nms_rows, optimal_assignment, validate_person

ONE = SkeletonDef(("a",), (), background_channel=False)
PAIR = SkeletonDef(("a", "b"), ((0, 1),), background_channel=False)


def gaussian_map(h, w, cx, cy, sigma=3.0):
    ys, xs = np.mgrid[0:h, 0:w]
    m = np.exp(-(((xs + 0.5) - cx) ** 2 + ((ys + 0.5) - cy) ** 2) / sigma ** 2)
    return m.astype(np.float32)


def in_px(peaks, stride):
    """A Peaks table in map cells scaled to px at stride, as decode scales it."""
    return Peaks(peaks.joint_type, peaks.x * stride, peaks.y * stride, peaks.score)


def nms(score_map, params, stride):
    """The Peaks table of find_all_peaks on a 1-map stack, in px at stride."""
    return in_px(find_all_peaks(np.asarray(score_map)[None], ONE, params)[1], stride)


class TestNms:
    def test_single_gaussian_subpixel(self):
        # Annotation at (20, 30) on a stride-1 map: the recovered peak
        # should land within half a pixel.
        m = gaussian_map(60, 60, 20.0, 30.0, sigma=7.0)
        peaks = nms(m, DecodeParams(), stride=1)
        assert len(peaks) == 1
        assert abs(peaks.x[0] - 20.0) <= 0.5
        assert abs(peaks.y[0] - 30.0) <= 0.5

    def test_two_separated_gaussians(self):
        m = np.maximum(gaussian_map(60, 80, 15.0, 20.0), gaussian_map(60, 80, 60.0, 45.0))
        peaks = nms(m, DecodeParams(), stride=1)
        assert len(peaks) == 2
        got = sorted((round(x), round(y)) for x, y in zip(peaks.x, peaks.y))
        assert got == [(15, 20), (60, 45)]

    def test_all_zero(self):
        assert len(nms(np.zeros((10, 10), np.float32), DecodeParams(), stride=1)) == 0

    def test_threshold(self):
        m = 0.05 * gaussian_map(20, 20, 10.0, 10.0)
        assert len(nms(m, DecodeParams(nms_threshold=0.1), stride=1)) == 0
        assert len(nms(m, DecodeParams(nms_threshold=0.01), stride=1)) == 1

    def test_plateau_suppressed_to_one(self):
        m = np.zeros((10, 10), np.float32)
        m[4:6, 4:6] = 1.0
        peaks = nms(m, DecodeParams(), stride=1)
        assert len(peaks) == 1

    def test_stride_scaling(self):
        m = np.zeros((10, 10), np.float32)
        m[3, 4] = 1.0
        peaks = nms(m, DecodeParams(), stride=8)
        assert peaks.x[0] == pytest.approx((4 + 0.5) * 8)
        assert peaks.y[0] == pytest.approx((3 + 0.5) * 8)
        # decode scales the peaks by its own stride, once.
        joints = np.zeros((2, 10, 10), np.float32)
        joints[0, 3, 4] = joints[1, 6, 4] = 1.0
        for stride in (6, 8):
            [person] = decode(joints, np.zeros((2, 10, 10), np.float32), PAIR,
                              DecodeParams(filters_enabled=False), stride=stride)
            assert person.keypoints[0].x == (4 + 0.5) * stride
            assert person.keypoints[1].y == (6 + 0.5) * stride

    def test_ids_and_metadata(self):
        m = np.zeros((10, 10), np.float32)
        m[2, 2] = 1.0
        m[7, 7] = 0.8
        peaks = nms(m, DecodeParams(), stride=1)
        assert len(peaks) == 2
        assert peaks.joint_type.tolist() == [0, 0]
        assert peaks.score.tolist() == [1.0, np.float32(0.8)]

    def test_rejects_bad_ndim(self):
        # decode checks the stacks it hands to find_all_peaks.
        for joints, limbs in [((2, 3), (2, 3, 3)), ((1, 2, 3, 3), (2, 3, 3)),
                              ((2, 3, 3), (1, 2, 3, 3))]:
            with pytest.raises(ShapeError, match="must be 3-D"):
                decode(np.zeros(joints), np.zeros(limbs), PAIR)


# float32 map values that make NMS edge cases likely: plateaus and
# equal neighbours (few distinct values), cells exactly at a threshold,
# and the largest magnitudes, whose sub-pixel fit in float64 must not
# overflow. 0.7 rounds to just below the float64 threshold 0.7.
F32_MAX = float(np.finfo(np.float32).max)
NMS_VALUES = [np.float32(v) for v in (0.0, 0.05, 0.1, 0.5, 0.7, 1.0, -0.0, F32_MAX, -F32_MAX)]


def table_rows(peaks):
    return zip(peaks.joint_type.tolist(), peaks.x.tolist(), peaks.y.tolist(),
               peaks.score.tolist())


def row_bits(rows):
    """(joint_type, x, y, score) rows with each float as its bytes."""
    return [(j, *(np.float64(v).tobytes() for v in row)) for j, *row in rows]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stack=hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=7),
                        elements=st.one_of(st.sampled_from(NMS_VALUES),
                                           st.floats(-1.0, 2.0, width=32))),
       threshold=st.sampled_from([0.0, 0.1, 0.5, 0.7, 1.0]))
def test_stack_nms_matches_scalar_oracle(stack, threshold):
    # Shapes include 1x1, 1xW and Hx1 maps, so every cell can sit on a
    # border. Both the NMS and the oracle run with RuntimeWarning as an
    # error, so neither fit may overflow. The oracle at stride 1 gives
    # positions in map cells.
    params = DecodeParams(nms_threshold=threshold)
    want = nms_rows(stack, threshold, 1)
    sk = SkeletonDef(tuple(f"j{k}" for k in range(len(stack))), (),
                     background_channel=False)
    peaks_by_type, peaks = find_all_peaks(stack, sk, params)
    assert row_bits(table_rows(peaks)) == row_bits(want)
    # Each per-type view holds its joint type's rows, a contiguous run of
    # the table (a peak's id is its row there).
    start = 0
    for joint_type, view in enumerate(peaks_by_type):
        rows = [row for row in want if row[0] == joint_type]
        assert row_bits(table_rows(view)) == row_bits(rows)
        assert row_bits(rows) == row_bits(want[start:start + len(rows)])
        start += len(rows)


@st.composite
def sparse_stacks(draw):
    """(stack, threshold): float32 maps mostly below the threshold, with
    isolated bumps and plateaus at or above it, and pairs of cells on the
    seam between one map's last row and the next map's first row."""
    m, h, w = (draw(st.integers(1, n)) for n in (4, 16, 16))
    threshold = draw(st.sampled_from([0.1, 0.5, 0.7]))
    rounded = float(np.float32(threshold))  # 0.1 rounds up, 0.7 down
    below = st.one_of(st.sampled_from([np.float32(v) for v in (0.0, -0.0, -F32_MAX)]),
                      st.floats(-1.0, rounded, exclude_max=True, width=32))
    above = st.one_of(st.sampled_from([np.float32(v) for v in (rounded, 0.7, 1.0, F32_MAX)]),
                      st.floats(rounded, 2.0, width=32))
    stack = draw(hnp.arrays(np.float32, (m, h, w), elements=below, fill=st.just(0.0)))
    for _ in range(draw(st.integers(0, 6))):
        j, r, c = (draw(st.integers(0, n - 1)) for n in (m, h, w))
        dh, dw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            patch = draw(above)  # a plateau
        else:
            patch = draw(hnp.arrays(np.float32, (dh, dw), elements=st.one_of(above, below)))
        stack[j, r:r + dh, c:c + dw] = patch[:h - r, :w - c] if np.ndim(patch) else patch
    for _ in range(draw(st.integers(0, 3)) if m > 1 else 0):
        j, c = draw(st.integers(0, m - 2)), draw(st.integers(0, w - 1))
        stack[j, h - 1, c], stack[j + 1, 0, c] = draw(above), draw(above)
    return stack, threshold


def seam_stack(h, w, last, first):
    """Two float32 h x w maps below 0.5 save one cell each: `last` at the
    first map's last row and `first` right below it, at the second map's
    first row (the next row of the (2 * h, w) row view)."""
    stack = np.zeros((2, h, w), np.float32)
    stack[0, h - 1, w // 2], stack[1, 0, w // 2] = last, first
    return stack


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=sparse_stacks())
@example(case=(seam_stack(3, 4, 0.6, 1.0), 0.5))
@example(case=(seam_stack(3, 4, 1.0, 0.6), 0.5))
@example(case=(seam_stack(1, 5, 0.6, 1.0), 0.5))
@example(case=(seam_stack(4, 1, 1.0, 0.6), 0.5))
def test_sparse_stack_nms_matches_scalar_oracle(case):
    # Rows with no cell at the threshold sit next to rows that hold one,
    # and a map's last row meets the next map's first in the row view:
    # a peak on either side of that seam is a peak whichever side is
    # larger. The explicit examples put each order on 1-row, 1-column and
    # taller maps; each has one peak per map.
    stack, threshold = case
    want = nms_rows(stack, threshold, 1)
    sk = SkeletonDef(tuple(f"j{k}" for k in range(len(stack))), (),
                     background_channel=False)
    _, peaks = find_all_peaks(stack, sk, DecodeParams(nms_threshold=threshold))
    assert row_bits(table_rows(peaks)) == row_bits(want)


def test_seam_examples_hold_a_peak_per_map():
    # The explicit examples above are not vacuous: the oracle finds the
    # peak on each side of the seam, whichever side is larger.
    for last, first in ((0.6, 1.0), (1.0, 0.6)):
        for h, w in ((3, 4), (1, 5), (4, 1)):
            rows = nms_rows(seam_stack(h, w, last, first), 0.5, 1)
            assert ([(j, score) for j, _, _, score in rows]
                    == [(0, np.float32(last)), (1, np.float32(first))])


def peak_table(*specs):
    """Peaks from (id, joint type, x, y, score) specs with ids 0, 1, ..."""
    assert [spec[0] for spec in specs] == list(range(len(specs)))
    _, joint_type, x, y, score = (np.array(column) for column in zip(*specs))
    return Peaks(joint_type, x.astype(np.float64), y.astype(np.float64),
                 score.astype(np.float64))


def pair_peaks(a, b):
    """Per-type Peaks of PAIR: joint a at the (x, y) px points a and joint
    b at the points b, in map cells at stride 8, each scored 1.0; ids run
    through a, then b."""
    table = peak_table(*((k, int(k >= len(a)), x / 8, y / 8, 1.0)
                         for k, (x, y) in enumerate(a + b)))
    return [table.rows(0, len(a)), table.rows(len(a), len(table))]


def match(a, b, paf, params):
    """The (peak_a, peak_b) id pairs match_all_limbs accepts for PAIR's
    one limb."""
    return match_all_limbs(pair_peaks(a, b), paf, PAIR, params)[0]


def pair_scores(a, b, paf, params):
    """_limb_scores of every (a, b) pair of PAIR's one limb, from px
    points at stride 8, each an (len(a), len(b)) array: (scores, valid
    fractions)."""
    (ax, ay), (bx, by) = (np.array(points, dtype=np.float64).reshape(-1, 2).T / 8
                          for points in (a, b))
    na, nb = len(ax), len(bx)
    scores, valid = _limb_scores(np.repeat(ax, nb), np.repeat(ay, nb), np.tile(bx, na),
                                 np.tile(by, na), np.zeros(na * nb, dtype=np.int64), paf,
                                 params)
    return scores.reshape(na, nb), valid.reshape(na, nb)


class TestConnectionScore:
    def setup_method(self):
        self.cfg = GtConfig(limb_half_width=8.0, output_stride=8)
        self.params = DecodeParams()
        self.off = DecodeParams(filters_enabled=False)

    def test_ideal_limb_scores_one(self):
        # Endpoints on cell centers keep every line sample inside the
        # rendered unit-vector region.
        person = Person([Keypoint(20.0, 36.0), Keypoint(84.0, 36.0)])
        paf = render_pafs([person], PAIR, self.cfg, (12, 14))
        a, b = [(20.0, 36.0)], [(84.0, 36.0)]
        assert match(a, b, paf, self.params) == [(0, 1)]
        [[score]], [[valid]] = pair_scores(a, b, paf, self.params)
        assert score == pytest.approx(1.0, abs=1e-3)
        assert valid == 1.0

    def test_reversed_segment_scores_minus_one(self):
        person = Person([Keypoint(20.0, 36.0), Keypoint(84.0, 36.0)])
        paf = render_pafs([person], PAIR, self.cfg, (12, 14))
        a, b = [(84.0, 36.0)], [(20.0, 36.0)]
        assert match(a, b, paf, self.off) == [(0, 1)]
        [[score]], _ = pair_scores(a, b, paf, self.off)
        assert score == pytest.approx(-1.0, abs=1e-3)

    def test_perpendicular_field_scores_zero(self):
        paf = np.zeros((2, 12, 14), dtype=np.float32)
        paf[1] = 1.0  # field points straight down everywhere
        a, b = [(20.0, 36.0)], [(84.0, 36.0)]
        assert match(a, b, paf, self.off) == [(0, 1)]
        [[score]], _ = pair_scores(a, b, paf, self.off)
        assert score == pytest.approx(0.0, abs=1e-9)

    def test_zero_field_scores_zero(self):
        paf = np.zeros((2, 12, 14), dtype=np.float32)
        a, b = [(20.0, 36.0)], [(84.0, 36.0)]
        assert match(a, b, paf, self.off) == [(0, 1)]
        [[score]], [[valid]] = pair_scores(a, b, paf, self.off)
        assert score == 0.0
        assert valid == 0.0

    def test_matches_dense_sampling_oracle(self):
        # Average of the dot product at a very fine sampling of the
        # segment; D evenly spaced samples should agree closely on a
        # smooth field.
        rng = np.random.default_rng(0)
        coarse = rng.normal(size=(2, 4, 5))
        paf = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2).astype(np.float32)
        (ax, ay), (bx, by) = (30.0, 40.0), (120.0, 90.0)
        assert match([(ax, ay)], [(bx, by)], paf, self.off) == [(0, 1)]
        [[score]], _ = pair_scores([(ax, ay)], [(bx, by)], paf, self.off)
        t = np.linspace(0.0, 1.0, 20_001)
        px = ax + (bx - ax) * t
        py = ay + (by - ay) * t
        u, v = px / 8 - 0.5, py / 8 - 0.5
        d = np.hypot(bx - ax, by - ay)
        ux, uy = (bx - ax) / d, (by - ay) / d
        dense = (bilinear(paf[0].astype(np.float64), u, v) * ux
                 + bilinear(paf[1].astype(np.float64), u, v) * uy).mean()
        assert abs(score - dense) <= 0.05


class TestMatchLimb:
    def setup_method(self):
        self.cfg = GtConfig(limb_half_width=8.0, output_stride=8)
        self.off = DecodeParams(filters_enabled=False)

    def two_person_paf(self):
        people = [Person([Keypoint(20.0, 36.0), Keypoint(84.0, 36.0)]),
                  Person([Keypoint(20.0, 132.0), Keypoint(84.0, 132.0)])]
        return people, render_pafs(people, PAIR, self.cfg, (24, 14))

    def test_empty_candidates(self):
        paf = np.zeros((2, 8, 8), dtype=np.float32)
        assert match([], [(1, 1)], paf, self.off) == []
        assert match([(1, 1)], [], paf, self.off) == []

    def test_single_pair(self):
        _, paf = self.two_person_paf()
        conns = match([(20.0, 36.0)], [(84.0, 36.0)], paf, self.off)
        assert conns == [(0, 1)]

    def test_two_by_two_matches_exhaustive_oracle(self):
        _, paf = self.two_person_paf()
        a, b = pair_peaks([(20.0, 36.0), (20.0, 132.0)], [(84.0, 36.0), (84.0, 132.0)])
        got = set(match_all_limbs([a, b], paf, PAIR, self.off)[0])
        scores, _ = _limb_scores(np.repeat(a.x, 2), np.repeat(a.y, 2), np.tile(b.x, 2),
                                 np.tile(b.y, 2), np.zeros(4, dtype=np.int64), paf,
                                 self.off)
        pairs, _ = optimal_assignment(scores.reshape(2, 2))
        want = {(i, len(a) + j) for i, j in pairs}
        assert got == want == {(0, 2), (1, 3)}

    def test_one_use_per_peak(self):
        _, paf = self.two_person_paf()
        conns = match([(20.0, 36.0)], [(84.0, 36.0), (84.0, 44.0)], paf, self.off)
        assert len(conns) == 1

    def test_filters_reject_weak_pairs(self):
        paf = np.zeros((2, 24, 14), dtype=np.float32)
        conns = match([(20.0, 36.0)], [(84.0, 36.0)], paf, DecodeParams(filters_enabled=True))
        assert conns == []

    def test_coincident_pair_never_accepted(self):
        # A zero-length pair scores NaN without a 0/0 in the kernel (the
        # CI runs this module with RuntimeWarning as an error); the other
        # b peak still matches.
        _, paf = self.two_person_paf()
        a, b = [(20.0, 36.0)], [(20.0, 36.0), (84.0, 36.0)]
        assert match(a, b, paf, self.off) == [(0, 2)]
        assert match(a, b[:1], paf, self.off) == []

    def test_ties_break_on_peak_ids(self):
        # A zero field scores every pair 0.0; with filters off, pairs
        # are taken in (a.id, b.id) order.
        paf = np.zeros((2, 24, 14), dtype=np.float32)
        a, b = [(20.0, 36.0), (20.0, 132.0)], [(84.0, 132.0), (84.0, 36.0)]
        assert match(a, b, paf, self.off) == [(0, 2), (1, 3)]
        scores, _ = pair_scores(a, b, paf, self.off)
        assert scores.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_scaling_preserves_matching(self):
        _, paf = self.two_person_paf()
        a, b = [(20.0, 36.0), (20.0, 132.0)], [(84.0, 36.0), (84.0, 132.0)]
        conns = match(a, b, paf, self.off)
        assert match(a, b, 0.3 * paf, self.off) == conns
        base, _ = pair_scores(a, b, paf, self.off)
        scaled, _ = pair_scores(a, b, 0.3 * paf, self.off)
        for i, j in conns:  # a ids are rows 0, 1 and b ids 2, 3
            assert scaled[i, j - 2] == pytest.approx(0.3 * base[i, j - 2], rel=1e-6)

    def test_deterministic(self):
        _, paf = self.two_person_paf()
        a, b = [(20.0, 36.0), (20.0, 132.0)], [(84.0, 36.0), (84.0, 132.0)]
        assert match(a, b, paf, self.off) == match(a, b, paf, self.off)


class TestMatchAllLimbs:
    def test_empty_peaks(self):
        sk = default_skeleton()
        params = DecodeParams()
        pafs = np.zeros((38, 10, 10), dtype=np.float32)
        peaks_by_type, _ = find_all_peaks(np.zeros((18, 10, 10), np.float32), sk, params)
        assert [len(peaks) for peaks in peaks_by_type] == [0] * 18
        conns = match_all_limbs(peaks_by_type, pafs, sk, params)
        assert conns == [[] for _ in range(19)]


# Three limb types over three joint types, so that each joint type sits
# in two limb types and a peak used by one of them is free in the other.
TRIANGLE = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2), (0, 2)), background_channel=False)
# Coordinates on a 4 px grid from 0 to 48 px, which holds the cell
# centres of a 5x6 map at stride 8 and runs past its bottom edge, and
# field values from a short list, so that peaks coincide and scores tie.
GRID = st.integers(0, 12).map(lambda k: 4.0 * k)
FIELD = [-1.0, -0.5, 0.0, 0.5, 1.0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(points=st.lists(st.lists(st.tuples(GRID, GRID), max_size=6), min_size=3, max_size=3),
       paf=hnp.arrays(np.float32, (6, 5, 6), elements=st.sampled_from(FIELD)),
       filters=st.booleans())
def test_one_pass_matches_greedy_oracle(points, paf, filters):
    # Every limb type's accepted id pairs, in order, are the plain greedy
    # rule applied to that limb type's own _limb_scores matrix.
    params = DecodeParams(filters_enabled=filters)
    counts = [len(pts) for pts in points]
    xy = np.array([p for pts in points for p in pts], dtype=np.float64).reshape(-1, 2) / 8
    table = Peaks(np.repeat(np.arange(3), counts), xy[:, 0], xy[:, 1], np.ones(len(xy)))
    ends = np.cumsum(counts).tolist()
    peaks_by_type = [table.rows(start, stop) for start, stop in zip([0] + ends, ends)]
    assert (match_all_limbs(peaks_by_type, paf, TRIANGLE, params)
            == greedy_by_limb(peaks_by_type, paf, TRIANGLE, params))


def greedy_by_limb(peaks_by_type, limb_maps, skeleton, params):
    """The plain greedy rule applied to the full _limb_scores matrix of
    each limb type: the accepted (peak_a, peak_b) id pairs per limb type,
    where the peaks of peaks_by_type[j] have ids from first[j] on."""
    first = np.cumsum([0] + [len(p) for p in peaks_by_type]).tolist()
    want = []
    for limb_type, (ja, jb) in enumerate(skeleton.limbs):
        a, b = peaks_by_type[ja], peaks_by_type[jb]
        na, nb = len(a), len(b)
        scores, valid = _limb_scores(np.repeat(a.x, nb), np.repeat(a.y, nb), np.tile(b.x, na),
                                     np.tile(b.y, na), np.full(na * nb, 2 * limb_type),
                                     limb_maps, params)
        want.append([(first[ja] + i, first[jb] + j) for i, j in
                     greedy_matches(scores.reshape(na, nb), valid.reshape(na, nb), params)])
    return want


@st.composite
def probe_params(draw):
    """Filters-on DecodeParams whose min_valid_fraction is 0, 1, an exact
    c / n boundary of num_samples n, or a float next to one."""
    n = draw(st.integers(2, 12))
    c = draw(st.integers(0, n))
    fraction = draw(st.sampled_from([c / n, np.nextafter(c / n, 0.0),
                                     np.nextafter(c / n, 1.0), 0.0, 1.0]))
    return DecodeParams(num_samples=n, min_valid_fraction=float(fraction),
                        sample_threshold=draw(st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0])))


# Fields that are mostly 0.0, where most pairs fail every sample, and
# fields of unit vectors along +x with a few zero cells, where pairs
# pass most samples and fail those near a hole, in the middle or not.
SPARSE_FIELD = hnp.arrays(np.float32, (6, 5, 6), elements=st.sampled_from(FIELD),
                          fill=st.just(np.float32(0.0)))
HOLED_FIELD = hnp.arrays(np.bool_, (3, 5, 6), elements=st.just(True),
                         fill=st.just(False)).map(
    lambda holes: np.stack([~holes, np.zeros_like(holes)], axis=1)
    .reshape(6, 5, 6).astype(np.float32))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(points=st.lists(st.lists(st.tuples(GRID, GRID), max_size=6), min_size=3, max_size=3),
       paf=st.one_of(SPARSE_FIELD, HOLED_FIELD), params=probe_params())
def test_probe_pass_matches_greedy_oracle(points, paf, params):
    # The probe pass drops pairs before scoring; what it keeps must
    # match as if every pair had been scored in full.
    counts = [len(pts) for pts in points]
    xy = np.array([p for pts in points for p in pts], dtype=np.float64).reshape(-1, 2) / 8
    table = Peaks(np.repeat(np.arange(3), counts), xy[:, 0], xy[:, 1], np.ones(len(xy)))
    ends = np.cumsum(counts).tolist()
    peaks_by_type = [table.rows(start, stop) for start, stop in zip([0] + ends, ends)]
    assert (match_all_limbs(peaks_by_type, paf, TRIANGLE, params)
            == greedy_by_limb(peaks_by_type, paf, TRIANGLE, params))


@pytest.mark.parametrize("n", range(2, 13))
def test_pair_failing_the_most_middle_samples_allowed_is_kept(n):
    # Samples k = 0 .. n-1 of a segment from (4, 4) to (4 + 8 (n-1), 4)
    # fall on the cell centres of a 1 x n field of unit vectors along
    # +x. Zeroing the f cells nearest the middle fails exactly f samples:
    # with min_valid_fraction c / n the pair is kept for f = n - c and
    # dropped for f = n - c + 1.
    middle = sorted(range(n), key=lambda k: abs(2 * k - (n - 1)))
    for c in range(1, n + 1):
        params = DecodeParams(num_samples=n, min_valid_fraction=c / n)
        for failed, want in ((n - c, [(0, 1)]), (n - c + 1, [])):
            paf = np.zeros((2, 1, n), dtype=np.float32)
            paf[0, 0] = 1.0
            paf[0, 0, middle[:failed]] = 0.0
            assert match([(4.0, 4.0)], [(4.0 + 8 * (n - 1), 4.0)], paf, params) == want


# Corrupted crowd scenes: joint maps get noise and false peaks, limb
# fields noise only and no clamp.
CROWD_JOINT_NOISE = NoiseSpec(map_sigma=0.02, false_peak_count=40)
CROWD_LIMB_NOISE = NoiseSpec(map_sigma=0.02)


def crowd_scene(seed, stride=8):
    """Joint and limb stacks of a corrupted ten-person 368x432 scene,
    rendered at stride."""
    sk, cfg = default_skeleton(), GtConfig(output_stride=stride)
    people = sample_scene(SceneConfig(image_dims=(368, 432), person_count=(10, 10),
                                      limb_length_range=(8.0, 16.0), min_spacing=80.0,
                                      seed=seed))
    dims = (368 // stride, 432 // stride)
    joints = corrupt_maps(render_joint_maps(people, sk, cfg, dims), CROWD_JOINT_NOISE, seed)
    limbs = corrupt_maps(render_pafs(people, sk, cfg, dims), CROWD_LIMB_NOISE, seed + 1,
                         clamp=None)
    return joints, limbs


@pytest.mark.parametrize("params", [DecodeParams(), DecodeParams(min_valid_fraction=0.5)])
def test_probe_pass_on_crowd_scenes(params, monkeypatch):
    # On 20 corrupted crowd scenes every limb type matches as the greedy
    # rule on its full score matrix, and most pairs are never scored in
    # full.
    # greedy_by_limb calls this module's own _limb_scores, which the
    # patch leaves as it is; only match_all_limbs' calls are counted.
    sk = default_skeleton()
    full = []

    def counted(ax, *args):
        full.append(len(ax))
        return _limb_scores(ax, *args)

    monkeypatch.setattr(decoder, "_limb_scores", counted)
    candidates = 0
    for seed in range(20):
        joints, limbs = crowd_scene(derive_seed(15, seed))
        peaks_by_type, _ = find_all_peaks(joints, sk, params)
        candidates += sum(len(peaks_by_type[a]) * len(peaks_by_type[b]) for a, b in sk.limbs)
        assert (match_all_limbs(peaks_by_type, limbs, sk, params)
                == greedy_by_limb(peaks_by_type, limbs, sk, params))
    assert sum(full) < 0.25 * candidates


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ends=st.lists(st.tuples(*[st.floats(0.0, 48.0)] * 4), max_size=8),
       chan=st.lists(st.sampled_from([0, 2, 4]), min_size=10, max_size=10),
       seed=st.integers(0, 2 ** 16), n=st.integers(2, 12), data=st.data())
def test_limb_dots_subset_matches_full_table(ends, chan, seed, n, data):
    # Any subset of pairs and fractions gives the bits of its cells in the
    # full table. A coincident pair and a pair whose end samples are
    # clipped at the map border are always present.
    ends = [(20.0, 12.0, 20.0, 12.0), (0.0, 0.0, 48.0, 48.0)] + ends
    ax, ay, bx, by = np.array(ends).T / 8
    chan = np.array(chan[:len(ends)])
    paf = np.random.default_rng(seed).normal(size=(6, 5, 6)).astype(np.float32)
    t = np.linspace(0.0, 1.0, n)
    table = _limb_dots(ax, ay, bx, by, chan, paf, t)
    assert table.shape == (len(ends), n)
    rows = np.array(data.draw(st.lists(st.integers(0, len(ends) - 1), max_size=12)), dtype=int)
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)), dtype=int)
    sub = _limb_dots(ax[rows], ay[rows], bx[rows], by[rows], chan[rows], paf, t[cols])
    assert np.array_equal(sub, table[np.ix_(rows, cols)])


class TestLimbStackDtype:
    def pairs(self):
        # Random segments over a 5x6 map plus a coincident pair.
        rng = np.random.default_rng(3)
        ax, ay, bx, by = rng.uniform(0.0, 48.0, size=(4, 30)) / 8
        bx[0], by[0] = ax[0], ay[0]
        return ax, ay, bx, by, rng.choice([0, 2, 4], size=30)

    def test_float32_stack_scores_as_its_float64_widening(self):
        paf = np.random.default_rng(4).normal(size=(6, 5, 6)).astype(np.float32)
        params = DecodeParams()
        scores, valid = _limb_scores(*self.pairs(), paf, params)
        wide_scores, wide_valid = _limb_scores(*self.pairs(), paf.astype(np.float64), params)
        assert np.isnan(scores[0])
        assert np.array_equal(scores, wide_scores, equal_nan=True)
        assert np.array_equal(valid, wide_valid)

    @pytest.mark.parametrize("filters", [True, False])
    def test_no_float64_copy_of_the_limb_stack(self, filters):
        # An 800x1200 scene at stride 8: a float64 copy of its 38x100x150
        # limb stack would take 4.56 MB on its own.
        sk = default_skeleton()
        rng = np.random.default_rng(6)
        limbs = rng.normal(0.0, 0.5, size=(38, 100, 150)).astype(np.float32)
        counts = np.full(sk.num_joints, 4)
        table = Peaks(np.repeat(np.arange(sk.num_joints), counts),
                      rng.uniform(0.0, 1200.0, counts.sum()) / 8,
                      rng.uniform(0.0, 800.0, counts.sum()) / 8, np.ones(counts.sum()))
        ends = np.cumsum(counts).tolist()
        peaks_by_type = [table.rows(start, stop) for start, stop in zip([0] + ends, ends)]
        params = DecodeParams(filters_enabled=filters)
        tracemalloc.start()
        try:
            match_all_limbs(peaks_by_type, limbs, sk, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limbs.size * 8


class TestAssembly:
    def setup_method(self):
        # Chain skeleton a-b-c with limbs (0,1) and (1,2).
        self.sk = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2)))
        self.off = DecodeParams(filters_enabled=False)

    def test_chain_forms_one_person(self):
        peaks = peak_table((0, 0, 10, 10, 1.0), (1, 1, 20, 10, 1.0), (2, 2, 30, 10, 1.0))
        persons = assemble_skeletons([[(0, 1)], [(1, 2)]],
                                     peaks, self.sk, self.off)
        assert len(persons) == 1
        assert [kp is not None for kp in persons[0].keypoints] == [True] * 3

    def test_disjoint_chains_form_two_persons(self):
        peaks = peak_table((0, 0, 10, 10, 1.0), (1, 1, 20, 10, 1.0),
                           (2, 0, 10, 50, 1.0), (3, 1, 20, 50, 1.0))
        persons = assemble_skeletons([[(0, 1), (2, 3)], []],
                                     peaks, self.sk, self.off)
        assert len(persons) == 2

    def test_conflicting_merge_dropped(self):
        # Two persons both already own joint b; a connection linking
        # them would need two ids in one slot and is dropped.
        sk = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2), (0, 2)))
        peaks = peak_table((0, 0, 10, 10, 1.0), (1, 1, 20, 10, 1.0),
                           (2, 2, 30, 10, 1.0), (3, 1, 40, 10, 1.0))
        conns = [[(0, 1)], [(3, 2)], [(0, 2)]]
        persons = assemble_skeletons(conns, peaks, sk, self.off)
        assert len(persons) == 2

    def test_order_by_min_peak_id(self):
        peaks = peak_table((0, 0, 10, 50, 1.0), (1, 1, 20, 50, 1.0),
                           (2, 0, 10, 10, 1.0), (3, 1, 20, 10, 1.0))
        # The second connection creates the person holding peak id 0;
        # output order follows the smallest peak id, not insertion order.
        persons = assemble_skeletons([[(2, 3), (0, 1)], []],
                                     peaks, self.sk, self.off)
        assert persons[0].keypoints[0].y == 50
        assert persons[1].keypoints[0].y == 10

    def test_merge_keeps_creation_order(self):
        # Limb (c, d) creates the first person and limb (a, b) the
        # second; limb (b, c) then merges them. The earlier person
        # absorbs the later one, so the mean part score sums c, d, a, b
        # in that order and reaches the threshold exactly; summed as
        # a, b, c, d it falls short and the person would be dropped.
        assert (0.7 + 0.4 + 0.7 + 0.7) / 4 == 0.625 > (0.7 + 0.7 + 0.7 + 0.4) / 4
        sk = SkeletonDef(("a", "b", "c", "d"), ((2, 3), (0, 1), (1, 2)))
        peaks = peak_table((0, 0, 10, 10, 0.7), (1, 1, 20, 10, 0.7),
                           (2, 2, 30, 10, 0.7), (3, 3, 40, 10, 0.4))
        conns = [[(2, 3)], [(0, 1)], [(1, 2)]]
        params = DecodeParams(min_parts_per_person=4, min_mean_person_score=0.625)
        persons = assemble_skeletons(conns, peaks, sk, params)
        assert len(persons) == 1 and None not in persons[0].keypoints

    def test_min_parts_filter(self):
        peaks = peak_table((0, 0, 10, 10, 1.0), (1, 1, 20, 10, 1.0))
        strict = DecodeParams(min_parts_per_person=3)
        assert assemble_skeletons([[(0, 1)], []], peaks, self.sk, strict) == []
        loose = DecodeParams(min_parts_per_person=2)
        assert len(assemble_skeletons([[(0, 1)], []], peaks, self.sk, loose)) == 1

    def test_mean_score_filter(self):
        peaks = peak_table((0, 0, 10, 10, 0.1), (1, 1, 20, 10, 0.1), (2, 2, 30, 10, 0.1))
        conns = [[(0, 1)], [(1, 2)]]
        strict = DecodeParams(min_mean_person_score=0.5)
        assert assemble_skeletons(conns, peaks, self.sk, strict) == []

    def test_confidence_clamped(self):
        peaks = peak_table((0, 0, 10, 10, 1.7), (1, 1, 20, 10, -0.2))
        persons = assemble_skeletons([[(0, 1)], []], peaks, self.sk, self.off)
        assert persons[0].keypoints[0].confidence == 1.0
        assert persons[0].keypoints[1].confidence == 0.0


class TestDecode:
    def test_round_trip_two_people(self):
        cfg = GtConfig()
        sk = default_skeleton()
        scene = sample_scene(SceneConfig(seed=5, person_count=(2, 2)))
        dims = (100, 150)
        joint_maps = render_joint_maps(scene, sk, cfg, dims)
        pafs = render_pafs(scene, sk, cfg, dims)
        persons = decode(joint_maps, pafs, sk)
        assert len(persons) == 2
        for person in persons:
            assert validate_person(person, sk, (800, 1200)) == []
        # Decoded keypoints must come from actual map peaks: every one
        # should sit near some ground-truth joint of the right type.
        for person in persons:
            gt = min(scene, key=lambda g: abs(g.keypoints[1].x - person.keypoints[1].x))
            for j, kp in enumerate(person.keypoints):
                if kp is None:
                    continue
                d = np.hypot(kp.x - gt.keypoints[j].x, kp.y - gt.keypoints[j].y)
                assert d <= 8.0

    def test_all_zero_maps(self):
        sk = default_skeleton()
        assert decode(np.zeros((19, 10, 10), np.float32), np.zeros((38, 10, 10), np.float32),
                      sk) == []

    def test_limbless_skeleton(self):
        # Peaks but no limb types: nothing connects them, so no one is
        # decoded.
        sk = SkeletonDef(("a", "b"), (), background_channel=False)
        joints = np.stack([gaussian_map(10, 10, 3.0, 3.0), gaussian_map(10, 10, 7.0, 7.0)])
        assert decode(joints, np.zeros((0, 10, 10), np.float32), sk,
                      DecodeParams(filters_enabled=False)) == []

    def test_channel_validation(self):
        sk = default_skeleton()
        with pytest.raises(ShapeError):
            decode(np.zeros((5, 10, 10)), np.zeros((38, 10, 10)), sk)
        with pytest.raises(ShapeError):
            decode(np.zeros((19, 10, 10)), np.zeros((20, 10, 10)), sk)

    def test_rejects_mismatched_map_dims(self):
        # Limb maps at half the joint maps' resolution, or transposed,
        # would otherwise be sampled at the wrong cells.
        cfg = GtConfig()
        sk = default_skeleton()
        scene = sample_scene(SceneConfig(image_dims=(368, 432), person_count=(3, 3),
                                         min_spacing=80.0, seed=5))
        joints = render_joint_maps(scene, sk, cfg, (46, 54))
        for limbs in (render_pafs(scene, sk, cfg, (23, 27)),
                      render_pafs(scene, sk, cfg, (46, 54)).transpose(0, 2, 1)):
            with pytest.raises(ShapeError, match=r"differ in \(H, W\)"):
                decode(joints, limbs, sk)

    def contract_maps(self):
        """(joint, limb) stacks of a neck peak and a shoulder peak on a
        field along +x, finite float32 as decode takes them."""
        joints = np.zeros((19, 8, 8), np.float32)
        joints[1, 3, 3] = joints[2, 3, 6] = 1.0
        limbs = np.zeros((38, 8, 8), np.float32)
        limbs[0] = 1.0
        return joints, limbs

    def assert_refused(self, joints, limbs, message, monkeypatch):
        # ValueError before NMS runs, and no RuntimeWarning on the way.
        monkeypatch.setattr(decoder, "find_all_peaks", lambda *args: pytest.fail("NMS ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                decode(joints, limbs, default_skeleton())

    def test_non_finite_cells_refused_before_nms(self, monkeypatch):
        # The maps decode to one person; an infinite or NaN cell in either
        # stack makes them maps no producer gives.
        off = DecodeParams(filters_enabled=False)
        assert len(decode(*self.contract_maps(), default_skeleton(), off)) == 1
        for kind in ("joint", "limb"):
            for value in (np.inf, -np.inf, np.nan):
                maps = dict(zip(("joint", "limb"), self.contract_maps()))
                maps[kind][1, 3, 4] = value
                self.assert_refused(maps["joint"], maps["limb"],
                                    f"{kind} maps must be finite float32, got NaN or inf",
                                    monkeypatch)

    def test_other_dtypes_refused_before_nms(self, monkeypatch):
        # float64, integer and float16 stacks, even of finite float32 values.
        for kind in ("joint", "limb"):
            for dtype in (np.float64, np.int32, np.float16):
                maps = dict(zip(("joint", "limb"), self.contract_maps()))
                maps[kind] = maps[kind].astype(dtype)
                self.assert_refused(maps["joint"], maps["limb"],
                                    f"{kind} maps must be finite float32, got {dtype.__name__}",
                                    monkeypatch)

    def test_accepts_maps_without_background(self):
        sk = default_skeleton()
        assert decode(np.zeros((18, 10, 10), np.float32), np.zeros((38, 10, 10), np.float32),
                      sk) == []

    def test_deterministic(self):
        cfg = GtConfig()
        sk = default_skeleton()
        scene = sample_scene(SceneConfig(seed=9, person_count=(3, 3)))
        dims = (100, 150)
        joint_maps = render_joint_maps(scene, sk, cfg, dims)
        pafs = render_pafs(scene, sk, cfg, dims)
        assert decode(joint_maps, pafs, sk) == decode(joint_maps, pafs, sk)

    def test_scene_set_people_pinned(self):
        # 20 corrupted ten-person crowd scenes and 20 ideal default
        # 800x1200 scenes, each decoded with filters on and off: the repr
        # of the 80 Person lists (floats print their shortest round trip,
        # so every bit of every keypoint counts) hashes to a fixed digest.
        sk, cfg = default_skeleton(), GtConfig()
        digest = hashlib.sha256()
        for k in range(20):
            scene = sample_scene(SceneConfig(seed=derive_seed(10, k)))
            default = (render_joint_maps(scene, sk, cfg, (100, 150)),
                       render_pafs(scene, sk, cfg, (100, 150)))
            for joints, limbs in (crowd_scene(derive_seed(10, k)), default):
                for filters in (True, False):
                    people = decode(joints, limbs, sk, DecodeParams(filters_enabled=filters))
                    digest.update(repr(people).encode())
        assert digest.hexdigest() == ("acf0c86eefe83783c3e8bc6d4993b77d"
                                      "f907a0beb2bfd28cf6efd1cd201f1cc6")

    @pytest.mark.parametrize("stride, want", [
        (4, "938ae4160146ed1227e33e247e237a920851220da32af0c936296daf3f9510fa"),
        (6, "e96e89ea59835676b6a000dc6ee8f0de2bef90db1889115ba4a20628676241a9"),
    ], ids=["stride4", "stride6"])
    def test_scene_set_people_pinned_at_other_strides(self, stride, want):
        # The set above rendered and decoded at stride 4, and at stride
        # 6, where a px position divided by the stride need not give back
        # the bits of its position in map cells.
        sk, cfg = default_skeleton(), GtConfig(output_stride=stride)
        dims = (800 // stride, 1200 // stride)
        digest = hashlib.sha256()
        for k in range(20):
            scene = sample_scene(SceneConfig(seed=derive_seed(10, k)))
            default = (render_joint_maps(scene, sk, cfg, dims), render_pafs(scene, sk, cfg, dims))
            for joints, limbs in (crowd_scene(derive_seed(10, k), stride), default):
                for filters in (True, False):
                    people = decode(joints, limbs, sk, DecodeParams(filters_enabled=filters),
                                    stride=stride)
                    digest.update(repr(people).encode())
        assert digest.hexdigest() == want


def test_stage_contract_read_by_the_benchmark_tracer(monkeypatch):
    # perfbench/layers.py wraps these module attributes and reads the
    # stage results positionally: len(find_all_peaks(...)[1]), then
    # len(args[0][j]) and args[2] of match_all_limbs and len() of each
    # list it returns, then len() of assemble_skeletons' people.
    sk, cfg = default_skeleton(), GtConfig()
    scene = sample_scene(SceneConfig(image_dims=(368, 432), person_count=(3, 3),
                                     min_spacing=80.0, seed=5))
    joints = render_joint_maps(scene, sk, cfg, (46, 54))
    limbs = render_pafs(scene, sk, cfg, (46, 54))
    calls = {}

    def record(name):
        original = getattr(decoder, name)

        def wrapper(*args, **kwargs):
            calls[name] = args, original(*args, **kwargs)
            return calls[name][1]

        monkeypatch.setattr(decoder, name, wrapper)

    for name in ("find_all_peaks", "match_all_limbs", "assemble_skeletons"):
        record(name)
    people = decode(joints, limbs, sk)
    _, (_, peaks) = calls["find_all_peaks"]
    threshold = DecodeParams().nms_threshold
    assert len(peaks) == len(nms_rows(joints[:sk.num_joints], threshold, 1)) > 0
    args, connections = calls["match_all_limbs"]
    assert args[2] is sk
    assert ([len(args[0][j]) for j in range(sk.num_joints)]
            == np.bincount(peaks.joint_type, minlength=sk.num_joints).tolist())
    assert [type(conns) for conns in connections] == [list] * len(sk.limbs)
    assert sum(len(conns) for conns in connections) > 0
    args, out = calls["assemble_skeletons"]
    assert args[0] is connections and out is people and len(people) == 3


class TestDecodeParams:
    def test_round_trip(self):
        p = DecodeParams(nms_threshold=0.2, filters_enabled=False)
        assert DecodeParams.from_config(p.to_config()) == p

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeParams(num_samples=1)
        with pytest.raises(ValueError):
            DecodeParams(nms_threshold=1.5)
