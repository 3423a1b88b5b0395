import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlnpose import evalkit
from mlnpose.evalkit import (DEFAULT_OKS_CONSTANTS, LARGE_RANGE, MAX_IMAGE_SIDE,
                             MEDIUM_RANGE, OKS_THRESHOLDS, AnnotationError, Detection,
                             GroundTruthInstance, _interpolated_ap, average_precision, oks,
                             parse_annotations, parse_results,
                             write_annotations, write_results)
from mlnpose.skeleton import (Keypoint, Person, SkeletonDef, Visibility,
                              default_skeleton)
from mlnpose.synth import SceneConfig, sample_scene
from oracles import scalar_oks

SK = default_skeleton()


def person_at(cx, cy, spread=20.0):
    kps = [Keypoint(cx + spread * math.cos(0.7 * i), cy + spread * math.sin(0.7 * i))
           for i in range(18)]
    return Person(kps)


def shifted(person, dx, dy, confidence=1.0):
    kps = [None if kp is None else
           Keypoint(kp.x + dx, kp.y + dy, Visibility.VISIBLE, confidence)
           for kp in person.keypoints]
    return Person(kps)


class TestOks:
    def test_perfect_match(self):
        p = person_at(100, 100)
        assert oks([p], [p], [5000.0])[0, 0] == pytest.approx(1.0)

    def test_far_detection(self):
        p = person_at(100, 100)
        assert oks([shifted(p, 5000, 5000)], [p], [5000.0])[0, 0] < 1e-6

    def test_analytic_single_joint(self):
        # One labeled joint displaced by d: OKS = exp(-d^2 / (2 a k^2)).
        sk_small = SkeletonDef(("a", "b"), ((0, 1),))
        k = DEFAULT_OKS_CONSTANTS[0]
        area = 4000.0
        d = math.sqrt(2.0 * area) * k  # makes the exponent exactly -1
        gt = Person([Keypoint(50.0, 50.0), None])
        det = Person([Keypoint(50.0 + d, 50.0), None])
        assert oks([det], [gt], [area])[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_missing_detected_keypoint_contributes_zero(self):
        gt = Person([Keypoint(10, 10), Keypoint(20, 20)])
        det = Person([Keypoint(10, 10), None])
        assert oks([det], [gt], [4000.0])[0, 0] == pytest.approx(0.5)

    def test_unlabeled_gt_excluded(self):
        gt = Person([Keypoint(10, 10), None])
        det = Person([Keypoint(10, 10), Keypoint(0, 0)])
        assert oks([det], [gt], [4000.0])[0, 0] == pytest.approx(1.0)

    def test_no_labeled_keypoints_raises(self):
        gt = Person([None, None])
        with pytest.raises(ValueError):
            oks([Person([Keypoint(1, 1), None])], [gt], [100.0])

    def test_larger_area_more_forgiving(self):
        gt = person_at(100, 100)
        det = shifted(gt, 8, 0)
        assert oks([det], [gt], [10000.0])[0, 0] > oks([det], [gt], [2000.0])[0, 0]


_coord = st.floats(-1000.0, 1000.0)
# Offsets from a ground-truth joint: near (OKS terms between 0 and 1) and
# far enough that exp underflows to 0 at every area drawn below.
_offset = st.sampled_from([0.0, 0.5, -2.0, 7.0]) | st.floats(-30.0, 30.0) | st.just(1e6)
_area = st.sampled_from([1e-6, 1e-3, 32.0 ** 2, 96.0 ** 2, 1e9]) | st.floats(1.0, 1e6)
_visibility = st.sampled_from(list(Visibility))


@st.composite
def _oks_case(draw):
    """Detections and ground truths of one image: GT joints may be
    unlabeled (None), detections may miss joints or have fewer (or more)
    keypoints than there are constants."""
    constants = draw(st.just(DEFAULT_OKS_CONSTANTS)
                     | st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6).map(tuple))
    m = len(constants)
    gts = []
    for _ in range(draw(st.integers(1, 3))):
        kps = [draw(st.none() | st.builds(Keypoint, _coord, _coord, _visibility))
               for _ in range(m)]
        labeled = draw(st.integers(0, m - 1))
        kps[labeled] = Keypoint(draw(_coord), draw(_coord))
        gts.append(Person(kps))
    dets = []
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(gts)).keypoints
        kps = [None if kp is None or draw(st.integers(0, 4)) == 0
               else Keypoint(kp.x + draw(_offset), kp.y + draw(_offset),
                             confidence=0.5)
               for kp in base]
        dets.append(Person((kps + [Keypoint(1.0, 1.0)] * 2)[:draw(st.integers(0, m + 2))]))
    areas = [draw(_area) for _ in gts]
    return dets, gts, areas, constants


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_oks_case())
def test_oks_table_matches_scalar_oracle(case):
    dets, gts, areas, constants = case
    table = oks(dets, gts, areas, constants)
    want = np.array([[scalar_oks(d, g, a, constants) for g, a in zip(gts, areas)]
                     for d in dets]).reshape(len(dets), len(gts))
    assert table.shape == want.shape and table.dtype == np.float64
    # rtol covers the rare 1-ulp difference of libm pow(v, 2) against
    # v * v; atol covers only subnormal terms, which carry fewer bits.
    np.testing.assert_allclose(table, want, rtol=1e-12, atol=np.finfo(float).tiny)


def brute_force_ap(dets, gts, threshold, constants=DEFAULT_OKS_CONSTANTS,
                   area_range=None):
    """Independent AP: explicit greedy matching and 101-point sums.

    With area_range=(lo, hi), a GT is in the band when lo < area <= hi.
    Only in-band GTs count and can be matched. A detection that matches
    none of them but reaches the threshold against an out-of-band GT of
    its image is dropped: neither a hit nor a false positive. GTs with no
    labeled keypoints are left out.
    """
    def in_band(gt):
        return area_range is None or area_range[0] < gt.area <= area_range[1]

    gts = [g for g in gts if g.person.labeled_count()]
    gt_pool = [{"gt": g, "used": False} for g in gts]
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    flags = []
    for i in order:
        det = dets[i]
        best, best_val = None, threshold
        for entry in gt_pool:
            if (entry["used"] or entry["gt"].image_id != det.image_id
                    or not in_band(entry["gt"])):
                continue
            val = scalar_oks(det.person, entry["gt"].person, entry["gt"].area, constants)
            if val >= threshold and (best is None or val > best_val):
                best, best_val = entry, val
        if best is not None:
            best["used"] = True
            flags.append(True)
        elif not any(g.image_id == det.image_id and not in_band(g)
                     and scalar_oks(det.person, g.person, g.area, constants) >= threshold
                     for g in gts):
            flags.append(False)
    num_gt = sum(1 for g in gts if in_band(g))
    if not num_gt:
        return -1.0
    if not flags:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum([not f for f in flags])
    recall = tp / num_gt
    precision = tp / (tp + fp)
    total = 0.0
    for r in np.linspace(0, 1, 101):
        cands = precision[recall >= r]
        total += cands.max() if cands.size else 0.0
    return total / 101.0


def make_eval_set(num_images=20, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    gts, dets = [], []
    for image_id in range(num_images):
        scene = sample_scene(SceneConfig(seed=seed * 1000 + image_id,
                                         person_count=(1, 4)))
        for person in scene:
            xs = [kp.x for kp in person.keypoints]
            ys = [kp.y for kp in person.keypoints]
            area = (max(xs) - min(xs)) * (max(ys) - min(ys))
            gts.append(GroundTruthInstance(image_id, person, area))
            dx, dy = rng.normal(0, noise, size=2) if noise else (0.0, 0.0)
            conf = float(rng.uniform(0.5, 1.0))
            dets.append(Detection(image_id, shifted(person, dx, dy, conf)))
    return dets, gts


def scaled(person, factor):
    """The person scaled by factor about its first keypoint."""
    ox, oy = person.keypoints[0].x, person.keypoints[0].y
    return Person([Keypoint(ox + factor * (kp.x - ox), oy + factor * (kp.y - oy))
                   for kp in person.keypoints])


def bbox_area(person):
    xs = [kp.x for kp in person.keypoints]
    ys = [kp.y for kp in person.keypoints]
    return (max(xs) - min(xs)) * (max(ys) - min(ys))


def make_mixed_area_set(num_images=12, noise=6.0, seed=5):
    """Noisy detections of GTs scaled into the small (< 32^2), medium and
    large bands, plus a false positive per image, a detection on an image
    with no GTs, and a detected GT whose area is exactly 96^2."""
    rng = np.random.default_rng(seed)
    gts, dets = [], []
    for image_id in range(num_images):
        scene = sample_scene(SceneConfig(seed=seed * 1000 + image_id,
                                         person_count=(2, 5)))
        for person in scene:
            factor = float(rng.choice([0.3, 1.0, 2.0]))
            person = scaled(person, factor)
            gts.append(GroundTruthInstance(image_id, person, bbox_area(person)))
            dx, dy = rng.normal(0, noise * factor, size=2)
            dets.append(Detection(image_id, shifted(person, dx, dy,
                                                    float(rng.uniform(0.3, 1.0)))))
        dets.append(Detection(image_id, shifted(scene[0], 50, 50,
                                                float(rng.uniform(0.3, 1.0)))))
    dets.append(Detection(num_images, shifted(scene[0], 0, 0, 0.9)))
    edge = person_at(2000, 2000, spread=48.0)
    gts.append(GroundTruthInstance(0, edge, 96.0 ** 2))
    dets.append(Detection(0, shifted(edge, 1, 1, 0.8)))
    return dets, gts


class TestAveragePrecision:
    def test_oks_computed_once_per_same_image_pair(self, monkeypatch):
        # One OKS table per image with both detections and GTs, built from
        # exactly that image's people: no pair is scored twice.
        dets, gts = make_mixed_area_set(num_images=5)
        calls = []

        def counting_oks(det_people, gt_people, *args):
            calls.append((sorted(map(id, det_people)), list(map(id, gt_people))))
            return oks(det_people, gt_people, *args)

        monkeypatch.setattr(evalkit, "oks", counting_oks)
        average_precision(dets, gts)
        images = sorted({d.image_id for d in dets} & {g.image_id for g in gts})
        assert {d.image_id for d in dets} - set(images)
        want = [(sorted(id(d.person) for d in dets if d.image_id == i),
                 [id(g.person) for g in gts if g.image_id == i]) for i in images]
        assert sorted(calls) == sorted(want)

    def test_area_bands_match_brute_force_oracle(self):
        dets, gts = make_mixed_area_set()
        areas = [g.area for g in gts]
        assert min(areas) < 32 ** 2 and max(areas) > 96 ** 2
        assert any(32 ** 2 < a <= 96 ** 2 for a in areas)
        result = average_precision(dets, gts)
        for name, area_range in (("ap_medium", MEDIUM_RANGE), ("ap_large", LARGE_RANGE)):
            want = [brute_force_ap(dets, gts, t, area_range=area_range)
                    for t in OKS_THRESHOLDS]
            assert min(want) >= 0.0 and max(want) > 0.0
            for t, w in zip(OKS_THRESHOLDS, want):
                one = average_precision(dets, gts, thresholds=(t,))
                assert getattr(one, name) == pytest.approx(w, abs=1e-9)
            assert getattr(result, name) == pytest.approx(np.mean(want), abs=1e-9)
        for t in OKS_THRESHOLDS:
            assert result.per_threshold[t] == pytest.approx(
                brute_force_ap(dets, gts, t), abs=1e-9)

    def test_gt_without_labeled_keypoints_is_ignored(self):
        gt = GroundTruthInstance(0, person_at(100, 100), 5000.0)
        blank = GroundTruthInstance(0, Person([None] * 18), 5000.0)
        result = average_precision([Detection(0, gt.person)], [gt, blank])
        assert result.ap == pytest.approx(1.0)
        assert result.ap_medium == pytest.approx(1.0)

    def test_gt_without_labeled_keypoints_absorbs_nothing(self):
        gt = GroundTruthInstance(0, person_at(100, 100), 5000.0)
        blank = GroundTruthInstance(1, Person([None] * 18), 5000.0)
        dets = [Detection(0, shifted(gt.person, 0, 0, 0.5)),
                Detection(1, shifted(gt.person, 0, 0, 0.9))]
        result = average_precision(dets, [gt, blank])
        # The image-1 detection ranks first and is a false positive.
        assert result.ap == pytest.approx(0.5)

    @pytest.mark.parametrize("constants, area", [
        ((0.1, 0.1), 5000.0),
        ((0.0,) * 18, 5000.0),
        ((float("nan"),) * 18, 5000.0),
        (("0.1",) * 18, 5000.0),
        (DEFAULT_OKS_CONSTANTS, 0.0),
        (DEFAULT_OKS_CONSTANTS, -5.0),
        (DEFAULT_OKS_CONSTANTS, float("inf")),
        ((True,) * 18, 5000.0),
        ((np.bool_(True),) * 18, 5000.0),
        ((10 ** 400,) * 18, 5000.0),
        pytest.param(DEFAULT_OKS_CONSTANTS, 10 ** 400, id="huge_int_area"),
    ])
    def test_unscorable_inputs_raise_value_error(self, constants, area):
        gt = GroundTruthInstance(0, person_at(100, 100), area)
        with pytest.raises(ValueError):
            average_precision([], [gt], constants=constants)

    def test_gt_as_detections_is_perfect(self):
        dets, gts = make_eval_set()
        result = average_precision(dets, gts)
        assert result.ap == pytest.approx(1.0)
        assert result.ap50 == pytest.approx(1.0)
        assert result.ap75 == pytest.approx(1.0)

    def test_no_detections(self):
        _, gts = make_eval_set(num_images=3)
        result = average_precision([], gts)
        assert result.ap == 0.0

    def test_no_ground_truth_sentinel(self):
        dets, _ = make_eval_set(num_images=2)
        result = average_precision(dets, [])
        assert result.ap == -1.0
        assert result.ap_medium == -1.0

    def test_matches_brute_force_oracle(self):
        dets, gts = make_eval_set(num_images=10, noise=12.0, seed=3)
        result = average_precision(dets, gts)
        for t in OKS_THRESHOLDS:
            want = brute_force_ap(dets, gts, t)
            assert result.per_threshold[t] == pytest.approx(want, abs=1e-9)

    def test_ap50_at_least_ap75(self):
        for seed in range(3):
            dets, gts = make_eval_set(num_images=8, noise=15.0, seed=seed)
            result = average_precision(dets, gts)
            assert result.ap50 >= result.ap75 - 1e-12

    def test_appending_low_score_detections_never_lowers_ap(self):
        # Lower-scored extras sort after the originals, so every prefix
        # of the match sequence is unchanged and the precision envelope
        # can only grow.
        dets, gts = make_eval_set(num_images=6, noise=10.0, seed=7)
        base = average_precision(dets, gts)
        lowconf = [Detection(d.image_id, shifted(d.person, 3, 3, 0.01)) for d in dets]
        noisy = average_precision(dets + lowconf, gts)
        for t in OKS_THRESHOLDS:
            assert noisy.per_threshold[t] >= base.per_threshold[t] - 1e-12

    def test_pure_false_positives_never_raise_ap(self):
        dets, gts = make_eval_set(num_images=6, noise=10.0, seed=7)
        base = average_precision(dets, gts)
        junk = [Detection(d.image_id, shifted(d.person, 4000, 4000, 0.01))
                for d in dets]
        noisy = average_precision(dets + junk, gts)
        for t in OKS_THRESHOLDS:
            assert noisy.per_threshold[t] <= base.per_threshold[t] + 1e-12

    def test_area_band_assignment(self):
        # One medium-area (between 32^2 and 96^2) and one large GT; each
        # band sees only its own instance, the other is ignored there.
        gt_m = GroundTruthInstance(0, person_at(100, 100, spread=8.0), 60.0 ** 2)
        gt_l = GroundTruthInstance(0, person_at(400, 400, spread=30.0), 200.0 ** 2)
        dets = [Detection(0, gt_m.person), Detection(0, gt_l.person)]
        result = average_precision(dets, [gt_m, gt_l])
        assert result.ap == pytest.approx(1.0)
        assert result.ap_medium == pytest.approx(1.0)
        assert result.ap_large == pytest.approx(1.0)

    def test_interpolated_ap_edge_cases(self):
        assert _interpolated_ap([], 0) == -1.0
        assert _interpolated_ap([], 5) == 0.0
        assert _interpolated_ap([True], 1) == pytest.approx(1.0)
        assert _interpolated_ap([False], 1) == 0.0

    def test_result_serialization(self):
        dets, gts = make_eval_set(num_images=3)
        result = average_precision(dets, gts)
        d = result.to_dict()
        assert d["AP"] == result.ap
        assert "0.50" in d["per_threshold"]
        assert "AP.50" in result.to_table()


# Four joints with the hip/knee constants keep examples small while OKS
# still spans the whole threshold sweep at offsets of a few pixels.
_MATCH_CONSTANTS = (0.214, 0.174, 0.178, 0.124)
# Areas in every band, on both band edges and below the medium band.
_match_area = st.sampled_from([200.0, 32.0 ** 2, 2000.0, 96.0 ** 2, 20000.0])


@st.composite
def _eval_sets(draw):
    """Detections and GTs over a few images: tied instance scores, GTs
    with the same keypoints so that a detection ties in OKS against two
    of them, images with detections but no GTs, and GTs with no labeled
    keypoints."""
    dets, gts = [], []
    for image_id in range(draw(st.integers(1, 3))):
        image_gts = []
        for _ in range(draw(st.integers(0, 3))):
            cx, cy = draw(st.sampled_from([(50.0, 50.0), (54.0, 50.0), (300.0, 80.0)]))
            person = Person([Keypoint(cx + 9.0 * i, cy + 5.0 * (i % 2))
                             for i in range(len(_MATCH_CONSTANTS))])
            image_gts.append(GroundTruthInstance(image_id, person, draw(_match_area)))
        if image_gts and draw(st.booleans()):
            # Same keypoints, maybe another band: an exact detection ties
            # at OKS 1 against both, and the first one must win.
            twin = draw(st.sampled_from(image_gts)).person
            image_gts.append(GroundTruthInstance(image_id, twin, draw(_match_area)))
        if draw(st.integers(0, 3)) == 0:
            image_gts.append(GroundTruthInstance(
                image_id, Person([None] * len(_MATCH_CONSTANTS)), draw(_match_area)))
        gts += image_gts
        for _ in range(draw(st.integers(0, 4))):
            base = person_at(50.0, 50.0) if not image_gts else draw(
                st.sampled_from(image_gts)).person
            if not base.labeled_count():
                base = person_at(50.0, 50.0)
            confidence = draw(st.sampled_from([0.3, 0.6, 0.9]))
            offset = st.sampled_from([0.0, 1.0, 2.5, 4.0, 40.0])
            dx, dy = draw(offset), draw(offset)
            kps = [None if kp is None or draw(st.integers(0, 9)) == 0
                   else Keypoint(kp.x + dx, kp.y + dy, confidence=confidence)
                   for kp in base.keypoints[:len(_MATCH_CONSTANTS)]]
            dets.append(Detection(image_id, Person(kps)))
    return dets, gts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_eval_sets())
def test_average_precision_matches_brute_force_in_every_band(case):
    dets, gts = case
    bands = (("ap", None), ("ap_medium", MEDIUM_RANGE), ("ap_large", LARGE_RANGE))
    for t in OKS_THRESHOLDS:
        one = average_precision(dets, gts, thresholds=(t,), constants=_MATCH_CONSTANTS)
        for name, area_range in bands:
            want = brute_force_ap(dets, gts, t, _MATCH_CONSTANTS, area_range)
            assert getattr(one, name) == pytest.approx(want, abs=1e-9), (name, t)


class TestAnnotationsIo:
    def test_round_trip(self):
        _, gts = make_eval_set(num_images=4, seed=2)
        images = {i: {"height": 800, "width": 1200} for i in range(4)}
        doc = write_annotations(images, gts, SK)
        store = parse_annotations(json.dumps(doc), SK)
        assert store.images == images
        assert len(store.instances) == len(gts)
        for got, want in zip(store.instances, gts):
            assert got.image_id == want.image_id
            assert got.area == pytest.approx(want.area)
            for a, b in zip(got.person.keypoints, want.person.keypoints):
                assert (a is None) == (b is None)
                if a is not None:
                    assert (a.x, a.y) == (pytest.approx(b.x), pytest.approx(b.y))

    def test_exact_round_trip(self):
        rng = np.random.default_rng(8)
        images = {1: {"height": 480, "width": 640}, 2: {"height": 96, "width": 128}}
        gts = [GroundTruthInstance(
            n % 2 + 1,
            Person([None if i % 5 == n else
                    Keypoint(float(rng.uniform(-20, 640)), float(rng.uniform(-20, 480)),
                             (Visibility.VISIBLE, Visibility.OCCLUDED)[i % 2])
                    for i in range(18)]),
            float(rng.uniform(1e3, 1e5))) for n in range(5)]
        store = parse_annotations(json.dumps(write_annotations(images, gts, SK)), SK)
        assert store.images == images
        assert store.instances == gts
        assert store.crowd_boxes == {}

    def test_v_zero_becomes_none(self):
        doc = {"images": [], "annotations": [
            {"image_id": 1, "area": 100.0, "iscrowd": 0,
             "keypoints": [5.0, 6.0, 2] + [0.0, 0.0, 0] * 17}]}
        store = parse_annotations(doc, SK)
        kps = store.instances[0].person.keypoints
        assert kps[0] == Keypoint(5.0, 6.0, Visibility.VISIBLE)
        assert all(kp is None for kp in kps[1:])

    def test_crowd_boxes_collected(self):
        doc = {"images": [], "annotations": [
            {"image_id": 3, "area": 10.0, "iscrowd": 1, "bbox": [1.0, 2.0, 3.0, 4.0]}]}
        store = parse_annotations(doc, SK)
        assert store.instances == []
        assert store.crowd_boxes == {3: [(1.0, 2.0, 3.0, 4.0)]}

    def test_image_side_at_cap(self):
        doc = {"images": [{"id": 1, "height": MAX_IMAGE_SIDE, "width": 1}],
               "annotations": []}
        assert parse_annotations(doc, SK).images == {1: {"height": MAX_IMAGE_SIDE,
                                                         "width": 1}}

    def test_malformed_json(self):
        with pytest.raises(AnnotationError):
            parse_annotations("{not json", SK)

    def test_missing_annotations_key(self):
        with pytest.raises(AnnotationError):
            parse_annotations({"images": []}, SK)

    def test_wrong_keypoint_length(self):
        doc = {"annotations": [{"image_id": 1, "area": 1.0, "keypoints": [1, 2, 2]}]}
        with pytest.raises(AnnotationError):
            parse_annotations(doc, SK)

    @pytest.mark.parametrize("images, annotation", [
        ([1], None),
        ([None], None),
        ({"id": 1}, None),
        ([{"height": 8, "width": 8}], None),
        ([{"id": "x", "height": 8, "width": 8}], None),
        ([{"id": 1, "height": None, "width": 8}], None),
        ([{"id": 1, "height": 8, "width": float("inf")}], None),
        ([], 1),
        ([], {"image_id": 1, "area": 1.0, "keypoints": 5}),
        ([], {"image_id": 1, "area": 1.0, "keypoints": None}),
        ([], {"image_id": 1, "area": 1.0, "keypoints": ["a"] * 54}),
        ([], {"image_id": 1, "area": 1.0, "keypoints": [None] * 54}),
        ([], {"image_id": 1, "area": 1.0, "keypoints": [0.0, 0.0, float("inf")] * 18}),
        ([], {"image_id": float("inf"), "area": 1.0, "keypoints": [0.0] * 54}),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 1, "bbox": ["a", 0, 1, 1]}),
        ([{"id": 1, "height": 0, "width": 8}], None),
        ([{"id": 1, "height": 8, "width": -8}], None),
        ([{"id": 1, "height": MAX_IMAGE_SIDE + 1, "width": 8}], None),
        ([{"id": 1, "height": 8, "width": 10 ** 6}], None),
        ([], {"image_id": 1, "area": 1.0, "keypoints": [float("nan"), 1.0, 2] + [0.0] * 51}),
        ([], {"image_id": 1, "area": 1.0, "keypoints": [0.0] * 51 + [1.0, float("-inf"), 1]}),
        *(([], {"image_id": 1, "area": 1.0, "keypoints": [0.0] * 51 + [1.0, 1.0, v]})
          for v in (7, -3, True, "1", 2.9)),
        # Values that int() or float() would coerce: every JSON value is
        # typed by config.check_value, as config files are.
        ([], {"image_id": 1, "area": 1.0, "keypoints": [True, 2.5, 2] + [0.0] * 51}),
        ([], {"image_id": 1, "area": 1.0, "keypoints": [1.0, "2.5", 2] + [0.0] * 51}),
        *(([], {"image_id": image_id, "area": 1.0, "keypoints": [0.0] * 54})
          for image_id in ("1", 1.7, True)),
        *(([], {"image_id": 1, "area": area, "keypoints": [0.0] * 54})
          for area in ("100", True)),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 0.9, "keypoints": [0.0] * 54}),
        ([{"id": 1, "height": 8.9, "width": 8}], None),
        ([{"id": 1, "height": 8, "width": True}], None),
        ([{"id": "1", "height": 8, "width": 8}], None),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 1, "bbox": ["0", "0", "4", "4"]}),
        # iscrowd is 0 or 1, and a crowd region's bbox is four numbers.
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 2, "bbox": [1, 2, 3]}),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": -1, "bbox": [1, 2, 3, 4, 5]}),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 2, "bbox": [1, 2, 3, 4]}),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 1, "bbox": [1, 2, 3]}),
        ([], {"image_id": 1, "area": 1.0, "iscrowd": 1}),
    ])
    def test_malformed_entry(self, images, annotation):
        doc = {"images": images, "annotations": [] if annotation is None else [annotation]}
        with pytest.raises(AnnotationError):
            parse_annotations(doc, SK)

    def test_repeated_image_id_names_both_entries(self):
        doc = {"images": [{"id": 1, "height": 8, "width": 8}, {"id": 2, "height": 8, "width": 8},
                          {"id": 1, "height": 16, "width": 16}], "annotations": []}
        with pytest.raises(AnnotationError,
                           match=r"^images\[2\]: id 1 is already the id of images\[0\]$"):
            parse_annotations(doc, SK)

    def test_bad_visibility_names_keypoint(self):
        doc = {"annotations": [{"image_id": 1, "area": 1.0,
                                "keypoints": [0.0] * 51 + [1.0, 1.0, "1"]}]}
        with pytest.raises(AnnotationError, match="keypoint 17: visibility must be 0, 1 or 2, "
                                                  "got '1'$"):
            parse_annotations(doc, SK)


class TestResultsIo:
    def test_round_trip(self):
        dets, _ = make_eval_set(num_images=3, noise=5.0, seed=4)
        doc = write_results(dets)
        back = parse_results(json.dumps(doc), SK)
        assert len(back) == len(dets)
        for got, want in zip(back, dets):
            assert got.image_id == want.image_id
            assert got.score == pytest.approx(want.score)

    def test_exact_round_trip(self):
        rng = np.random.default_rng(9)
        dets = [Detection(n % 2 + 1,
                          Person([None if i % 5 == n else
                                  Keypoint(float(rng.uniform(-20, 640)),
                                           float(rng.uniform(-20, 480)), Visibility.VISIBLE,
                                           1.0 - float(rng.uniform()))  # in (0, 1]
                                  for i in range(18)]))
                for n in range(5)]
        assert parse_results(json.dumps(write_results(dets)), SK) == dets

    def test_not_a_list(self):
        with pytest.raises(AnnotationError):
            parse_results({"image_id": 1}, SK)

    def test_wrong_length(self):
        with pytest.raises(AnnotationError):
            parse_results([{"image_id": 1, "keypoints": [1.0, 2.0, 0.5]}], SK)

    @pytest.mark.parametrize("entry", [
        1, [], None,
        {"image_id": 1},
        {"image_id": 1, "keypoints": 5},
        {"keypoints": [0.0] * 54},
        {"image_id": None, "keypoints": [0.0] * 54},
        {"image_id": 1, "keypoints": [None] * 54},
        # Values that int() or float() would coerce.
        *({"image_id": image_id, "keypoints": [0.0] * 54} for image_id in ("1", 1.7, True)),
        *({"image_id": 1, "keypoints": triplet + [0.0] * 51}
          for triplet in (["3", 1.0, 0.5], [3.0, True, 0.5], [3.0, 1.0, "0.5"])),
    ])
    def test_malformed_entry(self, entry):
        with pytest.raises(AnnotationError):
            parse_results([entry], SK)

    def test_infinite_image_id(self):
        with pytest.raises(AnnotationError):
            parse_results('[{"image_id": 1e999, "keypoints": %s}]' % ([0.0] * 54), SK)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["x", "y", "confidence"])
    def test_non_finite_keypoint_value(self, value, slot):
        # JSON NaN/Infinity as a keypoint value of the second detection:
        # a NaN confidence made AP depend on the order of the detections.
        good = [10.0, 20.0, 0.9] * 18
        bad = [str(v) for v in good]
        bad[3 * 2 + slot] = value
        doc = '[{"image_id": 1, "keypoints": %s}, {"image_id": 1, "keypoints": [%s]}]' % (
            json.dumps(good), ", ".join(bad))
        with pytest.raises(AnnotationError, match=r"results\[1\]: keypoint 2: .*finite"):
            parse_results(doc, SK)


def test_writers_pinned():
    # A missing keypoint is written 0.0, 0.0, 0 in annotations (an int v
    # flag) and 0.0, 0.0, 0.0 in results (a float confidence).
    skeleton = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2)))
    gt = Person([Keypoint(1.5, 2.25), None, Keypoint(3.0, 4.0, Visibility.OCCLUDED)])
    det = Person([Keypoint(1.5, 2.25, confidence=0.75), None,
                  Keypoint(3.0, 4.0, confidence=0.5)])
    annotations = write_annotations({1: {"height": 8, "width": 9}},
                                    [GroundTruthInstance(1, gt, 12.5)], skeleton)
    assert json.dumps(annotations, sort_keys=True) == (
        '{"annotations": [{"area": 12.5, "category_id": 1, "id": 1, "image_id": 1, '
        '"iscrowd": 0, "keypoints": [1.5, 2.25, 2, 0.0, 0.0, 0, 3.0, 4.0, 1], '
        '"num_keypoints": 2}], "categories": [{"id": 1, "keypoints": ["a", "b", "c"], '
        '"name": "person"}], "images": [{"height": 8, "id": 1, "width": 9}]}')
    assert json.dumps(write_results([Detection(1, det)]), sort_keys=True) == (
        '[{"category_id": 1, "image_id": 1, '
        '"keypoints": [1.5, 2.25, 0.75, 0.0, 0.0, 0.0, 3.0, 4.0, 0.5], "score": 0.625}]')


# Arbitrary JSON values for the parser property test. Values that int()
# or float() reject are drawn often: a random one seldom is one.
_edge = st.sampled_from([10 ** 400, float("inf"), float("-inf"), float("nan"), "1e999"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | _edge,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)
# Parses as an image, an annotation and a result entry of ONE_JOINT.
_GOOD_ENTRY = {"id": 1, "height": 8, "width": 8, "image_id": 1, "area": 4.0, "iscrowd": 0,
               "bbox": [0, 0, 1, 1], "keypoints": [1.0, 2.0, 2], "score": 0.5}


@st.composite
def _entries(draw):
    """_GOOD_ENTRY with up to three of its keys dropped or given arbitrary values."""
    entry = dict(_GOOD_ENTRY)
    for key in draw(st.lists(st.sampled_from(sorted(entry)), max_size=3)):
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(_edge | _json)
    return entry


ONE_JOINT = SkeletonDef(("a",), ())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(value=_json, entry=_entries())
def test_parsers_return_result_or_raise_annotation_error(value, entry):
    annotation_docs = (value, {"images": value, "annotations": []}, {"annotations": value},
                       {"images": [entry], "annotations": []}, {"annotations": [entry]})
    for doc in annotation_docs:
        try:
            assert isinstance(parse_annotations(doc, ONE_JOINT), evalkit.GroundTruthStore)
        except AnnotationError:
            pass
    for doc in (value, [entry]):
        try:
            dets = parse_results(doc, ONE_JOINT)
        except AnnotationError:
            continue
        assert all(isinstance(det, Detection) for det in dets)
