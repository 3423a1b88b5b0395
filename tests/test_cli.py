import json

import numpy as np
import pytest

from mlnpose.cli import main
from mlnpose.fileio import read_ppm, read_tensor, write_ppm, write_tensor
from mlnpose.skeleton import default_skeleton

# A compact scene/config setup so CLI round trips stay fast.
SMALL_SCENE = {"scene": {"image_dims": [400, 600], "person_count": [2, 3],
                         "min_spacing": 120.0}}
SMALL_NET = {"network": {"block_channels": 8, "transfer_blocks": 1,
                         "refine_blocks": 1, "branch_mid_channels": 16,
                         "transfer_output_channels": 8}}


# Well-formed JSON whose values have the wrong type for their field:
# (command, config, section, field). Nothing is coerced, so each exits 1
# with an error naming the section and the field.
TYPE_ERRORS = [
    ("decode", {"decode": {"min_parts_per_person": "x"}}, "decode", "min_parts_per_person"),
    ("decode", {"decode": {"filters_enabled": "no"}}, "decode", "filters_enabled"),
    ("decode", {"decode": {"min_parts_per_person": 1.5}}, "decode", "min_parts_per_person"),
    ("synth", {"groundtruth": {"output_stride": 8.5}}, "groundtruth", "output_stride"),
    ("synth", {"groundtruth": {"sigma": True}}, "groundtruth", "sigma"),
    ("synth", {"groundtruth": {"sigma": float("nan")}}, "groundtruth", "sigma"),
    ("complexity", {"skeleton": {"joint_names": "ab", "limbs": [[0, 1]]}},
     "skeleton", "joint_names"),
    ("complexity", {"skeleton": {"joint_names": ["a", "b"], "limbs": [[0, 1.5]]}},
     "skeleton", "limbs[0][1]"),
    ("complexity", {"skeleton": {"joint_names": ["a", "b"], "limbs": [[0, 1]],
                                 "background_channel": "no"}},
     "skeleton", "background_channel"),
    ("synth", {"scene": {"person_count": [1.5, 2]}}, "scene", "person_count[0]"),
]
TYPE_ERROR_IDS = ["decode_min_parts_str", "decode_filters_str", "decode_min_parts_float",
                  "groundtruth_stride_float", "groundtruth_sigma_bool",
                  "groundtruth_sigma_nan", "skeleton_names_str", "skeleton_limb_float",
                  "skeleton_background_str", "scene_count_float"]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def write_eval_inputs(tmp_path, area=5000.0, images=(), extra_annotations=()):
    """One labeled ground truth in image 1 and its exact detection."""
    keypoints = [float(v) for i in range(18) for v in (100 + 5 * i, 200 + 3 * i)]
    gt_values = [v for i in range(18) for v in (*keypoints[2 * i:2 * i + 2], 2)]
    det_values = [v for i in range(18) for v in (*keypoints[2 * i:2 * i + 2], 0.9)]
    annotations = tmp_path / "annotations.json"
    annotations.write_text(json.dumps({"images": list(images), "annotations": [
        {"image_id": 1, "area": area, "iscrowd": 0, "keypoints": gt_values},
        *extra_annotations]}))
    results = tmp_path / "results.json"
    results.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                    "keypoints": det_values, "score": 0.9}]))
    return results, annotations


class TestSynthDecodeEval:
    def test_pipeline_reaches_perfect_ap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SCENE)
        scenes = tmp_path / "scenes"
        assert run("synth", "--config", cfg, "--seed", 3, "--scenes", 4,
                   "--out", scenes) == 0
        assert (scenes / "annotations.json").exists()
        assert (scenes / "scene_0001_joints.mlnt").exists()

        results = tmp_path / "results.json"
        assert run("decode", "--config", cfg, "--maps", scenes,
                   "--out", results) == 0
        dets = json.loads(results.read_text())
        gts = json.loads((scenes / "annotations.json").read_text())
        assert len(dets) == len(gts["annotations"])

        out = tmp_path / "metrics.json"
        assert run("eval", "--config", cfg, "--results", results,
                   "--annotations", scenes / "annotations.json",
                   "--out", out) == 0
        metrics = json.loads(out.read_text())
        assert metrics["AP"] == pytest.approx(1.0)
        assert metrics["AP50"] == pytest.approx(1.0)
        assert "AP" in capsys.readouterr().out

    def test_synth_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENE)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--config", cfg, "--seed", 9, "--scenes", 3,
                       "--out", out) == 0
        for name in ("annotations.json", "scene_0002_joints.mlnt",
                     "scene_0002_limbs.mlnt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_synth_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENE)
        a, b = tmp_path / "t1", tmp_path / "t4"
        assert run("synth", "--config", cfg, "--seed", 9, "--scenes", 3,
                   "--out", a, "--threads", 1) == 0
        assert run("synth", "--config", cfg, "--seed", 9, "--scenes", 3,
                   "--out", b, "--threads", 4) == 0
        assert (a / "annotations.json").read_bytes() == (b / "annotations.json").read_bytes()
        assert (a / "scene_0003_joints.mlnt").read_bytes() == \
               (b / "scene_0003_joints.mlnt").read_bytes()

    def test_eval_ignores_gt_without_labeled_keypoints(self, tmp_path):
        blank = {"image_id": 1, "area": 5000.0, "iscrowd": 0,
                 "keypoints": [0, 0, 0] * 18, "num_keypoints": 0}
        results, annotations = write_eval_inputs(tmp_path, extra_annotations=[blank])
        out = tmp_path / "metrics.json"
        assert run("eval", "--results", results, "--annotations", annotations,
                   "--out", out) == 0
        assert json.loads(out.read_text())["AP"] == pytest.approx(1.0)

    def test_render_gt_matches_synth(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENE)
        scenes = tmp_path / "scenes"
        rendered = tmp_path / "rendered"
        assert run("synth", "--config", cfg, "--seed", 2, "--scenes", 2,
                   "--out", scenes) == 0
        assert run("render-gt", "--config", cfg,
                   "--annotations", scenes / "annotations.json",
                   "--out", rendered) == 0
        a = read_tensor(scenes / "scene_0001_joints.mlnt")
        b = read_tensor(rendered / "scene_0001_joints.mlnt")
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_decode_empty_maps(self, tmp_path):
        joints = tmp_path / "j.mlnt"
        limbs = tmp_path / "l.mlnt"
        write_tensor(joints, np.zeros((1, 19, 10, 10), dtype=np.float32))
        write_tensor(limbs, np.zeros((1, 38, 10, 10), dtype=np.float32))
        out = tmp_path / "results.json"
        assert run("decode", "--joints", joints, "--limbs", limbs,
                   "--out", out) == 0
        assert json.loads(out.read_text()) == []

    def test_decode_filters_flag(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENE)
        scenes = tmp_path / "scenes"
        assert run("synth", "--config", cfg, "--seed", 4, "--scenes", 1,
                   "--out", scenes) == 0
        on, off = tmp_path / "on.json", tmp_path / "off.json"
        assert run("decode", "--config", cfg, "--maps", scenes,
                   "--filters", "on", "--out", on) == 0
        assert run("decode", "--config", cfg, "--maps", scenes,
                   "--filters", "off", "--out", off) == 0
        assert len(json.loads(off.read_text())) >= len(json.loads(on.read_text()))

    def test_decode_filters_from_config(self, tmp_path):
        # Nobody has 100 parts, so with filters on no one is decoded.
        strict = {"min_parts_per_person": 100}
        scenes = tmp_path / "scenes"
        assert run("synth", "--config", write_config(tmp_path, SMALL_SCENE), "--seed", 4,
                   "--scenes", 1, "--out", scenes) == 0
        off_cfg = write_config(tmp_path, {"decode": {**strict, "filters_enabled": False}},
                               name="off.json")
        strict_cfg = write_config(tmp_path, {"decode": strict}, name="strict.json")
        from_cfg, flag = tmp_path / "from_cfg.json", tmp_path / "flag.json"
        assert run("decode", "--config", off_cfg, "--maps", scenes, "--out", from_cfg) == 0
        assert run("decode", "--config", strict_cfg, "--maps", scenes,
                   "--filters", "off", "--out", flag) == 0
        assert json.loads(flag.read_text())
        assert from_cfg.read_bytes() == flag.read_bytes()

    @pytest.mark.parametrize("as_int, as_float", [(7, 7.0), (10**200, 1e200)],
                             ids=["seven", "huge"])
    def test_int_valued_floats_give_identical_synth(self, tmp_path, as_int, as_float):
        outs = []
        for i, sigma in enumerate((as_int, as_float)):
            cfg = write_config(tmp_path, {**SMALL_SCENE, "groundtruth": {"sigma": sigma}},
                               name=f"sigma_{i}.json")
            outs.append(tmp_path / f"out_{i}")
            assert run("synth", "--config", cfg, "--seed", 5, "--scenes", 2,
                       "--out", outs[-1]) == 0
        for name in ("annotations.json", "scene_0002_joints.mlnt", "scene_0002_limbs.mlnt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestForward:
    def test_forward_on_tensor_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_NET)
        image = tmp_path / "img.mlnt"
        rng = np.random.default_rng(0)
        write_tensor(image, rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
        out = tmp_path / "maps"
        assert run("forward", "--config", cfg, "--image", image,
                   "--out", out, "--seed", 1) == 0
        joints = read_tensor(out / "joints.mlnt")
        limbs = read_tensor(out / "limbs.mlnt")
        assert joints.shape == (1, 19, 4, 4)
        assert limbs.shape == (1, 38, 4, 4)
        assert np.isfinite(joints).all() and np.isfinite(limbs).all()

    def test_forward_on_ppm_input(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_NET)
        image = tmp_path / "img.ppm"
        rng = np.random.default_rng(1)
        write_ppm(image, rng.integers(0, 256, size=(16, 24, 3)).astype(np.uint8))
        out = tmp_path / "maps"
        assert run("forward", "--config", cfg, "--image", image, "--out", out) == 0
        assert read_tensor(out / "joints.mlnt").shape == (1, 19, 2, 3)

    def test_forward_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_NET)
        image = tmp_path / "img.mlnt"
        write_tensor(image, np.random.default_rng(2)
                     .normal(size=(1, 3, 16, 16)).astype(np.float32))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("forward", "--config", cfg, "--image", image,
                       "--out", out, "--seed", 5) == 0
        assert (a / "joints.mlnt").read_bytes() == (b / "joints.mlnt").read_bytes()
        assert (a / "limbs.mlnt").read_bytes() == (b / "limbs.mlnt").read_bytes()

    def test_bad_image_dims(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_NET)
        image = tmp_path / "img.mlnt"
        write_tensor(image, np.zeros((1, 3, 15, 16), dtype=np.float32))
        assert run("forward", "--config", cfg, "--image", image,
                   "--out", tmp_path / "maps") == 1
        assert "error:" in capsys.readouterr().err


class TestReports:
    def test_complexity(self, tmp_path, capsys):
        out = tmp_path / "complexity.json"
        assert run("complexity", "--input-dims", "368x432", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["total_params"] == sum(r["params"] for r in report["per_layer"])
        text = capsys.readouterr().out
        assert "TOTAL" in text and "headline" in text

    def test_complexity_flop_convention(self, tmp_path, capsys):
        assert run("complexity", "--input-dims", "64x64",
                   "--flop-convention", "mac1") == 0
        assert "(mac1)" in capsys.readouterr().out

    def test_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run("bench", "--people", 2, "--reps", 3, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["people"] == 2
        assert set(report["stages_ms"]) == {"nms", "scoring", "assembly", "grouping"}
        assert "reference grouping times" in capsys.readouterr().out


NON_FINITE = {"Infinity": (float("inf"), 1.0), "-Infinity": (1.0, float("-inf")),
              "NaN": (float("nan"), 1.0)}


def write_keypoint_annotations(tmp_path, people, h, w):
    """Image 1 of h x w holding one annotation per {joint: (x, y)} dict;
    the joints listed are visible, the rest unlabeled."""
    annotations = []
    for joints in people:
        values = []
        for j in range(18):
            values += [*joints[j], 2] if j in joints else [0.0, 0.0, 0]
        annotations.append({"image_id": 1, "area": 100.0, "keypoints": values})
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"images": [{"id": 1, "height": h, "width": w}],
                                "annotations": annotations}))
    return path


def unclipped_overlay_mask(people, h, w):
    """Pixels the overlay drew before segments were clipped to the canvas:
    samples along the whole segment, rounded, then clamped to the edge."""
    mask = np.zeros((h, w), dtype=bool)
    for joints in people:
        for a, b in default_skeleton().limbs:
            if a in joints and b in joints:
                (ax, ay), (bx, by) = joints[a], joints[b]
                n = int(max(abs(bx - ax), abs(by - ay))) + 1
                xs = np.clip(np.linspace(ax, bx, n).round().astype(int), 0, w - 1)
                ys = np.clip(np.linspace(ay, by, n).round().astype(int), 0, h - 1)
                mask[ys, xs] = True
    return mask


def overlay_mask(tmp_path, people, h, w):
    out = tmp_path / "overlay.ppm"
    assert run("overlay", "--annotations", write_keypoint_annotations(tmp_path, people, h, w),
               "--image-id", 1, "--out", out) == 0
    return read_ppm(out).any(axis=2)


class TestOverlay:
    def test_overlay(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENE)
        scenes = tmp_path / "scenes"
        assert run("synth", "--config", cfg, "--seed", 6, "--scenes", 1,
                   "--out", scenes) == 0
        out = tmp_path / "overlay.ppm"
        assert run("overlay", "--annotations", scenes / "annotations.json",
                   "--image-id", 1, "--out", out) == 0
        img = read_ppm(out)
        assert img.shape == (400, 600, 3)
        assert img.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_segments_inside_canvas_draw_as_unclipped(self, tmp_path, seed):
        # Endpoints anywhere between the first and last pixel centres, on
        # the edges and corners too.
        rng = np.random.default_rng(seed)
        h, w = 30, 50
        edges = [(0.0, 0.0), (w - 1.0, h - 1.0), (0.0, h - 1.0), (w - 1.0, 7.25)]
        people = [{j: (float(rng.uniform(0.0, w - 1.0)), float(rng.uniform(0.0, h - 1.0)))
                   for j in range(18)} for _ in range(3)]
        people.append({j: edges[j % 4] for j in range(18)})
        np.testing.assert_array_equal(overlay_mask(tmp_path, people, h, w),
                                      unclipped_overlay_mask(people, h, w))

    @pytest.mark.parametrize("far", [1e12, 1e300, 1.7e308])
    def test_far_endpoints_draw_inside_canvas(self, tmp_path, far):
        # Neck -> right shoulder along row 5, neck -> left shoulder down
        # column 3: each draws from the neck to the canvas edge.
        h, w = 20, 30
        people = [{1: (3.0, 5.0), 2: (far, 5.0), 5: (3.0, far)},
                  {1: (-far, 12.0), 2: (far, 12.0)}]
        mask = overlay_mask(tmp_path, people, h, w)
        expected = np.zeros((h, w), dtype=bool)
        expected[5, 3:] = expected[5:, 3] = expected[12, :] = True
        np.testing.assert_array_equal(mask, expected)


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        assert run("synth", "--config", tmp_path / "nope.json",
                   "--out", tmp_path / "x") == 1
        assert "error:" in capsys.readouterr().err

    def test_decode_requires_inputs(self, tmp_path, capsys):
        assert run("decode", "--out", tmp_path / "r.json") == 1
        assert "error:" in capsys.readouterr().err

    def test_decode_missing_limbs_file(self, tmp_path, capsys):
        write_tensor(tmp_path / "scene_0001_joints.mlnt",
                     np.zeros((1, 19, 4, 4), dtype=np.float32))
        assert run("decode", "--maps", tmp_path, "--out", tmp_path / "r.json") == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_non_object_results_entry(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text("[1]")
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({"images": [], "annotations": []}))
        assert run("eval", "--results", results, "--annotations", annotations,
                   "--out", tmp_path / "metrics.json") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, side, keypoint", [
        pytest.param(command, 10 ** 6, None, id=command)
        for command in ("render-gt", "overlay")] + [
        pytest.param(command, 40, xy, id=f"{command}-{name}")
        for command in ("render-gt", "overlay") for name, xy in NON_FINITE.items()])
    def test_oversized_image_rejected_before_allocating(self, tmp_path, capsys, command,
                                                        side, keypoint):
        # Also a non-finite keypoint coordinate (JSON Infinity, -Infinity, NaN).
        people = [] if keypoint is None else [{0: keypoint}]
        annotations = write_keypoint_annotations(tmp_path, people, side, side)
        where = "images[0]" if keypoint is None else "annotations[0]"
        extra = {"render-gt": [], "overlay": ["--image-id", 1]}[command]
        out = tmp_path / "out"
        assert run(command, "--annotations", annotations, "--out", out, *extra) == 1
        err = capsys.readouterr().err
        assert "error:" in err and where in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config, annotation_area, images", [
        ({"oks_constants": [0.1, 0.1]}, 5000.0, []),
        ({"oks_constants": [0.0] * 18}, 5000.0, []),
        ({"oks_constants": 0.1}, 5000.0, []),
        ({}, 0.0, []),
        ({}, 5000.0, [1]),
        ({"oks_constants": [True] * 18}, 5000.0, []),
    ], ids=["too_few_constants", "zero_constants", "constants_not_array",
            "zero_area", "non_object_image", "bool_constants"])
    def test_eval_bad_input(self, tmp_path, capsys, config, annotation_area, images):
        results, annotations = write_eval_inputs(tmp_path, area=annotation_area,
                                                 images=images)
        assert run("eval", "--config", write_config(tmp_path, config),
                   "--results", results, "--annotations", annotations) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, config, section, field", [
        ("complexity", [1], None, None),
        ("complexity", {"network": 5}, None, None),
        ("complexity", {"network": {"block_channels": "x"}}, None, None),
        ("complexity", {"network": {"refine_blocks": 1.5}}, None, None),
        ("synth", {"groundtruth": [1]}, None, None),
        ("synth", {"groundtruth": {"output_stride": 1e999}}, None, None),
        ("synth", {"scene": {"image_dims": 5}}, None, None),
        ("synth", {"scene": [1]}, None, None),
        ("synth", {"scene": {"person_count": ["a", "b"]}}, None, None),
        ("decode", {"decode": {"num_samples": "x"}}, None, None),
        ("decode", {"decode": {"num_samples": 2.5}}, None, None),
        ("decode", {"skeleton": {}}, None, None),
        ("synth", {"scene": {"image_dims": [16392, 16], "person_count": [0, 0]}},
         "scene", "image_dims"),
        ("complexity", {"skeleton": {"joint_names": ["a", "b"], "limbs": [[0, 0], [0, 1]]}},
         "skeleton", "limbs[0]"),
        *TYPE_ERRORS,
    ], ids=["not_object", "network_not_object", "network_width_str",
            "network_count_float", "groundtruth_not_object", "groundtruth_inf_stride",
            "scene_dims_not_pair", "scene_not_object", "scene_count_str",
            "decode_bad_value", "decode_samples_float", "skeleton_missing_keys",
            "scene_dims_too_large", "skeleton_limb_self_loop", *TYPE_ERROR_IDS])
    def test_malformed_config(self, tmp_path, capsys, command, config, section, field):
        write_tensor(tmp_path / "scene_0001_joints.mlnt", np.zeros((1, 19, 4, 4), np.float32))
        write_tensor(tmp_path / "scene_0001_limbs.mlnt", np.zeros((1, 38, 4, 4), np.float32))
        extra = {"complexity": [], "synth": ["--scenes", 1, "--out", tmp_path / "s"],
                 "decode": ["--maps", tmp_path, "--out", tmp_path / "r.json"]}[command]
        assert run(command, "--config", write_config(tmp_path, config), *extra) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        if field is not None:
            assert f"error: config section {section!r}: {field} must be" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("argv", [
        ["bench", "--reps", 0], ["bench", "--people", -1], ["synth", "--scenes", -1],
        ["synth", "--threads", 0], ["decode", "--threads", 0],
    ], ids=["reps_zero", "people_negative", "scenes_negative", "threads_zero",
            "decode_threads_zero"])
    def test_bad_counts(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert "error: --" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dims", ["12x12", "7x7", "0x8"])
    def test_complexity_rejects_what_forward_rejects(self, capsys, dims):
        assert run("complexity", "--input-dims", dims) == 1
        assert "multiples of 8" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
