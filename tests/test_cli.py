import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlnpose
from mlnpose.cli import _decode_pairs, main
from mlnpose.fileio import read_ppm, read_tensor, write_ppm, write_tensor
from mlnpose.network import NetworkConfig, build_mln, random_weights, save_weights
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
        names = sorted(path.name for path in scenes.glob("*.mlnt"))
        assert names == sorted(path.name for path in rendered.glob("*.mlnt"))
        assert len(names) == 4
        for name in names:
            assert (scenes / name).read_bytes() == (rendered / name).read_bytes()

    def test_decode_empty_maps(self, tmp_path):
        joints = tmp_path / "j.mlnt"
        limbs = tmp_path / "l.mlnt"
        write_tensor(joints, np.zeros((1, 19, 10, 10), dtype=np.float32))
        write_tensor(limbs, np.zeros((1, 38, 10, 10), dtype=np.float32))
        out = tmp_path / "results.json"
        assert run("decode", "--joints", joints, "--limbs", limbs,
                   "--out", out) == 0
        assert json.loads(out.read_text()) == []

    def test_limbless_skeleton_synth_and_decode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"skeleton": {"joint_names": ["a", "b"], "limbs": [],
                                                   "background_channel": False}})
        scenes, results = tmp_path / "scenes", tmp_path / "results.json"
        assert run("synth", "--config", cfg, "--scenes", 1, "--out", scenes) == 0
        assert read_tensor(scenes / "scene_0001_limbs.mlnt").shape[:2] == (1, 0)
        assert run("decode", "--config", cfg, "--maps", scenes, "--out", results) == 0
        assert json.loads(results.read_text()) == []
        assert "-> 0 people" in capsys.readouterr().out

    def test_two_joint_skeleton_round_trip(self, tmp_path, capsys):
        # synth keeps joints 0..1 of each placed body: every step reads
        # the files the one before it wrote.
        cfg = write_config(tmp_path, {"skeleton": {"joint_names": ["a", "b"],
                                                   "limbs": [[0, 1]],
                                                   "background_channel": False}})
        scenes, rendered = tmp_path / "scenes", tmp_path / "rendered"
        results, metrics = tmp_path / "results.json", tmp_path / "metrics.json"
        annotations = scenes / "annotations.json"
        assert run("synth", "--config", cfg, "--seed", 3, "--scenes", 2, "--out", scenes) == 0
        assert all(len(a["keypoints"]) == 6
                   for a in json.loads(annotations.read_text())["annotations"])
        assert run("render-gt", "--config", cfg, "--annotations", annotations,
                   "--out", rendered) == 0
        names = sorted(path.name for path in scenes.glob("*.mlnt"))
        assert names == sorted(path.name for path in rendered.glob("*.mlnt"))
        assert len(names) == 4
        for name in names:
            assert (scenes / name).read_bytes() == (rendered / name).read_bytes()
        assert run("decode", "--config", cfg, "--maps", scenes, "--filters", "off",
                   "--out", results) == 0
        assert run("eval", "--config", cfg, "--results", results,
                   "--annotations", annotations, "--out", metrics) == 0
        assert json.loads(metrics.read_text())["AP"] == pytest.approx(1.0)
        assert "Traceback" not in capsys.readouterr().err

    def test_skeleton_beyond_placed_joints_rejected(self, tmp_path, capsys):
        chain = {"joint_names": [f"j{k}" for k in range(20)],
                 "limbs": [[k, k + 1] for k in range(19)]}
        out = tmp_path / "scenes"
        assert run("synth", "--config", write_config(tmp_path, {"skeleton": chain}),
                   "--scenes", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert "error: synth places 18 joints per person; the skeleton has 20\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_decode_maps_reads_image_id_from_name(self, tmp_path):
        # The id is the integer after the stem's last "_", or the whole stem;
        # the limb maps share the stem, even one that holds "_joints".
        for stem in ("7", "a_b_12", "scene_+3", "scene_0009", "a_joints_5"):
            for kind, channels in (("joints", 19), ("limbs", 38)):
                write_tensor(tmp_path / f"{stem}_{kind}.mlnt",
                             np.zeros((1, channels, 4, 4), np.float32))
        pairs = _decode_pairs(argparse.Namespace(maps=tmp_path))
        assert sorted(image_id for image_id, _, _ in pairs) == [3, 5, 7, 9, 12]
        assert all(l.name == j.name.replace("_joints.mlnt", "_limbs.mlnt")
                   for _, j, l in pairs)

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

    @pytest.mark.parametrize("image, message", [
        (np.zeros((2, 3, 16, 16), dtype=np.float32), "must hold exactly one map stack"),
        (np.full((1, 3, 16, 16), np.nan, dtype=np.float32), "image must be finite"),
    ], ids=["batch_of_two", "nan_image"])
    def test_image_read_as_decode_reads_maps(self, tmp_path, capsys, image, message):
        # forward takes one finite image stack, so its maps are ones that
        # decode reads.
        path = tmp_path / "img.mlnt"
        write_tensor(path, image)
        out = tmp_path / "maps"
        assert run("forward", "--config", write_config(tmp_path, SMALL_NET),
                   "--image", path, "--out", out) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("part,value,message", [
        (1, np.nan, "bias must be finite"),
        (0, np.inf, "weights must be finite"),
    ], ids=["nan_bias", "inf_weight"])
    def test_non_finite_weights_rejected(self, tmp_path, capsys, part, value, message):
        cfg = write_config(tmp_path, SMALL_NET)
        store = random_weights(build_mln(default_skeleton(),
                                         NetworkConfig(**SMALL_NET["network"])))
        store["conv1_1"][part].flat[0] = value
        weights = tmp_path / "bad.mlnw"
        save_weights(weights, store)
        image = tmp_path / "img.ppm"
        write_ppm(image, np.zeros((16, 16, 3), dtype=np.uint8))
        out = tmp_path / "maps"
        assert run("forward", "--config", cfg, "--image", image,
                   "--weights", weights, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: layer 'conv1_1': {message}\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_layer_weights_read_plainly(self, tmp_path, capsys):
        # A store without conv1_1 does not fit the graph: one error line,
        # with the layer name quoted once and no quotes around the message.
        cfg = write_config(tmp_path, SMALL_NET)
        store = random_weights(build_mln(default_skeleton(),
                                         NetworkConfig(**SMALL_NET["network"])))
        del store["conv1_1"]
        weights = tmp_path / "partial.mlnw"
        save_weights(weights, store)
        image = tmp_path / "img.ppm"
        write_ppm(image, np.zeros((16, 16, 3), dtype=np.uint8))
        out = tmp_path / "maps"
        assert run("forward", "--config", cfg, "--image", image,
                   "--weights", weights, "--out", out) == 1
        assert capsys.readouterr().err == "error: no weights for layer 'conv1_1'\n"
        assert not out.exists()

    def test_out_of_memory_is_an_error_line(self, tmp_path):
        # The child's address space is capped at 1 GiB, which holds the
        # import and the VGG weights but not the first 200000-channel weight
        # array (1.72 GiB of float64 draws). This config must never run
        # uncapped: its next layer alone asks for 2.6 TiB.
        pytest.importorskip("resource")
        script = ("import resource, sys\n"
                  f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
                  "from mlnpose.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        image = tmp_path / "img.ppm"
        write_ppm(image, np.zeros((16, 16, 3), dtype=np.uint8))
        cfg = write_config(tmp_path, {"network": {"block_channels": 200000}})
        src = str(Path(mlnpose.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, "forward", "--config", cfg,
                               "--image", str(image), "--out", str(tmp_path / "maps")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not (tmp_path / "maps").exists()


class TestReports:
    def test_complexity(self, tmp_path, capsys):
        out = tmp_path / "complexity.json"
        assert run("complexity", "--input-dims", "368x432", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["total_params"] == sum(r["params"] for r in report["per_layer"])
        text = capsys.readouterr().out
        assert "TOTAL" in text and "headline" in text

    # sha256 of the --out file: every per-layer row, byte for byte.
    @pytest.mark.parametrize("dims, network, digest", [
        ("368x432", None, "a7c07a3ebeb6861bf32748960b1cc53dcef55228d5fc1a6900d224f2f4d02199"),
        ("64x96", None, "8d4e149e5886dbb0eeed465560a5f1beacc1e4a876c5dd0755e91f84bd3aa745"),
        ("64x96", {"aggregation": "add", "transfer_tap": "penultimate", "block_channels": 64},
         "546fdea2fc79ca4f60c732734282764b83a7f74b7f8e8a05b5d14fb368429ff7")],
        ids=["default-368x432", "default-64x96", "add-penultimate-64x96"])
    def test_complexity_file_pinned(self, tmp_path, dims, network, digest):
        out = tmp_path / "complexity.json"
        config = [] if network is None else [
            "--config", write_config(tmp_path, {"network": network})]
        assert run("complexity", *config, "--input-dims", dims, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_complexity_flop_convention(self, tmp_path, capsys):
        assert run("complexity", "--input-dims", "64x64",
                   "--flop-convention", "mac1") == 0
        assert "(mac1)" in capsys.readouterr().out


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

    ONE_MAP = "{} must hold exactly one map stack, got shape {}"
    DIMS = "{} and {}: joint maps {} and limb maps {} differ in (H, W)"

    @pytest.mark.parametrize("stem, joints, limbs, via, message", [
        ("scene_1", (0, 19, 4, 4), (1, 38, 4, 4), "files", ONE_MAP.format("{j}", (0, 19, 4, 4))),
        ("scene_1", (2, 19, 4, 4), (1, 38, 4, 4), "maps", ONE_MAP.format("{j}", (2, 19, 4, 4))),
        ("scene_1", (1, 19, 4, 4), (0, 38, 4, 4), "maps", ONE_MAP.format("{l}", (0, 38, 4, 4))),
        ("scene_1", (1, 19, 4, 4), (2, 38, 4, 4), "files", ONE_MAP.format("{l}", (2, 38, 4, 4))),
        ("scene_1", (1, 19, 4, 4), (1, 38, 2, 2), "files",
         DIMS.format("{j}", "{l}", (19, 4, 4), (38, 2, 2))),
        ("scene_1", (1, 19, 4, 6), (1, 38, 6, 4), "maps",
         DIMS.format("{j}", "{l}", (19, 4, 6), (38, 6, 4))),
        ("backup", (1, 19, 4, 4), (1, 38, 4, 4), "maps",
         "cannot read an image id from {j}: expected <prefix>_<image id>_joints.mlnt"),
    ], ids=["joints_batch_0", "joints_batch_2", "limbs_batch_0", "limbs_batch_2",
            "dims_mismatch", "limbs_transposed", "maps_name_without_id"])
    def test_decode_bad_map_files(self, tmp_path, capsys, stem, joints, limbs, via, message):
        j, l = tmp_path / f"{stem}_joints.mlnt", tmp_path / f"{stem}_limbs.mlnt"
        write_tensor(j, np.zeros(joints, np.float32))
        write_tensor(l, np.zeros(limbs, np.float32))
        inputs = ["--maps", tmp_path] if via == "maps" else ["--joints", j, "--limbs", l]
        out = tmp_path / "r.json"
        assert run("decode", *inputs, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: {message.format(j=j, l=l)}\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["joints", "limbs"], ids=["inf_plateau", "nan_limbs"])
    def test_decode_non_finite_maps(self, tmp_path, capsys, bad):
        # Two adjacent +inf neck cells with a shoulder partner, or one NaN
        # limb cell: a map file must be finite, whatever decode makes of it.
        joints = np.zeros((1, 19, 8, 8), np.float32)
        joints[0, 1, 3, 3:5] = np.inf if bad == "joints" else 1.0
        joints[0, 2, 3, 6] = 1.0
        limbs = np.zeros((1, 38, 8, 8), np.float32)
        limbs[0, 0] = 1.0
        limbs[0, 1, 0, 0] = np.nan if bad == "limbs" else 0.0
        paths = {kind: tmp_path / f"scene_0001_{kind}.mlnt" for kind in ("joints", "limbs")}
        write_tensor(paths["joints"], joints)
        write_tensor(paths["limbs"], limbs)
        out = tmp_path / "r.json"
        assert run("decode", "--maps", tmp_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert (f"error: {paths[bad]} holds NaN or inf; a map stack or image must be "
                f"finite\n") in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_non_finite_result(self, tmp_path, capsys):
        results, annotations = write_eval_inputs(tmp_path)
        entries = json.loads(results.read_text())
        entries[0]["keypoints"][2] = float("nan")
        results.write_text(json.dumps(entries))
        assert run("eval", "--results", results, "--annotations", annotations) == 1
        err = capsys.readouterr().err
        assert "error: results[0]: keypoint 0" in err and "Traceback" not in err

    def test_overlay_missing_image(self, tmp_path, capsys):
        annotations = write_keypoint_annotations(tmp_path, [], 8, 8)
        out = tmp_path / "overlay.ppm"
        assert run("overlay", "--annotations", annotations, "--image-id", 5,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: image 5 is not in {annotations}" in err and "Traceback" not in err
        assert not out.exists()

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
        ({"oks_constants": [10 ** 400] * 18}, 5000.0, []),
    ], ids=["too_few_constants", "zero_constants", "constants_not_array",
            "zero_area", "non_object_image", "bool_constants", "huge_int_constants"])
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
        ("synth", {"skeleton": {"joint_names": [], "limbs": []}}, "skeleton", "joint_names"),
        *TYPE_ERRORS,
    ], ids=["not_object", "network_not_object", "network_width_str",
            "network_count_float", "groundtruth_not_object", "groundtruth_inf_stride",
            "scene_dims_not_pair", "scene_not_object", "scene_count_str",
            "decode_bad_value", "decode_samples_float", "skeleton_missing_keys",
            "scene_dims_too_large", "skeleton_limb_self_loop", "skeleton_no_joints",
            *TYPE_ERROR_IDS])
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

    @pytest.mark.parametrize("scene", [{"seed": 5}, {"seed": 0, "person_count": [1, 1]}])
    def test_synth_rejects_scene_seed(self, tmp_path, capsys, scene):
        # Scene i is sampled from derive_seed(--seed, i), so a config seed
        # would be silently ignored.
        out = tmp_path / "s"
        assert run("synth", "--config", write_config(tmp_path, {"scene": scene}),
                   "--scenes", 1, "--out", out) == 1
        err = capsys.readouterr().err
        line = next(line for line in err.splitlines() if line.startswith("error:"))
        assert "scene.seed" in line and "--seed" in line and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--scenes", -1], ["synth", "--threads", 0], ["decode", "--threads", 0],
    ], ids=["scenes_negative", "threads_zero", "decode_threads_zero"])
    def test_bad_counts(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert "error: --" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dims", ["12x12", "7x7", "0x8"])
    def test_complexity_rejects_what_forward_rejects(self, capsys, dims):
        assert run("complexity", "--input-dims", dims) == 1
        assert "multiples of 8" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["368x432x3", "368", "axb"])
    def test_complexity_bad_input_dims(self, capsys, dims):
        assert run("complexity", "--input-dims", dims) == 1
        err = capsys.readouterr().err
        assert f"error: --input-dims must be HxW (e.g. 368x432), got {dims!r}" in err

    # Each command's required options, so that the flag is the only error.
    REQUIRED = {"render-gt": ["--annotations", "a.json", "--out", "o"],
                "forward": ["--image", "i.ppm", "--out", "o"],
                "decode": ["--out", "r.json"],
                "eval": ["--results", "r.json", "--annotations", "a.json"],
                "complexity": [],
                "overlay": ["--annotations", "a.json", "--out", "o.ppm"]}

    @pytest.mark.parametrize("command, flag", [
        (command, "--seed") for command in ("render-gt", "decode", "eval", "complexity",
                                            "overlay")] + [
        (command, "--threads") for command in ("forward", "eval", "complexity", "overlay")])
    def test_flag_not_taken(self, tmp_path, monkeypatch, capsys, command, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *self.REQUIRED[command], flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_command(self):
        for command in ("frobnicate", "bench"):
            with pytest.raises(SystemExit):
                main([command])
