"""Acceptance suite: one test per shipping criterion, each printing a
single PASS line with its headline numbers (visible via pytest -s or in
the unbuffered terminal thanks to capsys.disabled)."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mlnpose import network
from mlnpose.cli import main as cli_main
from mlnpose.decoder import (DecodeParams, _limb_scores, decode, find_all_peaks,
                             match_all_limbs)
from mlnpose.evalkit import (Detection, average_precision,
                             parse_annotations, write_results)
from mlnpose.groundtruth import (GtConfig, joint_loss, loss_gradient,
                                 render_joint_maps, render_pafs)
from mlnpose.network import build_mln, forward, random_weights, save_weights
from mlnpose.skeleton import Keypoint, Person, Visibility, default_skeleton
from mlnpose.synth import SceneConfig, derive_seed, sample_scene
from oracles import bilinear, optimal_assignment

PUBLISHED_PARAMS = 21_278_912
PUBLISHED_SIZE_MB = 85.2
PUBLISHED_GFLOPS = 82.5

ROOT = Path(__file__).resolve().parent.parent


def announce(capsys, number, name, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): PASS  [{detail}]", flush=True)


@pytest.fixture(scope="module")
def complexity(tmp_path_factory):
    out = tmp_path_factory.mktemp("complexity") / "report.json"
    t0 = time.perf_counter()
    code = cli_main(["complexity", "--input-dims", "368x432",
                     "--flop-convention", "mac1", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text())
    report["_elapsed"] = elapsed
    return report


def test_criterion_1_parameter_count(complexity, capsys):
    total = complexity["total_params"]
    rel = total / PUBLISHED_PARAMS - 1.0
    assert abs(rel) <= 0.15, f"{total:,d} is {rel:+.1%} from {PUBLISHED_PARAMS:,d}"
    assert complexity["_elapsed"] < 1.0
    # The counting formula is exact on hand-computed layers.
    by_name = {r["name"]: r["params"] for r in complexity["per_layer"]}
    assert by_name["conv1_1"] == 1_792
    three_by_three_128 = [r for r in complexity["per_layer"]
                          if r["params"] == 147_584]
    assert three_by_three_128, "expected 3x3 128->128 layers at 147,584 params"
    # Per-layer breakdown and the gap are written up in the docs.
    doc = (ROOT / "docs" / "reconstruction.md").read_text()
    assert f"{total:,d}" in doc
    announce(capsys, 1, "parameter count",
             f"{total:,d} params, {rel:+.1%} vs {PUBLISHED_PARAMS:,d}, "
             f"{complexity['_elapsed'] * 1e3:.0f} ms")


def test_criterion_2_flop_count(complexity, capsys):
    mac1 = complexity["total_flops_mac1"]
    mac2 = complexity["total_flops_mac2"]
    rel1 = mac1 / (PUBLISHED_GFLOPS * 1e9) - 1.0
    rel2 = mac2 / (PUBLISHED_GFLOPS * 1e9) - 1.0
    assert abs(rel1) <= 0.20 or abs(rel2) <= 0.20
    assert complexity["_elapsed"] < 1.0
    announce(capsys, 2, "FLOP count",
             f"mac1 {mac1 / 1e9:.1f} GFLOPs ({rel1:+.1%}), "
             f"mac2 {mac2 / 1e9:.1f} GFLOPs ({rel2:+.1%}) vs {PUBLISHED_GFLOPS} G")


def test_criterion_3_model_size(complexity, capsys):
    size = complexity["model_size_mb"]
    assert size == pytest.approx(complexity["total_params"] * 4 / 1e6)
    rel = size / PUBLISHED_SIZE_MB - 1.0
    assert abs(rel) <= 0.15
    announce(capsys, 3, "model size",
             f"{size:.1f} MB, {rel:+.1%} vs {PUBLISHED_SIZE_MB} MB")


SCENE_COUNT = 100
MAP_DIMS = (100, 150)


@pytest.fixture(scope="module")
def round_trip_scenes():
    """100 seeded scenes rendered and decoded once, shared by criteria
    4 and 5; greedy/optimal matching is recorded per limb type."""
    sk = default_skeleton()
    gt_cfg = GtConfig()
    params = DecodeParams(filters_enabled=False)
    decode_elapsed = 0.0
    match_elapsed = 0.0
    records = []
    for i in range(SCENE_COUNT):
        cfg = SceneConfig(seed=derive_seed(0, i))
        t0 = time.perf_counter()
        people = sample_scene(cfg)
        joints = render_joint_maps(people, sk, gt_cfg, MAP_DIMS)
        pafs = render_pafs(people, sk, gt_cfg, MAP_DIMS)
        decode_elapsed += time.perf_counter() - t0

        t0 = time.perf_counter()
        decoded = decode(joints, pafs, sk, params)
        decode_elapsed += time.perf_counter() - t0

        t0 = time.perf_counter()
        peaks_by_type, _ = find_all_peaks(joints, sk, params)
        connections = match_all_limbs(peaks_by_type, pafs, sk, params)
        first = np.cumsum([0] + [len(p) for p in peaks_by_type]).tolist()  # peak ids
        matches = []
        for limb_type, (ja, jb) in enumerate(sk.limbs):
            a, b = peaks_by_type[ja], peaks_by_type[jb]
            greedy = {(pa - first[ja], pb - first[jb])
                      for pa, pb in connections[limb_type]}
            na, nb = len(a), len(b)
            scores, _ = _limb_scores(np.repeat(a.x, nb), np.repeat(a.y, nb),
                                     np.tile(b.x, na), np.tile(b.y, na),
                                     np.full(na * nb, 2 * limb_type), pafs, params)
            scores = scores.reshape(na, nb)
            # The exhaustive oracle is factorial; use it up to 5x5 and
            # the cross-validated polynomial solver above (see the
            # solver agreement check in criterion 5).
            if max(scores.shape) <= 5:
                pairs, _ = optimal_assignment(scores)
                optimal = set(pairs)
            else:
                rows, cols = linear_sum_assignment(scores, maximize=True)
                optimal = set(zip(rows.tolist(), cols.tolist()))
            matches.append((greedy, optimal))
        match_elapsed += time.perf_counter() - t0
        records.append({"people": people, "decoded": decoded, "matches": matches})
    return {"records": records, "decode_elapsed": decode_elapsed,
            "match_elapsed": match_elapsed}


def test_criterion_4_synthetic_round_trip(round_trip_scenes, capsys):
    count_exact = 0
    total_kp = 0
    within = 0
    identity_ok = True
    for rec in round_trip_scenes["records"]:
        people, decoded = rec["people"], rec["decoded"]
        if len(decoded) == len(people):
            count_exact += 1
        # Pair each decoded person with the ground truth whose neck is
        # nearest; joint slots then compare like for like, so a swapped
        # left/right identity shows up as a distance failure.
        for person in decoded:
            neck = person.keypoints[1]
            gt = min(people, key=lambda g: math.hypot(g.keypoints[1].x - neck.x,
                                                      g.keypoints[1].y - neck.y))
            for j in range(18):
                total_kp += 1
                kp = person.keypoints[j]
                if kp is None:
                    continue
                d = math.hypot(kp.x - gt.keypoints[j].x, kp.y - gt.keypoints[j].y)
                if d <= 8.0:
                    within += 1
            # Left/right identity: for every mirrored joint pair, the
            # straight assignment must not lose to the swapped one.
            names = default_skeleton().joint_names
            for j, name in enumerate(names):
                if not name.startswith("left_"):
                    continue
                oj = names.index("right_" + name[5:])
                kl, kr = person.keypoints[j], person.keypoints[oj]
                if kl is None or kr is None:
                    continue
                gl, gr = gt.keypoints[j], gt.keypoints[oj]
                straight = (math.hypot(kl.x - gl.x, kl.y - gl.y)
                            + math.hypot(kr.x - gr.x, kr.y - gr.y))
                swapped = (math.hypot(kl.x - gr.x, kl.y - gr.y)
                           + math.hypot(kr.x - gl.x, kr.y - gl.y))
                if straight > swapped + 1e-9:
                    identity_ok = False
    frac = within / total_kp
    assert count_exact == SCENE_COUNT
    assert frac >= 0.99, f"only {frac:.4f} of keypoints within 8 px"
    assert identity_ok, "left/right identity mismatch"
    assert round_trip_scenes["decode_elapsed"] < 30.0
    announce(capsys, 4, "synthetic round trip",
             f"person count exact {count_exact}/{SCENE_COUNT}, "
             f"{frac:.2%} of {total_kp} keypoints within 8 px, "
             f"decode {round_trip_scenes['decode_elapsed']:.1f} s")


def greedy_matrix_total(scores):
    """Plain greedy on a raw matrix: descending score, one use per row
    and column, up to min(n, m) accepted pairs."""
    n, m = scores.shape
    order = np.argsort(-scores, axis=None, kind="stable")
    used_r, used_c = set(), set()
    total = 0.0
    for k in order:
        if len(used_r) >= min(n, m):
            break
        r, c = divmod(int(k), m)
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        total += scores[r, c]
    return total


def test_criterion_5_greedy_vs_optimal(round_trip_scenes, capsys):
    t0 = time.perf_counter()
    limb_checks = 0
    for rec in round_trip_scenes["records"]:
        for greedy, optimal in rec["matches"]:
            assert greedy == optimal
            limb_checks += 1
    # The exhaustive oracle and the polynomial solver agree where both
    # apply, so the solver is a valid stand-in above the 8x8 cap.
    rng = np.random.default_rng(42)
    for _ in range(200):
        n, m = rng.integers(1, 7, size=2)
        s = rng.normal(size=(n, m))
        _, total = optimal_assignment(s)
        rows, cols = linear_sum_assignment(s, maximize=True)
        assert total == pytest.approx(float(s[rows, cols].sum()), abs=1e-9)
    # Greedy never beats optimal on 1,000 random matrices up to 6x6.
    for _ in range(1000):
        n, m = rng.integers(1, 7, size=2)
        s = rng.normal(size=(n, m))
        _, optimal_total = optimal_assignment(s)
        assert greedy_matrix_total(s) <= optimal_total + 1e-12
    elapsed = round_trip_scenes["match_elapsed"] + time.perf_counter() - t0
    assert elapsed < 10.0
    announce(capsys, 5, "greedy vs optimal",
             f"set equality on {limb_checks} limb matchings over "
             f"{SCENE_COUNT} scenes, 1000 random matrices bounded, "
             f"{elapsed:.1f} s")


def smooth_field(rng, shape):
    """Random PAF stand-in with correlation length of a few cells, so a
    10-sample average is representative of the dense line integral."""
    field = rng.normal(size=shape)
    for _ in range(40):
        field = (field
                 + np.roll(field, 1, axis=-1) + np.roll(field, -1, axis=-1)
                 + np.roll(field, 1, axis=-2) + np.roll(field, -1, axis=-2)) / 5.0
    return (field / np.abs(field).max()).astype(np.float32)


def test_criterion_6_connection_score_fidelity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    params = DecodeParams()
    stride = 8
    h, w = 46, 54
    worst = 0.0
    t = np.linspace(0.0, 1.0, 10_000)
    for _ in range(500):
        paf = smooth_field(rng, (2, h, w))
        ax, ay = rng.uniform(20, w * stride - 20), rng.uniform(20, h * stride - 20)
        angle = rng.uniform(0, 2 * np.pi)
        length = rng.uniform(30.0, 120.0)
        bx = float(np.clip(ax + length * np.cos(angle), 4, w * stride - 4))
        by = float(np.clip(ay + length * np.sin(angle), 4, h * stride - 4))
        (score,), _ = _limb_scores(np.array([ax]) / stride, np.array([ay]) / stride,
                                   np.array([bx]) / stride, np.array([by]) / stride,
                                   np.zeros(1, dtype=np.int64), paf, params)
        # Dense oracle: 10,000 bilinear samples along the segment.
        px = ax + (bx - ax) * t
        py = ay + (by - ay) * t
        u, v = px / stride - 0.5, py / stride - 0.5
        d = math.hypot(bx - ax, by - ay)
        ux, uy = (bx - ax) / d, (by - ay) / d
        dense = float((bilinear(paf[0].astype(np.float64), u, v) * ux
                       + bilinear(paf[1].astype(np.float64), u, v) * uy).mean())
        worst = max(worst, abs(score - dense))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.05, f"worst |delta| = {worst:.4f}"
    assert elapsed < 10.0
    announce(capsys, 6, "connection score fidelity",
             f"worst |delta| {worst:.4f} over 500 pairs vs 10k-sample "
             f"oracle, {elapsed:.1f} s")


def test_criterion_7_gradient_check(capsys):
    t0 = time.perf_counter()
    h = 1e-4
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(-1, 1, size=(4, 6, 7))
        gt = rng.uniform(-1, 1, size=(4, 6, 7))
        mask = (rng.uniform(size=(6, 7)) > 0.25).astype(np.float64)
        grad = loss_gradient(pred, gt, mask)
        flat = pred.ravel()
        for idx in rng.choice(flat.size, size=12, replace=False):
            bumped = flat.copy()
            bumped[idx] += h
            up = joint_loss(bumped.reshape(pred.shape), gt, mask)
            bumped[idx] -= 2 * h
            down = joint_loss(bumped.reshape(pred.shape), gt, mask)
            fd = (up - down) / (2 * h)
            g = grad.ravel()[idx]
            if abs(g) > 1e-6:
                assert abs(fd - g) / abs(g) <= 1e-3
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(capsys, 7, "gradient check",
             f"{checked} elements across 50 instances within 1e-3, "
             f"{elapsed:.2f} s")


def noisy_detections(gts, sigma, seed):
    rng = np.random.default_rng(seed)
    dets = []
    for gt in gts:
        kps = []
        for kp in gt.person.keypoints:
            if kp is None:
                kps.append(None)
                continue
            kps.append(Keypoint(kp.x + rng.normal(0, sigma),
                                kp.y + rng.normal(0, sigma),
                                Visibility.VISIBLE, 1.0))
        dets.append(Detection(gt.image_id, Person(kps)))
    return dets


def test_criterion_8_metric_sanity(tmp_path, capsys):
    t0 = time.perf_counter()
    sk = default_skeleton()
    scenes = tmp_path / "scenes"
    assert cli_main(["synth", "--seed", "17", "--scenes", "30",
                     "--out", str(scenes)]) == 0
    ann_path = scenes / "annotations.json"
    store = parse_annotations(ann_path.read_text(), sk)
    # Ground truth replayed as detections through cmd_eval.
    gt_dets = [Detection(g.image_id, g.person) for g in store.instances]
    results = tmp_path / "results.json"
    results.write_text(json.dumps(write_results(gt_dets)))
    metrics_path = tmp_path / "metrics.json"
    assert cli_main(["eval", "--results", str(results),
                     "--annotations", str(ann_path),
                     "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["AP"] == pytest.approx(1.0)
    assert metrics["AP50"] == pytest.approx(1.0)
    assert metrics["AP75"] == pytest.approx(1.0)
    # AP falls strictly as keypoint noise grows.
    aps = []
    for sigma in (2.0, 8.0, 16.0):
        dets = noisy_detections(store.instances, sigma, seed=99)
        aps.append(average_precision(dets, store.instances).ap)
    assert aps[0] > aps[1] > aps[2], f"AP not strictly decreasing: {aps}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(capsys, 8, "metric sanity",
             f"GT-as-detections AP/AP50/AP75 = 1.000, noisy AP "
             f"{aps[0]:.3f} > {aps[1]:.3f} > {aps[2]:.3f}, {elapsed:.1f} s")


def test_criterion_9_grouping_latency(capsys):
    sk = default_skeleton()
    gt_cfg = GtConfig()
    params = DecodeParams(filters_enabled=False)
    scene_cfg = SceneConfig(image_dims=(368, 432), person_count=(10, 10),
                            limb_length_range=(8.0, 16.0), min_spacing=80.0,
                            seed=0)
    people = sample_scene(scene_cfg)
    assert len(people) == 10
    joints = render_joint_maps(people, sk, gt_cfg, (46, 54))
    pafs = render_pafs(people, sk, gt_cfg, (46, 54))
    peaks_by_type, peaks_by_id = find_all_peaks(joints, sk, params)

    from mlnpose.decoder import assemble_skeletons
    samples = []
    for rep in range(60):
        t0 = time.perf_counter()
        conns = match_all_limbs(peaks_by_type, pafs, sk, params)
        assemble_skeletons(conns, peaks_by_id, sk, params)
        if rep >= 10:  # warmup excluded
            samples.append((time.perf_counter() - t0) * 1e3)
    median = float(np.median(samples))
    mean = float(np.mean(samples))
    assert median < 5.0, f"grouping median {median:.2f} ms >= 5 ms"
    announce(capsys, 9, "grouping latency",
             f"10-person 46x54 grouping median {median:.2f} ms, mean "
             f"{mean:.2f} ms over 50 reps; reference figures for the "
             f"original model: 0.2 ms (2 people), 0.6 ms (10 people)")


# Prints the forward's sha256 with the seed-0 store made in memory, then
# with that store read back from the MLNW file named by argv[1].
_FORWARD_SNIPPET = """
import hashlib, sys
import numpy as np
from mlnpose.network import build_mln, forward, load_weights, random_weights
from mlnpose.skeleton import default_skeleton
graph = build_mln(default_skeleton())
image = np.random.default_rng(123).normal(size=(1, 3, 368, 432)).astype(np.float32)
for weights in (random_weights(graph, seed=0), load_weights(sys.argv[1], graph)):
    jm, lm = forward(graph, weights, image)
    print(hashlib.sha256(jm.tobytes() + lm.tobytes()).hexdigest())
"""


def test_criterion_10_forward_pass_contract(capsys, monkeypatch, tmp_path):
    graph = build_mln(default_skeleton())
    weights = random_weights(graph, seed=0)
    weights_file = tmp_path / "weights.mlnw"
    save_weights(weights_file, weights)
    image = np.random.default_rng(123).normal(size=(1, 3, 368, 432)).astype(np.float32)
    t0 = time.perf_counter()
    jm, lm = forward(graph, weights, image)
    wall = time.perf_counter() - t0
    assert jm.shape == (1, 19, 46, 54)
    assert lm.shape == (1, 38, 46, 54)
    assert np.isfinite(jm).all() and np.isfinite(lm).all()
    digest = hashlib.sha256(jm.tobytes() + lm.tobytes()).hexdigest()
    # Bit-identical across thread counts, and through a store read back
    # from its file: rerun in subprocesses pinned to different
    # BLAS/OpenMP thread counts and compare hashes.
    hashes = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _FORWARD_SNIPPET, str(weights_file)],
                             capture_output=True, text=True, env=env, check=True)
        hashes += out.stdout.split()
    assert hashes == [digest] * 4
    # The convs and ReLUs that write over their input give the bits of a
    # run of the same graph in which every layer writes a fresh array.
    steps = network.plan(graph, image.shape[1:])
    in_place = sum(step.in_place for step in steps)
    monkeypatch.setattr(network, "plan",
                        lambda *args: [replace(step, in_place=False) for step in steps])
    fresh = forward(graph, weights, image)
    assert hashlib.sha256(fresh[0].tobytes() + fresh[1].tobytes()).hexdigest() == digest
    announce(capsys, 10, "forward pass contract",
             f"19x46x54 and 38x46x54, finite, sha256 {digest[:12]}... "
             f"identical at 1 and 4 threads, through a store loaded from its MLNW "
             f"file, and with its {in_place} in-place layers "
             f"run out of place, CPU wall time {wall:.1f} s (no threshold)")
