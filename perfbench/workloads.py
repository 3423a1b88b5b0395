"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``__init__`` (untimed),
has a ``setup`` step that run.py repeats and times, an optional
one-off ``warm_up`` counted in set-up time, and a ``run_unit`` step that
the timed loop repeats. A unit is one image, or one pass over a fixed
batch of scenes followed by scoring the batch; repeating the same batch
keeps AP deterministic for a seed however many passes a run completes.
"""

import hashlib
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from mlnpose import decoder, evalkit, fileio, groundtruth, network, synth
from mlnpose.skeleton import default_skeleton

# Inputs are sized per mode; "tiny" exists for the smoke test only.
SIZES = {
    "full": {"image_hw": (368, 432), "image_pool": 6, "scene_batch": 30, "crowd_batch": 20},
    "tiny": {"image_hw": (64, 64), "image_pool": 3, "scene_batch": 2, "crowd_batch": 2},
}
WEIGHT_SEED = 0           # weights and the reference image do not depend on
REFERENCE_IMAGE_SEED = 0  # --seed, so their recorded output sums always apply
AP_TOLERANCE = 1e-9
STRIDE = 8


@dataclass
class Unit:
    items: int
    latencies: list = field(default_factory=list)   # seconds, one per finished item
    failed: int = 0
    score_s: float = None
    ap: float = None


def report_failure(what):
    print(f"FAILED {what}:\n{traceback.format_exc()}", flush=True)


def _image(seed, hw):
    """A seeded RGB image normalised as ``mlnpose forward`` normalises PPMs."""
    pixels = np.random.default_rng(seed).integers(0, 256, size=hw + (3,), dtype=np.uint8)
    return (pixels.astype(np.float32) / 256.0 - 0.5).transpose(2, 0, 1)[None]


def _area(person):
    xs = [kp.x for kp in person.keypoints if kp is not None]
    ys = [kp.y for kp in person.keypoints if kp is not None]
    return (max(xs) - min(xs)) * (max(ys) - min(ys))


def _people_ok(people, image_dims):
    h, w = image_dims
    return all(0.0 <= kp.x <= w and 0.0 <= kp.y <= h
               for p in people for kp in p.keypoints if kp is not None)


def _channel_sums(maps):
    m = np.asarray(maps, dtype=np.float64)[0]
    return m.sum(axis=(1, 2)).tolist(), np.abs(m).sum(axis=(1, 2)).tolist()


class ImageToPeople:
    """Seeded images through ``network.forward`` + ``decoder.decode``."""

    name = "image_to_people"

    def __init__(self, seed, size, workdir, reference):
        self.skeleton = default_skeleton()
        self.hw = SIZES[size]["image_hw"]
        self.reference = reference["image_to_people"][size] if reference else None
        self.weights_path = workdir / "weights.mlnw"
        graph = network.build_mln(self.skeleton)
        network.save_weights(self.weights_path, network.random_weights(graph, WEIGHT_SEED))
        pool = SIZES[size]["image_pool"]
        self.inputs = [_image(REFERENCE_IMAGE_SEED, self.hw)]
        self.inputs += [_image(synth.derive_seed(seed, k), self.hw) for k in range(1, pool)]
        self.digests = {}
        self.unit_items = 1
        self.graph = self.weights = None

    def setup(self):
        self.graph = network.build_mln(self.skeleton)
        self.weights = network.load_weights(self.weights_path, self.graph)

    def warm_up(self):
        """One forward on the reference image; returns whether its outputs
        pass every check, the recorded channel sums included."""
        return self._check(0, *network.forward(self.graph, self.weights, self.inputs[0]))

    def reference_sums(self):
        jm, lm = network.forward(self.graph, self.weights, self.inputs[0])
        return {"joints": _channel_sums(jm), "limbs": _channel_sums(lm)}

    def _check(self, k, jm, lm):
        h, w = self.hw[0] // STRIDE, self.hw[1] // STRIDE
        if jm.shape != (1, self.skeleton.joint_map_channels, h, w):
            return False
        if lm.shape != (1, self.skeleton.limb_map_channels, h, w):
            return False
        if not (np.isfinite(jm).all() and np.isfinite(lm).all()):
            return False
        digest = hashlib.sha256(jm.tobytes() + lm.tobytes()).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            return False     # a repeated input must give identical output
        if k == 0 and self.reference is not None:
            tol = self.reference["relative_tolerance"]
            for maps, key in ((jm, "joints"), (lm, "limbs")):
                sums, l1 = _channel_sums(maps)
                ref_sums, ref_l1 = self.reference[key]
                if any(abs(s - r) > tol * n for s, r, n in zip(sums, ref_sums, ref_l1)):
                    return False
        return True

    def run_unit(self, index, mark):
        k = index % len(self.inputs)
        mark(index)
        t0 = time.perf_counter()
        jm, lm = network.forward(self.graph, self.weights, self.inputs[k])
        people = decoder.decode(jm[0], lm[0], self.skeleton, stride=STRIDE)
        latency = time.perf_counter() - t0
        ok = self._check(k, jm, lm) and _people_ok(people, self.hw)
        return Unit(1, [latency], 0 if ok else 1)


class _SceneBatch:
    """A fixed batch of scenes decoded from MLNT files and scored by AP."""

    name = None
    batch_key = None

    def __init__(self, seed, size, workdir, reference):
        self.seed = seed
        self.skeleton = default_skeleton()
        self.gt_cfg = groundtruth.GtConfig()
        self.params = decoder.DecodeParams()
        self.workdir = workdir
        self.unit_items = SIZES[size][self.batch_key]
        self.reference = reference[self.name][size] if reference else None
        self.scenes = self.gts = None

    def map_dims(self):
        h, w = self.scene_config(0).image_dims
        return (h // self.gt_cfg.output_stride, w // self.gt_cfg.output_stride)

    def paths(self, i):
        return (self.workdir / f"scene_{i:04d}_joints.mlnt",
                self.workdir / f"scene_{i:04d}_limbs.mlnt")

    def render(self, people):
        dims = self.map_dims()
        return (groundtruth.render_joint_maps(people, self.skeleton, self.gt_cfg, dims),
                groundtruth.render_pafs(people, self.skeleton, self.gt_cfg, dims))

    def setup(self):
        self.scenes = [synth.sample_scene(self.scene_config(i))
                       for i in range(1, self.unit_items + 1)]
        self.gts = [evalkit.GroundTruthInstance(i, p, _area(p))
                    for i, people in enumerate(self.scenes, start=1) for p in people]

    def warm_up(self):
        return True

    def decode_item(self, i):
        """MLNT read + decode of scene i; returns (people, seconds, maps read)."""
        jpath, lpath = self.paths(i)
        t0 = time.perf_counter()
        joints = fileio.read_tensor(jpath)[0]
        limbs = fileio.read_tensor(lpath)[0]
        people = decoder.decode(joints, limbs, self.skeleton, self.params,
                                stride=self.gt_cfg.output_stride)
        return people, time.perf_counter() - t0, (joints, limbs)

    def check_ap(self, ap):
        """AP must equal the value recorded for this seed; for a seed with
        no recorded value it must reach the recorded floor."""
        if self.reference is None:
            return True
        recorded = self.reference["ap_by_seed"].get(str(self.seed))
        if recorded is not None:
            return abs(ap - recorded) <= AP_TOLERANCE
        return ap >= self.reference["ap_floor"]

    def run_unit(self, index, mark):
        unit = Unit(self.unit_items)
        dets = []
        image_dims = self.scene_config(0).image_dims
        for i, people in enumerate(self.scenes, start=1):
            mark(index * self.unit_items + i - 1)
            try:
                found, seconds, maps_ok = self.process(i, people)
            except Exception:
                report_failure(f"{self.name} scene {i}")
                unit.failed += 1
                continue
            dets += [evalkit.Detection(i, p) for p in found]
            unit.latencies.append(seconds)
            if not (maps_ok and _people_ok(found, image_dims)):
                unit.failed += 1
        mark(-1)
        t0 = time.perf_counter()
        unit.ap = evalkit.average_precision(dets, self.gts).ap
        unit.score_s = time.perf_counter() - t0
        if not self.check_ap(unit.ap):
            unit.failed = unit.items
        return unit


class SceneToAp(_SceneBatch):
    """The CLI pipeline through the library: render -> MLNT write/read ->
    decode -> AP, on default 800x1200 scenes with ideal maps."""

    name = "scene_to_ap"
    batch_key = "scene_batch"

    def scene_config(self, i):
        # Person counts cycle through 1..10 so that every seed's batch
        # holds the same number of people, and so the same work.
        lo, hi = synth.SceneConfig.person_count
        count = lo + i % (hi - lo + 1)
        return synth.SceneConfig(person_count=(count, count),
                                 seed=synth.derive_seed(self.seed, i))

    def process(self, i, people):
        joints, limbs = self.render(people)
        jpath, lpath = self.paths(i)
        fileio.write_tensor(jpath, joints[None])
        fileio.write_tensor(lpath, limbs[None])
        found, seconds, (jr, lr) = self.decode_item(i)
        return found, seconds, np.array_equal(jr, joints) and np.array_equal(lr, limbs)


# Joint maps get noise and false peaks, limb fields noise only and no clamp.
JOINT_NOISE = synth.NoiseSpec(map_sigma=0.02, false_peak_count=40)
LIMB_NOISE = synth.NoiseSpec(map_sigma=0.02)


class CrowdGrouping(_SceneBatch):
    """Ten-person 368x432 scenes with corrupted maps, rendered and written
    during set-up: many candidate pairs per limb and many detections per
    image for the decoder's matching and evalkit's matching."""

    name = "crowd_grouping"
    batch_key = "crowd_batch"

    def scene_config(self, i):
        return synth.SceneConfig(image_dims=(368, 432), person_count=(10, 10),
                                 limb_length_range=(8.0, 16.0), min_spacing=80.0,
                                 seed=synth.derive_seed(self.seed, i))

    def setup(self):
        super().setup()
        for i, people in enumerate(self.scenes, start=1):
            joints, limbs = self.render(people)
            noise_seed = synth.derive_seed(self.seed, 1000 + i)
            joints = synth.corrupt_maps(joints, JOINT_NOISE, noise_seed)
            limbs = synth.corrupt_maps(limbs, LIMB_NOISE, noise_seed + 1, clamp=None)
            jpath, lpath = self.paths(i)
            fileio.write_tensor(jpath, joints[None])
            fileio.write_tensor(lpath, limbs[None])

    def process(self, i, people):
        found, seconds, maps = self.decode_item(i)
        return found, seconds, all(np.isfinite(m).all() for m in maps)


WORKLOADS = {w.name: w for w in (ImageToPeople, SceneToAp, CrowdGrouping)}
