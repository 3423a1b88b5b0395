"""Keypoint evaluation: OKS similarity, AP over the standard threshold
sweep, and the COCO-keypoints JSON subset for annotations and results.

Matching follows the official evaluator's conventions: detections are
taken in descending instance-score order, each grabs the unmatched
ground truth with the highest OKS at or above the threshold, and the
precision-recall curve is integrated at 101 recall points. Area-band
metrics (medium/large) treat out-of-band ground truths as ignored.
Ground truths with no labeled keypoints are ignored in every band: they
are neither counted nor matched.

OKS is computed once per (detection, ground truth) pair of the same
image, before any matching; the 10 thresholds x 3 area bands all reuse
that table.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .skeleton import Keypoint, Person, Visibility

OKS_THRESHOLDS = tuple(np.round(np.arange(0.50, 1.00, 0.05), 2))
MEDIUM_RANGE = (32 ** 2, 96 ** 2)
LARGE_RANGE = (96 ** 2, float("inf"))
# Largest image height or width an annotation file may declare, and so
# the largest a synthetic scene may have. Map rendering and overlays size
# their arrays from these fields, so a larger value is rejected before
# anything is allocated.
MAX_IMAGE_SIDE = 16384

# Falloff constants per joint for the default 18-joint model, derived
# from the standard COCO per-joint sigmas (k = 2 * sigma); the neck
# reuses the shoulder constant.
DEFAULT_OKS_CONSTANTS = (
    0.052, 0.158,                      # nose, neck
    0.158, 0.144, 0.124,               # right shoulder/elbow/wrist
    0.158, 0.144, 0.124,               # left arm
    0.214, 0.174, 0.178,               # right hip/knee/ankle
    0.214, 0.174, 0.178,               # left leg
    0.050, 0.050, 0.070, 0.070,        # eyes, ears
)


@dataclass(frozen=True)
class Detection:
    image_id: int
    person: Person

    @property
    def score(self):
        """Instance score: mean keypoint confidence over present keypoints."""
        kps = [kp for kp in self.person.keypoints if kp is not None]
        if not kps:
            return 0.0
        return float(np.mean([kp.confidence for kp in kps]))


@dataclass(frozen=True)
class GroundTruthInstance:
    image_id: int
    person: Person
    area: float


@dataclass
class EvalResult:
    ap: float
    ap50: float
    ap75: float
    ap_medium: float
    ap_large: float
    per_threshold: dict = field(default_factory=dict)  # threshold -> AP (all areas)

    def to_dict(self):
        return {"AP": self.ap, "AP50": self.ap50, "AP75": self.ap75,
                "APM": self.ap_medium, "APL": self.ap_large,
                "per_threshold": {f"{t:.2f}": v for t, v in self.per_threshold.items()}}

    def to_table(self):
        head = f"{'AP':>8s} {'AP.50':>8s} {'AP.75':>8s} {'AP(M)':>8s} {'AP(L)':>8s}"
        row = (f"{self.ap:8.3f} {self.ap50:8.3f} {self.ap75:8.3f} "
               f"{self.ap_medium:8.3f} {self.ap_large:8.3f}")
        return head + "\n" + row


def oks(det, gt, gt_area, constants=DEFAULT_OKS_CONSTANTS):
    """Object keypoint similarity between a detection and one ground truth.

    Mean of exp(-d_i^2 / (2 * area * k_i^2)) over the ground truth's
    labeled keypoints; a missing detected keypoint contributes 0.
    """
    labeled = [i for i, kp in enumerate(gt.keypoints)
               if kp is not None and kp.visibility != Visibility.ABSENT]
    if not labeled:
        raise ValueError("ground truth has no labeled keypoints")
    s2 = float(gt_area)
    total = 0.0
    for i in labeled:
        dkp = det.keypoints[i] if i < len(det.keypoints) else None
        if dkp is None:
            continue
        gkp = gt.keypoints[i]
        d2 = (dkp.x - gkp.x) ** 2 + (dkp.y - gkp.y) ** 2
        total += np.exp(-d2 / (2.0 * s2 * constants[i] ** 2))
    return float(total / len(labeled))


def _interpolated_ap(tp_flags, num_gt):
    """AP from match flags in descending score order, 101-point interpolation."""
    if num_gt == 0:
        return -1.0
    if not tp_flags:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum([not f for f in tp_flags])
    recall = tp / num_gt
    precision = tp / (tp + fp)
    # Precision envelope: best precision at recall >= r.
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    idx = 0
    for r in np.linspace(0.0, 1.0, 101):
        while idx < len(recall) and recall[idx] < r:
            idx += 1
        ap += precision[idx] if idx < len(recall) else 0.0
    return ap / 101.0


def _ap_at_threshold(dets, order, oks_rows, ignored_by_image, threshold):
    """AP at one threshold in one area band.

    oks_rows[i] holds detection i's OKS against each ground truth of its
    image; ignored_by_image[image_id][j] marks that image's out-of-band
    ground truths, which absorb detections without counting as hits or
    false positives.
    """
    num_gt = sum(not flag for flags in ignored_by_image.values() for flag in flags)
    matched = {image_id: [False] * len(flags)
               for image_id, flags in ignored_by_image.items()}
    flags = []  # hit/miss per non-ignored detection, descending score
    for i in order:
        image_id = dets[i].image_id
        ignored = ignored_by_image.get(image_id, ())
        used = matched.get(image_id)
        best, best_oks = None, threshold
        absorbed = False
        for j, value in enumerate(oks_rows[i]):
            if ignored[j]:
                absorbed = absorbed or value >= threshold
            elif not used[j] and value >= best_oks and (best is None or value > best_oks):
                best, best_oks = j, value
        if best is not None:
            used[best] = True
            flags.append(True)
        elif not absorbed:
            flags.append(False)
    return _interpolated_ap(flags, num_gt)


def _positive_finite(value):
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return math.isfinite(value) and value > 0
    except TypeError:
        return False


def _check_eval_inputs(gts, constants):
    """ValueError for inputs that oks() cannot score."""
    for i, k in enumerate(constants):
        if not _positive_finite(k):
            raise ValueError(f"OKS constant {i} must be finite and > 0, got {k!r}")
    for gt in gts:
        if len(gt.person.keypoints) > len(constants):
            raise ValueError(f"{len(constants)} OKS constants for a ground truth with "
                             f"{len(gt.person.keypoints)} keypoints "
                             f"(image {gt.image_id})")
        if not _positive_finite(gt.area):
            raise ValueError(f"ground truth area must be finite and > 0, got "
                             f"{gt.area!r} (image {gt.image_id})")


def average_precision(dets, gts, thresholds=OKS_THRESHOLDS,
                      constants=DEFAULT_OKS_CONSTANTS):
    """The five headline metrics over a detection set and ground truths.

    dets: list of Detection; gts: list of GroundTruthInstance. Ground
    truths with no labeled keypoints are left out. Empty area bands
    yield the -1 sentinel and are excluded from means.
    """
    gts = [gt for gt in gts if gt.person.labeled_count()]
    _check_eval_inputs(gts, constants)
    gts_by_image = {}
    for gt in gts:
        gts_by_image.setdefault(gt.image_id, []).append(gt)
    scores = [det.score for det in dets]
    order = sorted(range(len(dets)), key=lambda i: (-scores[i], i))
    oks_rows = [[oks(det.person, gt.person, gt.area, constants)
                 for gt in gts_by_image.get(det.image_id, ())]
                for det in dets]
    bands = {"all": (0.0, float("inf")), "medium": MEDIUM_RANGE, "large": LARGE_RANGE}
    per_band = {}
    for name, (lo, hi) in bands.items():
        ignored_by_image = {image_id: [not (lo < gt.area <= hi) for gt in image_gts]
                            for image_id, image_gts in gts_by_image.items()}
        per_band[name] = [_ap_at_threshold(dets, order, oks_rows, ignored_by_image, t)
                          for t in thresholds]

    def mean_valid(values):
        valid = [v for v in values if v >= 0.0]
        return float(np.mean(valid)) if valid else -1.0

    per_threshold = dict(zip(thresholds, per_band["all"]))
    return EvalResult(
        ap=mean_valid(per_band["all"]),
        ap50=per_threshold.get(0.50, -1.0),
        ap75=per_threshold.get(0.75, -1.0),
        ap_medium=mean_valid(per_band["medium"]),
        ap_large=mean_valid(per_band["large"]),
        per_threshold=per_threshold,
    )


class AnnotationError(ValueError):
    """Malformed annotation or results document."""


@dataclass
class GroundTruthStore:
    images: dict       # image_id -> {"height": h, "width": w}
    instances: list    # GroundTruthInstance
    crowd_boxes: dict  # image_id -> [(x, y, w, h), ...]

    def by_image(self, image_id):
        return [g for g in self.instances if g.image_id == image_id]


# What reading a number out of a parsed JSON object can raise: a missing
# key, a value that is not a number, or an infinity passed to int().
_BAD_NUMBER = (KeyError, TypeError, ValueError, OverflowError)


def _person_from_triplets(values, m, where):
    if not isinstance(values, list):
        raise AnnotationError(f"{where}: 'keypoints' must be an array")
    if len(values) != 3 * m:
        raise AnnotationError(f"{where}: keypoint array length {len(values)} != {3 * m}")
    keypoints = []
    for i in range(m):
        try:
            x, y, v = float(values[3 * i]), float(values[3 * i + 1]), int(values[3 * i + 2])
        except _BAD_NUMBER as exc:
            raise AnnotationError(f"{where}: keypoint {i}: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise AnnotationError(f"{where}: keypoint {i}: coordinates must be finite, "
                                  f"got ({x}, {y})")
        if v == 0:
            keypoints.append(None)
        else:
            vis = Visibility.VISIBLE if v == 2 else Visibility.OCCLUDED
            keypoints.append(Keypoint(x, y, vis))
    return Person(keypoints)


def parse_annotations(document, skeleton):
    """Parse the COCO-keypoints subset (images, annotations) into a store."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"malformed JSON: {exc}") from exc
    if not isinstance(document, dict) or "annotations" not in document:
        raise AnnotationError("document must be an object with an 'annotations' array")
    for key in ("images", "annotations"):
        if not isinstance(document.get(key, []), list):
            raise AnnotationError(f"'{key}' must be an array")
    m = skeleton.num_joints
    images = {}
    for k, img in enumerate(document.get("images", [])):
        if not isinstance(img, dict):
            raise AnnotationError(f"images[{k}]: entry must be an object")
        try:
            image_id, height, width = int(img["id"]), int(img["height"]), int(img["width"])
        except _BAD_NUMBER as exc:
            raise AnnotationError(f"images[{k}]: {exc}") from exc
        if not (0 < height <= MAX_IMAGE_SIDE and 0 < width <= MAX_IMAGE_SIDE):
            raise AnnotationError(f"images[{k}]: height and width must be in "
                                  f"[1, {MAX_IMAGE_SIDE}], got {height}x{width}")
        images[image_id] = {"height": height, "width": width}
    instances = []
    crowd_boxes = {}
    for k, ann in enumerate(document["annotations"]):
        where = f"annotations[{k}]"
        try:
            image_id = int(ann["image_id"])
            area = float(ann["area"])
            iscrowd = int(ann.get("iscrowd", 0))
            bbox = tuple(map(float, ann.get("bbox") or ())) if iscrowd else None
        except _BAD_NUMBER as exc:
            raise AnnotationError(f"{where}: {exc}") from exc
        if iscrowd:
            if bbox:
                crowd_boxes.setdefault(image_id, []).append(bbox)
            continue
        person = _person_from_triplets(ann.get("keypoints", []), m, where)
        instances.append(GroundTruthInstance(image_id, person, area))
    return GroundTruthStore(images=images, instances=instances, crowd_boxes=crowd_boxes)


def write_annotations(store_images, instances, skeleton):
    """Emit the annotations subset; inverse of parse_annotations."""
    annotations = []
    for k, gt in enumerate(instances):
        values = []
        for kp in gt.person.keypoints:
            if kp is None:
                values += [0.0, 0.0, 0]
            else:
                values += [kp.x, kp.y, int(kp.visibility)]
        annotations.append({"id": k + 1, "image_id": gt.image_id, "category_id": 1,
                            "keypoints": values, "area": gt.area,
                            "iscrowd": 0, "num_keypoints": gt.person.labeled_count()})
    images = [{"id": image_id, "height": meta["height"], "width": meta["width"]}
              for image_id, meta in sorted(store_images.items())]
    return {"images": images, "annotations": annotations,
            "categories": [{"id": 1, "name": "person",
                            "keypoints": list(skeleton.joint_names)}]}


def write_results(dets):
    """COCO results array: [{image_id, category_id, keypoints, score}]."""
    out = []
    for det in dets:
        values = []
        for kp in det.person.keypoints:
            if kp is None:
                values += [0.0, 0.0, 0.0]
            else:
                values += [kp.x, kp.y, kp.confidence]
        out.append({"image_id": det.image_id, "category_id": 1,
                    "keypoints": values, "score": det.score})
    return out


def parse_results(document, skeleton):
    """Read a results array back into Detections (round trip of write_results)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"malformed JSON: {exc}") from exc
    if not isinstance(document, list):
        raise AnnotationError("results document must be a JSON array")
    m = skeleton.num_joints
    dets = []
    for k, entry in enumerate(document):
        where = f"results[{k}]"
        if not isinstance(entry, dict):
            raise AnnotationError(f"{where}: entry must be an object")
        values = entry.get("keypoints")
        if not isinstance(values, list):
            raise AnnotationError(f"{where}: 'keypoints' must be an array")
        if len(values) != 3 * m:
            raise AnnotationError(f"{where}: keypoint array length "
                                  f"{len(values)} != {3 * m}")
        try:
            image_id = int(entry["image_id"])
            keypoints = []
            for i in range(m):
                x, y, c = (float(v) for v in values[3 * i:3 * i + 3])
                if c == 0.0 and x == 0.0 and y == 0.0:
                    keypoints.append(None)
                else:
                    keypoints.append(Keypoint(x, y, Visibility.VISIBLE, confidence=c))
        except _BAD_NUMBER as exc:
            raise AnnotationError(f"{where}: {exc}") from exc
        dets.append(Detection(image_id, Person(keypoints)))
    return dets
