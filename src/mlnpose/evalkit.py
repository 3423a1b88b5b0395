"""Keypoint evaluation: OKS similarity, AP over the standard threshold
sweep, and the COCO-keypoints JSON subset for annotations and results.

Matching follows the official evaluator's conventions: detections are
taken in descending instance-score order, each grabs the unmatched
ground truth with the highest OKS at or above the threshold, and the
precision-recall curve is integrated at 101 recall points. Area-band
metrics (medium/large) treat out-of-band ground truths as ignored.
Ground truths with no labeled keypoints are ignored in every band: they
are neither counted nor matched.

OKS is one (D, G) array expression per image that has both detections
and ground truths, computed before any matching. One matching pass over
each image's detections then updates all 10 thresholds x 3 area bands
at once from that table.

Annotation (x, y, v) and result (x, y, confidence) triplets share one
JSON loader, one triplet reader and one triplet writer; a missing
keypoint is written 0.0, 0.0, 0 in annotations and 0.0, 0.0, 0.0 in results.
Every value read from a document is typed by ``config.check_value``, the
rule config files are read by, so nothing is coerced: ids, heights,
widths and ``iscrowd`` are JSON integers; x, y, confidences, areas and
``bbox`` entries are finite JSON numbers; ``v`` is the number 0, 1 or 2.
The OKS constants pass the same number check.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .config import check_value
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


def _keypoint_table(people, m, labeled):
    """(P, m) x and y arrays of people's first m keypoints, and the mask of
    the keypoints present; with labeled=True an ABSENT keypoint counts as
    missing. Missing keypoints read (0, 0)."""
    flat = []  # (x, y, present) per keypoint; one flat list converts fastest
    for person in people:
        kps = person.keypoints[:m]
        for kp in kps:
            if kp is None or (labeled and kp.visibility == Visibility.ABSENT):
                flat += (0.0, 0.0, 0.0)
            else:
                flat += (kp.x, kp.y, 1.0)
        flat += (0.0, 0.0, 0.0) * (m - len(kps))
    table = np.array(flat, dtype=np.float64).reshape(len(people), m, 3)
    return table[..., 0], table[..., 1], table[..., 2] > 0.0


def oks(dets, gts, gt_areas, constants=DEFAULT_OKS_CONSTANTS):
    """(D, G) object keypoint similarity of detections against the ground
    truths of one image; dets and gts are Persons.

    Each cell is the mean of exp(-d_i^2 / (2 * area * k_i^2)) over the
    ground truth's labeled keypoints; a missing detected keypoint
    contributes 0. The terms are summed in joint order.
    """
    m = len(constants)
    dx, dy, dmask = _keypoint_table(dets, m, labeled=False)
    gx, gy, gmask = _keypoint_table(gts, m, labeled=True)
    labeled = gmask.sum(axis=1)
    if not labeled.all():
        raise ValueError("ground truth has no labeled keypoints")
    k = np.asarray(constants, dtype=np.float64)
    s2 = np.asarray(gt_areas, dtype=np.float64)
    ex = dx[:, None, :] - gx[None, :, :]
    ey = dy[:, None, :] - gy[None, :, :]
    d2 = ex * ex + ey * ey
    terms = np.exp(-d2 / (2.0 * s2[:, None] * (k * k)))
    terms = np.where(dmask[:, None, :] & gmask[None, :, :], terms, 0.0)
    return np.cumsum(terms, axis=-1)[..., -1] / labeled


def _interpolated_ap(tp_flags, num_gt):
    """AP from match flags in descending score order, 101-point interpolation."""
    if num_gt == 0:
        return -1.0
    tp_flags = np.asarray(tp_flags, dtype=bool)
    if not tp_flags.size:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / num_gt
    # Precision envelope: best precision at recall >= r.
    envelope = np.maximum.accumulate((tp / (tp + fp))[::-1])[::-1]
    at = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    ap = 0.0
    for value in np.append(envelope, 0.0)[at].tolist():
        ap += value
    return ap / 101.0


def _match_image(dets, gts, thresholds, bands, constants):
    """Greedy matching of one image's detections, in descending score
    order, for every (band, threshold) curve at once.

    Returns (hit, kept), each (D, bands, thresholds): hit marks a match
    with an in-band ground truth; kept is False where a detection missed
    but reached the threshold against an out-of-band ground truth, which
    absorbs it without a hit or a false positive.
    """
    areas = np.array([gt.area for gt in gts], dtype=np.float64)
    table = oks([det.person for det in dets], [gt.person for gt in gts], areas, constants)
    ignored = ~((bands[:, :1] < areas) & (areas <= bands[:, 1:]))[:, None, :]  # (B, 1, G)
    reached = table[:, None, None, :] >= thresholds[:, None]                   # (D, 1, T, G)
    absorbed = (reached & ignored).any(axis=-1)
    open_ = reached & ~ignored
    used = np.zeros(open_.shape[1:], dtype=bool)
    hit = np.zeros(absorbed.shape, dtype=bool)
    for n, row in enumerate(table):
        cand = open_[n] & ~used
        best = np.where(cand, row, -np.inf).argmax(axis=-1)  # first of the highest OKS
        found = hit[n] = cand.any(axis=-1)
        used[found, best[found]] = True
    return hit, hit | ~absorbed


def _check_eval_inputs(gts, constants):
    """The constants as a tuple of floats; ValueError for inputs that oks()
    cannot score."""
    constants = check_value("OKS constants", constants, tuple[float, ...])
    if not all(k > 0 for k in constants):
        raise ValueError(f"OKS constants must be > 0, got {constants}")
    for gt in gts:
        if len(gt.person.keypoints) > len(constants):
            raise ValueError(f"{len(constants)} OKS constants for a ground truth with "
                             f"{len(gt.person.keypoints)} keypoints "
                             f"(image {gt.image_id})")
        if check_value(f"ground truth area (image {gt.image_id})", gt.area, float) <= 0:
            raise ValueError(f"ground truth area must be > 0, got "
                             f"{gt.area!r} (image {gt.image_id})")
    return constants


def average_precision(dets, gts, thresholds=OKS_THRESHOLDS,
                      constants=DEFAULT_OKS_CONSTANTS):
    """The five headline metrics over a detection set and ground truths.

    dets: list of Detection; gts: list of GroundTruthInstance. Ground
    truths with no labeled keypoints are left out. Empty area bands
    yield the -1 sentinel and are excluded from means.
    """
    gts = [gt for gt in gts if gt.person.labeled_count()]
    constants = _check_eval_inputs(gts, constants)
    gts_by_image = {}
    for gt in gts:
        gts_by_image.setdefault(gt.image_id, []).append(gt)
    scores = [det.score for det in dets]
    ranked = [dets[i] for i in sorted(range(len(dets)), key=lambda i: (-scores[i], i))]
    ranks_by_image = {}
    for rank, det in enumerate(ranked):
        ranks_by_image.setdefault(det.image_id, []).append(rank)
    levels = np.asarray(thresholds, dtype=np.float64)
    bands = np.array([(0.0, float("inf")), MEDIUM_RANGE, LARGE_RANGE], dtype=np.float64)
    # Per ranked detection and (band, threshold) curve: a hit, and whether
    # it enters the curve at all. Images without ground truths only add
    # false positives.
    hit = np.zeros((len(ranked), len(bands), len(levels)), dtype=bool)
    kept = np.ones_like(hit)
    for image_id, ranks in ranks_by_image.items():
        image_gts = gts_by_image.get(image_id)
        if image_gts:
            hit[ranks], kept[ranks] = _match_image([ranked[r] for r in ranks], image_gts,
                                                   levels, bands, constants)
    areas = np.array([gt.area for gt in gts], dtype=np.float64)
    num_gt = [int(((lo < areas) & (areas <= hi)).sum()) for lo, hi in bands]
    per_band = {name: [_interpolated_ap(hit[kept[:, b, t], b, t], num_gt[b])
                       for t in range(len(levels))]
                for b, name in enumerate(("all", "medium", "large"))}

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


def _document(document, kind):
    """The document, parsed if str or bytes, checked to be a kind (dict or list)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"malformed JSON: {exc}") from exc
    if not isinstance(document, kind):
        raise AnnotationError(f"document must be a JSON {'object' if kind is dict else 'array'}")
    return document


def _field(entry, key, kind, where, default=None):
    """entry[key] (default, if given, when absent) if ``check_value`` finds
    it a kind, else AnnotationError naming where."""
    if default is None and key not in entry:
        raise AnnotationError(f"{where}: missing {key!r}")
    try:
        return check_value(key, entry.get(key, default), kind)
    except ValueError as exc:
        raise AnnotationError(f"{where}: {exc}") from exc


def _person(values, m, where, keypoint):
    """Person of m (x, y, third) triplets with finite x, y; keypoint(x, y, third)
    maps each to a Keypoint or None, raising ValueError if it cannot."""
    if not isinstance(values, list):
        raise AnnotationError(f"{where}: 'keypoints' must be an array")
    if len(values) != 3 * m:
        raise AnnotationError(f"{where}: keypoint array length {len(values)} != {3 * m}")
    keypoints = []
    for i in range(m):
        x, y, third = values[3 * i:3 * i + 3]
        try:
            keypoints.append(keypoint(check_value("x", x, float), check_value("y", y, float),
                                      third))
        except ValueError as exc:
            raise AnnotationError(f"{where}: keypoint {i}: {exc}") from exc
    return Person(keypoints)


def _annotation_keypoint(x, y, v):
    if type(v) not in (int, float) or v not in (0, 1, 2):
        raise ValueError(f"visibility must be 0, 1 or 2, got {v!r}")
    return Keypoint(x, y, Visibility.VISIBLE if v == 2 else Visibility.OCCLUDED) if v else None


def _result_keypoint(x, y, c):
    c = check_value("confidence", c, float)
    return Keypoint(x, y, Visibility.VISIBLE, confidence=c) if c or x or y else None


def _triplets(person, third, absent):
    """A person's flat [x, y, third(kp), ...] array; a missing kp is 0.0, 0.0, absent."""
    values = []
    for kp in person.keypoints:
        values += (0.0, 0.0, absent) if kp is None else (kp.x, kp.y, third(kp))
    return values


def parse_annotations(document, skeleton):
    """Parse the COCO-keypoints subset (images, annotations) into a store."""
    document = _document(document, dict)
    for key, default in (("images", []), ("annotations", None)):
        if not isinstance(document.get(key, default), list):
            raise AnnotationError(f"'{key}' must be an array")
    m = skeleton.num_joints
    images = {}
    for k, img in enumerate(document.get("images", [])):
        if not isinstance(img, dict):
            raise AnnotationError(f"images[{k}]: entry must be an object")
        image_id, height, width = (_field(img, key, int, f"images[{k}]")
                                   for key in ("id", "height", "width"))
        if not (0 < height <= MAX_IMAGE_SIDE and 0 < width <= MAX_IMAGE_SIDE):
            raise AnnotationError(f"images[{k}]: height and width must be in "
                                  f"[1, {MAX_IMAGE_SIDE}], got {height}x{width}")
        images[image_id] = {"height": height, "width": width}
    instances, crowd_boxes = [], {}
    for k, ann in enumerate(document["annotations"]):
        where = f"annotations[{k}]"
        if not isinstance(ann, dict):
            raise AnnotationError(f"{where}: entry must be an object")
        image_id = _field(ann, "image_id", int, where)
        area = _field(ann, "area", float, where)
        if _field(ann, "iscrowd", int, where, 0):
            bbox = _field(ann, "bbox", tuple[float, ...], where, ())
            if bbox:
                crowd_boxes.setdefault(image_id, []).append(bbox)
            continue
        person = _person(ann.get("keypoints", []), m, where, _annotation_keypoint)
        instances.append(GroundTruthInstance(image_id, person, area))
    return GroundTruthStore(images=images, instances=instances, crowd_boxes=crowd_boxes)


def write_annotations(store_images, instances, skeleton):
    """Emit the annotations subset; inverse of parse_annotations."""
    annotations = [{"id": k + 1, "image_id": gt.image_id, "category_id": 1,
                    "keypoints": _triplets(gt.person, lambda kp: int(kp.visibility), 0),
                    "area": gt.area, "iscrowd": 0,
                    "num_keypoints": gt.person.labeled_count()}
                   for k, gt in enumerate(instances)]
    images = [{"id": image_id, "height": meta["height"], "width": meta["width"]}
              for image_id, meta in sorted(store_images.items())]
    return {"images": images, "annotations": annotations,
            "categories": [{"id": 1, "name": "person",
                            "keypoints": list(skeleton.joint_names)}]}


def write_results(dets):
    """COCO results array: [{image_id, category_id, keypoints, score}]."""
    return [{"image_id": det.image_id, "category_id": 1,
             "keypoints": _triplets(det.person, lambda kp: kp.confidence, 0.0),
             "score": det.score}
            for det in dets]


def parse_results(document, skeleton):
    """Read a results array back into Detections (round trip of write_results)."""
    dets = []
    for k, entry in enumerate(_document(document, list)):
        where = f"results[{k}]"
        if not isinstance(entry, dict):
            raise AnnotationError(f"{where}: entry must be an object")
        image_id = _field(entry, "image_id", int, where)
        dets.append(Detection(image_id, _person(entry.get("keypoints"), skeleton.num_joints,
                                                where, _result_keypoint)))
    return dets
