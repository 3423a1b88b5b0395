"""Map stacks -> skeletons: 4-neighborhood NMS with sub-pixel peaks,
limb-field connection scoring, greedy per-limb matching, assembly.

There is one scoring kernel, the limb-field line integral of OpenPose
(``_limb_scores``), over flat arrays of candidate pairs. ``decode``
batches the pairs of every limb type into one call of it;
``match_limb`` and ``connection_score`` are thin calls into the same
kernel, so all three give the same bits for the same pair. Grouping a
10-person scene at stride-8 map resolution stays in the low-millisecond
range.
"""

from dataclasses import dataclass

import numpy as np

from .config import Config
from .skeleton import Keypoint, Person, Visibility
from .tensor_ops import ShapeError


@dataclass(frozen=True)
class PeakCandidate:
    id: int
    joint_type: int
    x: float          # input px, sub-pixel
    y: float
    score: float


@dataclass(frozen=True)
class ConnectionCandidate:
    limb_type: int
    peak_a: int
    peak_b: int
    score: float           # mean sampled alignment, in [-1, 1]
    sample_count: int
    valid_fraction: float


@dataclass(frozen=True)
class DecodeParams(Config):
    nms_threshold: float = 0.1
    num_samples: int = 10          # line samples per candidate pair
    sample_threshold: float = 0.05
    min_valid_fraction: float = 0.8
    min_parts_per_person: int = 3
    min_mean_person_score: float = 0.2
    filters_enabled: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.num_samples < 2:
            raise ValueError(f"num_samples must be >= 2, got {self.num_samples!r}")
        for name in ("nms_threshold", "sample_threshold", "min_valid_fraction",
                     "min_mean_person_score"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def nms_peaks(score_map, params, stride=8, joint_type=0, id_start=0):
    """Local maxima over 4-neighborhoods, refined to sub-pixel positions.

    A cell survives if it is >= all four neighbors, strictly greater
    than its left and top neighbors, and >= nms_threshold. Sub-pixel
    offsets come from a 1-D quadratic fit per axis; positions are
    returned in input px (cell centers at (c + 0.5) * stride).
    """
    m = np.asarray(score_map, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"score map must be 2-D, got ndim={m.ndim}")
    h, w = m.shape
    pad = np.full((h + 2, w + 2), -np.inf)
    pad[1:-1, 1:-1] = m
    up, down = pad[:-2, 1:-1], pad[2:, 1:-1]
    left, right = pad[1:-1, :-2], pad[1:-1, 2:]
    keep = ((m >= up) & (m >= down) & (m >= left) & (m >= right)
            & (m > left) & (m > up) & (m >= params.nms_threshold))
    rows, cols = np.nonzero(keep)
    peaks = []
    for k, (r, c) in enumerate(zip(rows, cols)):
        x = c + 0.5 + _quadratic_offset(left[r, c], m[r, c], right[r, c])
        y = r + 0.5 + _quadratic_offset(up[r, c], m[r, c], down[r, c])
        peaks.append(PeakCandidate(id=id_start + k, joint_type=joint_type,
                                   x=float(np.clip(x * stride, 0.0, w * stride)),
                                   y=float(np.clip(y * stride, 0.0, h * stride)),
                                   score=float(m[r, c])))
    return peaks


def _quadratic_offset(lo, mid, hi):
    """Vertex of the parabola through (-1,lo), (0,mid), (1,hi); clamped."""
    if not np.isfinite(lo):
        lo = mid
    if not np.isfinite(hi):
        hi = mid
    denom = lo - 2.0 * mid + hi
    if denom >= 0.0:
        return 0.0
    return float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))


def _limb_scores(ax, ay, bx, by, chan, limb_maps, params, stride):
    """Limb-field line integral of flat arrays of candidate pairs.

    Pair k runs from (ax[k], ay[k]) to (bx[k], by[k]) in input px over
    the field whose x channel is limb_maps[chan[k]] and whose y channel
    is the next one. The field is sampled bilinearly at num_samples
    evenly spaced points and each sample is dotted with the segment's
    unit vector. Returns (scores, valid_fractions), each (n,); pairs
    with coincident endpoints get NaN scores.
    """
    limb_maps = np.asarray(limb_maps, dtype=np.float64)
    dx, dy = bx - ax, by - ay
    length = np.hypot(dx, dy)
    safe = np.where(length > 0.0, length, 1.0)
    ux, uy = dx / safe, dy / safe
    t = np.linspace(0.0, 1.0, params.num_samples)
    u = (ax[:, None] + dx[:, None] * t) / stride - 0.5
    v = (ay[:, None] + dy[:, None] * t) / stride - 0.5
    h, w = limb_maps.shape[-2:]
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    du = (u0 < w - 1).astype(np.int64)      # column step, 0 at the border
    dv = np.where(v0 < h - 1, w, 0)         # row step in flat units
    fu, fv = u - u0, v - v0
    # Flat gathers: the y channel of a limb field sits one plane (h*w)
    # after its x channel.
    flat = limb_maps.ravel()
    base = (chan[:, None] * h + v0) * w + u0
    plane = h * w
    w00 = (1 - fu) * (1 - fv)
    w01 = fu * (1 - fv)
    w10 = (1 - fu) * fv
    w11 = fu * fv
    dots = ux[:, None] * (flat.take(base) * w00 + flat.take(base + du) * w01
                          + flat.take(base + dv) * w10 + flat.take(base + dv + du) * w11)
    base += plane
    dots += uy[:, None] * (flat.take(base) * w00 + flat.take(base + du) * w01
                           + flat.take(base + dv) * w10 + flat.take(base + dv + du) * w11)
    scores = dots.mean(axis=1)
    valid = (dots > params.sample_threshold).mean(axis=1)
    scores[length == 0.0] = np.nan
    return scores, valid


def connection_score(a, b, paf, params, stride=8):
    """Mean limb-field alignment along the segment a -> b.

    The one-pair case of the scoring kernel: samples the 2-channel field
    bilinearly at num_samples evenly spaced points and averages the dot
    product with the segment's unit vector.
    """
    if a.x == b.x and a.y == b.y:
        raise ValueError("coincident endpoints cannot be scored")
    scores, valid = _limb_scores(np.array([a.x]), np.array([a.y]),
                                 np.array([b.x]), np.array([b.y]),
                                 np.zeros(1, dtype=np.int64), paf, params, stride)
    return ConnectionCandidate(limb_type=-1, peak_a=a.id, peak_b=b.id,
                               score=float(scores[0]),
                               sample_count=params.num_samples,
                               valid_fraction=float(valid[0]))


def _greedy_accept(scores, valid, cands_a, cands_b, params, limb_type):
    """Descending-score greedy acceptance with one-use-per-peak.

    Ties break on (a.id, b.id); candidate lists carry ascending ids, so
    row/column order is the id order.
    """
    na, nb = scores.shape
    flat = np.asarray(scores, dtype=np.float64).ravel()
    idx = np.arange(na * nb)
    order = np.lexsort((idx % nb, idx // nb, -flat)).tolist()
    slist = flat.tolist()
    vlist = np.asarray(valid, dtype=np.float64).ravel().tolist()
    accepted = []
    used_a, used_b = set(), set()
    limit = min(na, nb)
    for k in order:
        if len(accepted) >= limit:
            break
        s = slist[k]
        if s != s:  # NaN: coincident endpoints, never acceptable
            continue
        i, j = divmod(k, nb)
        if i in used_a or j in used_b:
            continue
        if params.filters_enabled:
            if s <= params.sample_threshold or vlist[k] < params.min_valid_fraction:
                continue
        used_a.add(i)
        used_b.add(j)
        accepted.append(ConnectionCandidate(
            limb_type=limb_type, peak_a=cands_a[i].id, peak_b=cands_b[j].id,
            score=s, sample_count=params.num_samples,
            valid_fraction=vlist[k]))
    return accepted


def match_limb(cands_a, cands_b, paf, params, stride=8, limb_type=0):
    """Greedy one-to-one matching of two candidate sets over one limb.

    Pairs are taken in descending score order (ties by peak ids); each
    peak is used at most once. With filters enabled a pair must also
    clear the sample threshold and the valid-fraction floor.
    """
    if not cands_a or not cands_b:
        return []
    na, nb = len(cands_a), len(cands_b)
    scores, valid = _limb_scores(np.repeat([p.x for p in cands_a], nb),
                                 np.repeat([p.y for p in cands_a], nb),
                                 np.tile([p.x for p in cands_b], na),
                                 np.tile([p.y for p in cands_b], na),
                                 np.zeros(na * nb, dtype=np.int64), paf, params, stride)
    return _greedy_accept(scores.reshape(na, nb), valid.reshape(na, nb),
                          cands_a, cands_b, params, limb_type)


def assemble_skeletons(connections_by_limb, peaks_by_id, skeleton, params):
    """Grow person records from accepted connections, in chain order.

    A connection extends a partial person sharing one of its peaks,
    merges two persons whose joint slots are disjoint, or is dropped on
    conflict. Returns Persons ordered by their smallest peak id.
    """
    persons = []  # each: dict joint_type -> peak id
    for limb_type, conns in enumerate(connections_by_limb):
        ja, jb = skeleton.limbs[limb_type]
        for conn in conns:
            owners = [p for p in persons
                      if p.get(ja) == conn.peak_a or p.get(jb) == conn.peak_b]
            if not owners:
                persons.append({ja: conn.peak_a, jb: conn.peak_b})
            elif len(owners) == 1:
                p = owners[0]
                if p.get(ja, conn.peak_a) != conn.peak_a:
                    continue
                if p.get(jb, conn.peak_b) != conn.peak_b:
                    continue
                p[ja] = conn.peak_a
                p[jb] = conn.peak_b
            else:
                p1, p2 = owners[0], owners[1]
                if set(p1) & set(p2):
                    continue
                p1.update(p2)
                persons.remove(p2)
    out = []
    for parts in persons:
        peaks = {j: peaks_by_id[pid] for j, pid in parts.items()}
        if params.filters_enabled:
            if len(peaks) < params.min_parts_per_person:
                continue
            mean_score = sum(p.score for p in peaks.values()) / len(peaks)
            if mean_score < params.min_mean_person_score:
                continue
        keypoints = [None] * skeleton.num_joints
        for j, peak in peaks.items():
            keypoints[j] = Keypoint(peak.x, peak.y, Visibility.VISIBLE,
                                    confidence=min(max(peak.score, 0.0), 1.0))
        out.append((min(p.id for p in peaks.values()), Person(keypoints)))
    out.sort(key=lambda item: item[0])
    return [person for _, person in out]


def find_all_peaks(joint_maps, skeleton, params, stride=8):
    """NMS over each joint channel; returns (peaks_by_type, peaks_by_id)."""
    peaks_by_type = []
    peaks_by_id = {}
    next_id = 0
    for j in range(skeleton.num_joints):
        peaks = nms_peaks(joint_maps[j], params, stride=stride,
                          joint_type=j, id_start=next_id)
        next_id += len(peaks)
        peaks_by_type.append(peaks)
        for p in peaks:
            peaks_by_id[p.id] = p
    return peaks_by_type, peaks_by_id


def match_all_limbs(peaks_by_type, limb_maps, skeleton, params, stride=8):
    """match_limb over every limb type of the kinematic chain.

    The candidate pairs of every limb type go through one call of the
    scoring kernel; greedy acceptance then runs per type.
    """
    # Coordinates per joint type, shared across limb types.
    xs = [np.array([p.x for p in peaks]) for peaks in peaks_by_type]
    ys = [np.array([p.y for p in peaks]) for peaks in peaks_by_type]
    # Flat candidate pairs of every limb type; limb type k owns rows
    # offsets[k]:offsets[k + 1].
    ax, ay, bx, by, chan, offsets = [], [], [], [], [], [0]
    for limb_type, (ja, jb) in enumerate(skeleton.limbs):
        na, nb = len(xs[ja]), len(xs[jb])
        ax.append(np.repeat(xs[ja], nb))
        ay.append(np.repeat(ys[ja], nb))
        bx.append(np.tile(xs[jb], na))
        by.append(np.tile(ys[jb], na))
        chan.append(np.full(na * nb, 2 * limb_type, dtype=np.int64))
        offsets.append(offsets[-1] + na * nb)
    scores, valid = _limb_scores(np.concatenate(ax), np.concatenate(ay),
                                 np.concatenate(bx), np.concatenate(by),
                                 np.concatenate(chan), limb_maps, params, stride)
    connections = []
    for limb_type, (ja, jb) in enumerate(skeleton.limbs):
        shape = (len(xs[ja]), len(xs[jb]))
        rows = slice(offsets[limb_type], offsets[limb_type + 1])
        connections.append(_greedy_accept(
            scores[rows].reshape(shape), valid[rows].reshape(shape),
            peaks_by_type[ja], peaks_by_type[jb], params, limb_type))
    return connections


def decode(joint_maps, limb_maps, skeleton, params=None, stride=8):
    """Full grouping pipeline: NMS -> per-limb matching -> assembly."""
    params = params or DecodeParams()
    joint_maps = np.asarray(joint_maps)
    limb_maps = np.asarray(limb_maps)
    m = skeleton.num_joints
    if joint_maps.shape[0] not in (m, m + 1):
        raise ShapeError(f"expected {m} or {m + 1} joint channels, "
                         f"got {joint_maps.shape[0]}")
    if limb_maps.shape[0] != skeleton.limb_map_channels:
        raise ShapeError(f"expected {skeleton.limb_map_channels} limb channels, "
                         f"got {limb_maps.shape[0]}")
    peaks_by_type, peaks_by_id = find_all_peaks(joint_maps, skeleton, params, stride)
    connections = match_all_limbs(peaks_by_type, limb_maps, skeleton, params, stride)
    return assemble_skeletons(connections, peaks_by_id, skeleton, params)
