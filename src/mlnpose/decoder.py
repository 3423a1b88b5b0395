"""Map stacks -> skeletons: 4-neighborhood NMS with sub-pixel peaks,
limb-field connection scoring, greedy per-limb matching, assembly.

Peaks are a struct of arrays (``Peaks``: joint type, x, y and score,
one row per peak). NMS and matching work in map cells, the units of
both stacks, where cell c's centre is at c + 0.5; ``decode`` alone
takes a stride, and scales the peaks to input px once, for assembly.
One NMS runs over the whole (m, H, W) joint stack and numbers its
peaks in (joint type, row, column) order: a peak's id is its row in
that table, and the peaks of one joint type are a contiguous run of
rows. One dense comparison against nms_threshold finds the map rows
that hold a candidate, and only those rows get the four neighbour
tests; the stack is compared against the threshold rounded up to
float32, so no float64 cast of it is made.

There is one scoring kernel, the limb-field line integral of OpenPose
(``_limb_scores``), over flat arrays of candidate pairs; its samples
come from ``_limb_dots``, which gathers from the float32 stack as it
is, so no float64 copy of the limb stack is made.
``decode`` runs three stages, ``find_all_peaks`` -> ``match_all_limbs``
-> ``assemble_skeletons``. The matcher is one pass over every limb
type: one pair build, one scoring, one sort and one acceptance loop. A
connection is a (peak_a, peak_b) pair of peak ids, one list of them
per limb type.

With filters on, scoring starts with an exact probe pass. A pair that
fails more than f samples can never reach min_valid_fraction, where f
follows from num_samples and min_valid_fraction. Every pair is sampled
at the f + 1 fractions nearest the middle of its segment; a pair that
fails all of them is dropped with a NaN score, and only the others are
scored at all num_samples points. On corrupted crowd scenes about 88%
of the pairs are dropped. With filters off every pair is scored in
full. Grouping a 10-person scene at stride-8 map resolution stays in
the low-millisecond range.

``decode`` takes finite float32 stacks, as ``forward``, the renderers
and MLNT files give them, and raises ValueError for any other before a
stage runs: no stage has a path for float64, integer or NaN maps.
"""

from dataclasses import dataclass

import numpy as np

from .config import Config
from .skeleton import Keypoint, Person, Visibility
from .tensor_ops import ShapeError


@dataclass(frozen=True, eq=False)
class Peaks:
    """NMS peaks as a struct of arrays.

    ``find_all_peaks`` returns the table of every joint type, in which a
    peak's id is its row, and one row slice of it per joint type.
    """
    joint_type: np.ndarray  # (n,) int
    x: np.ndarray           # (n,) float64, sub-pixel, map cells (px once decode scales it)
    y: np.ndarray
    score: np.ndarray       # map value at the peak cell

    def __len__(self):
        return len(self.score)

    def rows(self, start, stop):
        return Peaks(self.joint_type[start:stop], self.x[start:stop], self.y[start:stop],
                     self.score[start:stop])


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


def find_all_peaks(joint_maps, skeleton, params):
    """One NMS over the joint stack; returns (peaks_by_type, peaks).

    A cell is a peak if it is >= all four neighbors, strictly greater
    than its left and top neighbors, and >= nms_threshold. Only the map
    rows that hold a cell at or above the threshold get the neighbour
    tests; the float32 map is compared as it is, against the threshold
    rounded up to float32. Sub-pixel offsets come from a 1-D quadratic
    fit per axis; positions are in map cells (cell c's centre at
    c + 0.5), in [0, w] x [0, h]. peaks is the Peaks table of every
    joint type (ids are rows, in (joint type, row, column) order);
    peaks_by_type[j] is its row slice of joint type j.
    """
    m = skeleton.num_joints
    stack = np.asarray(joint_maps)[:m]
    # float32 values order as their float64 casts do, so a cell reaches the
    # float64 threshold exactly when it reaches the smallest float32 at or above it.
    threshold = np.float32(params.nms_threshold)
    if threshold < np.float64(params.nms_threshold):
        threshold = np.nextafter(threshold, np.float32(np.inf))
    _, h, w = stack.shape
    flat = stack.reshape(len(stack) * h, w)  # row r of joint type j is row j * h + r
    passing = flat >= threshold
    sel = np.flatnonzero(passing.any(axis=1))
    rows = flat[sel]
    keep = passing[sel]
    # The rows above and below each selected row. A row off its map
    # counts as -inf, which every cell at or above the threshold beats,
    # so no map's last row meets the next map's first; the slices skip
    # the columns off the map.
    joint, r = np.divmod(sel, h)
    up = flat[sel - 1]
    up[r == 0] = -np.inf
    down = flat[np.minimum(sel + 1, len(flat) - 1)]
    down[r == h - 1] = -np.inf
    keep[:, 1:] &= rows[:, 1:] > rows[:, :-1]
    keep &= rows > up
    keep[:, :-1] &= rows[:, :-1] >= rows[:, 1:]
    keep &= rows >= down
    k, cols = np.divmod(np.flatnonzero(keep), w)
    joint_type, row = joint[k], r[k]
    mid = rows[k, cols].astype(np.float64)
    # A column or row off the map clips back to the peak itself, which
    # the fit counts as equal to mid.
    dx = _subpixel_offset(rows[k, np.maximum(cols - 1, 0)], mid,
                          rows[k, np.minimum(cols + 1, w - 1)])
    dy = _subpixel_offset(flat[sel[k] - (row > 0), cols], mid,
                          flat[sel[k] + (row < h - 1), cols])
    # |dx|, |dy| <= 0.5, so positions stay in [0, w] x [0, h].
    peaks = Peaks(joint_type, cols + 0.5 + dx, row + 0.5 + dy, mid)
    ends = np.cumsum(np.bincount(joint_type, minlength=m)).tolist()
    return [peaks.rows(start, stop) for start, stop in zip([0] + ends, ends)], peaks


def _subpixel_offset(lo, mid, hi):
    """Vertices of the parabolas through (-1, lo), (0, mid), (1, hi),
    clamped to [-0.5, 0.5]; 0 where the parabola does not open downward.
    Finite float32 values widened to float64 cannot overflow the fit."""
    lo, hi = lo.astype(np.float64), hi.astype(np.float64)
    denom = lo - 2.0 * mid + hi
    # x/0 happens only where denom >= 0, which selects 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = 0.5 * (lo - hi) / denom
    return np.where(denom >= 0.0, 0.0, np.clip(vertex, -0.5, 0.5))


def _limb_dots(ax, ay, bx, by, chan, limb_maps, t):
    """Limb-field samples of flat arrays of candidate pairs; (n, len(t)).

    Pair k runs from (ax[k], ay[k]) to (bx[k], by[k]) in map cells (cell
    c's centre at c + 0.5) over the field whose x channel is
    limb_maps[chan[k]] and whose y channel is the next one. Cell (k, s)
    is the field sampled bilinearly at fraction t[s] of the segment,
    dotted with its unit vector (the zero vector for coincident
    endpoints). Every cell depends only on its own pair and fraction, so
    any subset of pairs and fractions gives the same bits as the table.
    """
    # float32 values widen exactly in the float64 products: no float64 copy.
    dx, dy = bx - ax, by - ay
    length = np.hypot(dx, dy)
    safe = np.where(length > 0.0, length, 1.0)
    ux, uy = dx / safe, dy / safe
    u = ax[:, None] + dx[:, None] * t - 0.5
    v = ay[:, None] + dy[:, None] * t - 0.5
    h, w = limb_maps.shape[-2:]
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    du = (u0 < w - 1).astype(np.int64)      # column step, 0 at the border
    dv = np.where(v0 < h - 1, w, 0)         # row step in flat units
    fu, fv = u - u0, v - v0
    # Flat gathers: the y channel of a limb field sits one plane (h*w)
    # after its x channel. The weights and indices are written inline,
    # as temporaries numpy can reuse in place: naming 1 - fu, 1 - fv or
    # base + dv once each made this kernel slower.
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
    return dots


def _limb_scores(ax, ay, bx, by, chan, limb_maps, params):
    """Limb-field line integral of flat arrays of candidate pairs.

    The field is sampled at num_samples evenly spaced points of each
    segment (``_limb_dots``). Returns (scores, valid_fractions), each
    (n,): the mean sample and the fraction of samples above
    sample_threshold. Pairs with coincident endpoints get NaN scores.
    """
    dots = _limb_dots(ax, ay, bx, by, chan, limb_maps,
                      np.linspace(0.0, 1.0, params.num_samples))
    scores = dots.mean(axis=1)
    valid = (dots > params.sample_threshold).mean(axis=1)
    scores[np.hypot(bx - ax, by - ay) == 0.0] = np.nan
    return scores, valid


def assemble_skeletons(connections_by_limb, peaks, skeleton, params):
    """Grow person records from accepted connections, in chain order.

    connections_by_limb[l] lists the (peak_a, peak_b) id pairs of limb
    type l that match_all_limbs accepted, in acceptance order. A
    connection extends the partial person holding one of its peaks,
    merges the two persons holding its two peaks when their joint slots
    are disjoint (the earlier-created one absorbs the other), or is
    dropped on conflict. peaks is the full table of find_all_peaks
    (a peak's id is its row). Returns Persons ordered by their smallest
    peak id.
    """
    persons = {}  # creation number -> {joint type: peak id}, in creation order
    # peak id -> creation number of the one person holding that peak (an
    # id names its joint type too); it stands in for a scan over every person.
    owner = {}
    created = 0
    for limb_type, conns in enumerate(connections_by_limb):
        ja, jb = skeleton.limbs[limb_type]
        for a, b in conns:
            ka, kb = owner.get(a), owner.get(b)
            if ka is None and kb is None:
                k, created = created, created + 1
                p = persons[k] = {}
            elif ka is None or kb is None or ka == kb:
                k = ka if kb is None else kb
                p = persons[k]
                if p.get(ja, a) != a or p.get(jb, b) != b:
                    continue
            else:
                k, k2 = sorted((ka, kb))
                p, p2 = persons[k], persons[k2]
                if p.keys() & p2.keys():
                    continue
                p.update(p2)
                del persons[k2]
                for pid in p2.values():
                    owner[pid] = k
                continue
            p[ja] = a
            p[jb] = b
            owner[a] = owner[b] = k
    xs, ys, scores = peaks.x.tolist(), peaks.y.tolist(), peaks.score.tolist()
    out = []
    for parts in persons.values():
        if params.filters_enabled:
            if len(parts) < params.min_parts_per_person:
                continue
            mean_score = sum(scores[pid] for pid in parts.values()) / len(parts)
            if mean_score < params.min_mean_person_score:
                continue
        keypoints = [None] * skeleton.num_joints
        for j, pid in parts.items():
            keypoints[j] = Keypoint(xs[pid], ys[pid], Visibility.VISIBLE,
                                    confidence=min(max(scores[pid], 0.0), 1.0))
        out.append((min(parts.values()), Person(keypoints)))
    out.sort(key=lambda item: item[0])
    return [person for _, person in out]


def match_all_limbs(peaks_by_type, limb_maps, skeleton, params):
    """Greedy one-to-one matching of the peaks of every limb type in one pass.

    peaks_by_type[j] is the Peaks of joint type j, the j-th row slice of
    find_all_peaks' table, so the peaks of joint type j have the ids
    first_row[j], first_row[j] + 1, ... The candidate pairs of
    every limb type are built and scored together. With filters enabled
    a pair must also clear the sample threshold and the valid-fraction
    floor, and a probe pass at the middle samples first drops the pairs
    that cannot clear the floor. One stable sort orders the pairs by
    limb type, then by descending score (ties by peak ids), and one loop
    accepts a pair when neither of its peaks is used by its limb type
    yet. Returns one list per limb type of accepted (peak_a, peak_b) id
    pairs, in acceptance order.
    """
    limbs = np.array(skeleton.limbs, dtype=np.int64).reshape(-1, 2)
    counts = np.array([len(p) for p in peaks_by_type])
    first_row = np.cumsum(counts) - counts  # id of each joint type's first peak
    xs = np.concatenate([p.x for p in peaks_by_type])
    ys = np.concatenate([p.y for p in peaks_by_type])
    # Pair k of limb type l is (a peak i, b peak j) with i, j = divmod of
    # its rank within the limb's na * nb pairs by nb.
    na, nb = counts[limbs[:, 0]], counts[limbs[:, 1]]
    sizes = na * nb
    limb = np.repeat(np.arange(len(limbs)), sizes)
    i, j = np.divmod(np.arange(len(limb)) - (np.cumsum(sizes) - sizes)[limb], nb[limb])
    ja, jb = limbs[limb].T
    ra, rb = first_row[ja] + i, first_row[jb] + j
    ax, ay, bx, by, chan = xs[ra], ys[ra], xs[rb], ys[rb], 2 * limb
    # The most samples a pair may fail and still clear min_valid_fraction,
    # by the float64 division that _limb_scores' valid fraction performs.
    n = params.num_samples
    max_fail = max(f for f in range(n + 1) if (n - f) / n >= params.min_valid_fraction)
    k = np.arange(len(limb))  # the candidate pairs still in play, in order
    if params.filters_enabled and max_fail < n:
        # Probe pass: sample every pair at the max_fail + 1 fractions
        # nearest the middle of its segment. A pair failing all of them
        # fails more than max_fail samples and so can never clear
        # min_valid_fraction; only the others are scored in full. Samples
        # are the same bits whichever fractions are taken, so it is exact.
        middle = np.argsort(np.abs(np.arange(n) - (n - 1) / 2), kind="stable")[:max_fail + 1]
        probes = _limb_dots(ax, ay, bx, by, chan, limb_maps, np.linspace(0.0, 1.0, n)[middle])
        k = np.flatnonzero((probes > params.sample_threshold).any(axis=1))
    scores, valid = _limb_scores(ax[k], ay[k], bx[k], by[k], chan[k], limb_maps, params)
    # Pairs that can never be accepted (NaN scores from coincident
    # endpoints and, with filters on, pairs failing sample_threshold or
    # min_valid_fraction) go before the loop, so they mark no peak used.
    if params.filters_enabled:
        keep = (scores > params.sample_threshold) & (valid >= params.min_valid_fraction)
    else:
        keep = ~np.isnan(scores)
    k, scores = k[keep], scores[keep]
    k = k[np.lexsort((-scores, limb[k]))]
    # A limb's two joint types never share a peak id, so one set keyed
    # on (limb type, peak id) holds the used peaks of every limb type.
    connections = [[] for _ in skeleton.limbs]
    used = set()
    for l, a, b in zip(limb[k].tolist(), ra[k].tolist(), rb[k].tolist()):
        if (l, a) not in used and (l, b) not in used:
            used.add((l, a))
            used.add((l, b))
            connections[l].append((a, b))
    return connections


def decode(joint_maps, limb_maps, skeleton, params=None, stride=8):
    """Full grouping pipeline: NMS -> per-limb matching -> assembly.

    Both stacks are finite float32 (channels, H, W) with the same H and W,
    or ShapeError or ValueError is raised first; a cell is stride px.
    """
    params = params or DecodeParams()
    joint_maps, limb_maps = np.asarray(joint_maps), np.asarray(limb_maps)
    if joint_maps.ndim != 3 or limb_maps.ndim != 3:
        raise ShapeError(f"map stacks must be 3-D (channels, H, W), got joint maps "
                         f"{joint_maps.shape} and limb maps {limb_maps.shape}")
    m = skeleton.num_joints
    if joint_maps.shape[0] not in (m, m + 1):
        raise ShapeError(f"expected {m} or {m + 1} joint channels, "
                         f"got {joint_maps.shape[0]}")
    if limb_maps.shape[0] != skeleton.limb_map_channels:
        raise ShapeError(f"expected {skeleton.limb_map_channels} limb channels, "
                         f"got {limb_maps.shape[0]}")
    if joint_maps.shape[1:] != limb_maps.shape[1:]:
        raise ShapeError(f"joint maps {joint_maps.shape} and limb maps "
                         f"{limb_maps.shape} differ in (H, W)")
    for kind, maps in (("joint", joint_maps), ("limb", limb_maps)):
        if maps.dtype != np.float32 or not np.isfinite(maps).all():
            bad = "NaN or inf" if maps.dtype == np.float32 else maps.dtype
            raise ValueError(f"{kind} maps must be finite float32, got {bad}")
    peaks_by_type, peaks = find_all_peaks(joint_maps, skeleton, params)
    connections = match_all_limbs(peaks_by_type, limb_maps, skeleton, params)
    # Map cells to input px: (c + 0.5 + d) * stride.
    peaks = Peaks(peaks.joint_type, peaks.x * stride, peaks.y * stride, peaks.score)
    return assemble_skeletons(connections, peaks, skeleton, params)
