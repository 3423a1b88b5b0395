"""Reference samplers, NMS, ground-truth renderers, matching oracles,
the scalar OKS and the person check for the tests, written apart from
the library code they judge."""

import itertools
from dataclasses import dataclass

import numpy as np

from mlnpose.evalkit import DEFAULT_OKS_CONSTANTS
from mlnpose.skeleton import Visibility


def bilinear(channel, u, v):
    """Sample a 2-D map at fractional cell coordinates (u=x, v=y),
    clamped to the map; the dense line-integral oracle's sampler."""
    h, w = channel.shape
    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    return ((channel[v0, u0] * (1 - fu) + channel[v0, u1] * fu) * (1 - fv)
            + (channel[v1, u0] * (1 - fu) + channel[v1, u1] * fu) * fv)


def quadratic_offset(lo, mid, hi):
    """Vertex of the parabola through (-1,lo), (0,mid), (1,hi); clamped."""
    if not np.isfinite(lo):
        lo = mid
    if not np.isfinite(hi):
        hi = mid
    denom = lo - 2.0 * mid + hi
    if denom >= 0.0:
        return 0.0
    return float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))


def nms_rows(stack, nms_threshold, stride):
    """The scalar NMS oracle: one pass per map of an (m, H, W) stack and
    one sub-pixel fit per peak. Returns (joint_type, x, y, score) rows
    in id order (map, then row, then column)."""
    rows = []
    for joint_type, channel in enumerate(stack):
        m = np.asarray(channel, dtype=np.float64)
        h, w = m.shape
        pad = np.full((h + 2, w + 2), -np.inf)
        pad[1:-1, 1:-1] = m
        up, down = pad[:-2, 1:-1], pad[2:, 1:-1]
        left, right = pad[1:-1, :-2], pad[1:-1, 2:]
        keep = ((m >= up) & (m >= down) & (m >= left) & (m >= right)
                & (m > left) & (m > up) & (m >= nms_threshold))
        for r, c in zip(*np.nonzero(keep)):
            x = c + 0.5 + quadratic_offset(left[r, c], m[r, c], right[r, c])
            y = r + 0.5 + quadratic_offset(up[r, c], m[r, c], down[r, c])
            rows.append((joint_type, float(np.clip(x * stride, 0.0, w * stride)),
                         float(np.clip(y * stride, 0.0, h * stride)), float(m[r, c])))
    return rows


def _dense_centers(map_dims, stride):
    h, w = map_dims
    return ((np.arange(w, dtype=np.float64) + 0.5) * stride,
            (np.arange(h, dtype=np.float64) + 0.5) * stride)


def dense_joint_map(people, joint_type, cfg, map_dims):
    """The dense joint-map oracle: every visible keypoint's Gaussian is
    evaluated over the whole map, then max over people, cast to float32."""
    xs, ys = _dense_centers(map_dims, cfg.output_stride)
    out = np.zeros(map_dims, dtype=np.float64)
    inv = 1.0 / (cfg.sigma * cfg.sigma)
    for person in people:
        kp = person.keypoints[joint_type]
        if kp is None or kp.visibility != Visibility.VISIBLE:
            continue
        d2 = (ys[:, None] - kp.y) ** 2 + (xs[None, :] - kp.x) ** 2
        np.maximum(out, np.exp(-d2 * inv), out=out)
    return out.astype(np.float32)


def dense_paf(people, limb_type, skeleton, cfg, map_dims):
    """The dense limb-field oracle: every visible limb is tested against
    every cell; overlapping unit vectors are averaged, cast to float32."""
    a_idx, b_idx = skeleton.limbs[limb_type]
    xs, ys = _dense_centers(map_dims, cfg.output_stride)
    px = np.broadcast_to(xs[None, :], map_dims)
    py = np.broadcast_to(ys[:, None], map_dims)
    acc = np.zeros((2,) + tuple(map_dims), dtype=np.float64)
    count = np.zeros(map_dims, dtype=np.int64)
    for person in people:
        ka = person.keypoints[a_idx]
        kb = person.keypoints[b_idx]
        if ka is None or kb is None:
            continue
        if ka.visibility != Visibility.VISIBLE or kb.visibility != Visibility.VISIBLE:
            continue
        dx, dy = kb.x - ka.x, kb.y - ka.y
        length = np.hypot(dx, dy)
        if length == 0.0:
            continue
        ux, uy = dx / length, dy / length
        along = (px - ka.x) * ux + (py - ka.y) * uy
        perp = (px - ka.x) * uy - (py - ka.y) * ux
        on_limb = (along >= 0.0) & (along <= length) & (np.abs(perp) <= cfg.limb_half_width)
        acc[0][on_limb] += ux
        acc[1][on_limb] += uy
        count[on_limb] += 1
    nonzero = count > 0
    acc[0][nonzero] /= count[nonzero]
    acc[1][nonzero] /= count[nonzero]
    return acc.astype(np.float32)


MAX_ORACLE_SIZE = 8


def optimal_assignment(score_matrix):
    """Maximum-total-score one-to-one assignment by exhaustive search.

    Returns (pairs, total) where pairs is a list of (row, col). Limited
    to 8x8; this oracle exists to check greedy matching, not to scale.
    """
    s = np.asarray(score_matrix, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError("score matrix must be 2-D")
    if not np.all(np.isfinite(s)):
        raise ValueError("score matrix must be finite")
    n, m = s.shape
    if n > MAX_ORACLE_SIZE or m > MAX_ORACLE_SIZE:
        raise ValueError(f"matrix {n}x{m} exceeds the {MAX_ORACLE_SIZE}x"
                         f"{MAX_ORACLE_SIZE} oracle limit")
    if n == 0 or m == 0:
        return [], 0.0
    transposed = n > m
    if transposed:
        s = s.T
        n, m = m, n
    best_total = -np.inf
    best_perm = None
    for perm in itertools.permutations(range(m), n):
        total = sum(s[i, perm[i]] for i in range(n))
        if total > best_total:
            best_total = total
            best_perm = perm
    pairs = [(i, best_perm[i]) for i in range(n)]
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return pairs, float(best_total)


def greedy_matches(scores, valid, params):
    """The per-limb greedy rule, written plainly: the (na, nb) pairs of
    one limb type are taken by descending score, ties by (a, b), and a
    pair is accepted when it can be (a finite score and, with filters
    on, the sample threshold and the valid-fraction floor cleared) and
    neither of its peaks is used. Returns accepted (a, b) row pairs in
    acceptance order."""
    na, nb = scores.shape
    order = sorted((-scores[a, b], a, b) for a in range(na) for b in range(nb)
                   if not np.isnan(scores[a, b]))
    used_a, used_b, accepted = set(), set(), []
    for _, a, b in order:
        if params.filters_enabled and not (scores[a, b] > params.sample_threshold
                                           and valid[a, b] >= params.min_valid_fraction):
            continue
        if a not in used_a and b not in used_b:
            used_a.add(a)
            used_b.add(b)
            accepted.append((a, b))
    return accepted


def scalar_oks(det, gt, gt_area, constants=DEFAULT_OKS_CONSTANTS):
    """Object keypoint similarity between a detection and one ground truth.

    Mean of exp(-d_i^2 / (2 * area * k_i^2)) over the ground truth's
    labeled keypoints; a missing detected keypoint contributes 0.
    """
    labeled = [i for i, kp in enumerate(gt.keypoints) if kp is not None]
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


@dataclass(frozen=True)
class Violation:
    joint_index: int
    reason: str


def validate_person(person, skeleton, image_dims):
    """Check a Person against a skeleton and (height, width) image bounds.

    Returns a list of Violations; empty means ok.
    """
    height, width = image_dims
    violations = []
    if len(person.keypoints) != skeleton.num_joints:
        violations.append(Violation(-1, f"expected {skeleton.num_joints} keypoint slots, "
                                        f"got {len(person.keypoints)}"))
        return violations
    for i, kp in enumerate(person.keypoints):
        if kp is None:
            continue
        if not (0.0 <= kp.x <= width and 0.0 <= kp.y <= height):
            violations.append(Violation(i, f"position ({kp.x}, {kp.y}) outside "
                                           f"{width}x{height} image"))
        if not (0.0 <= kp.confidence <= 1.0):
            violations.append(Violation(i, f"confidence {kp.confidence} outside [0, 1]"))
    return violations
