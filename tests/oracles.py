"""Reference samplers, NMS and ground-truth renderers for the tests,
written apart from the library kernels they judge."""

import numpy as np

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
