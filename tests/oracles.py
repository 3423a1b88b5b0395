"""Reference samplers for the tests, written apart from the library
kernels they judge."""

import numpy as np


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
