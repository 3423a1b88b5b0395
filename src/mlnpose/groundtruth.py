"""Ground-truth rendering and losses.

Joint confidence maps are Gaussian bumps exp(-||p - p*||^2 / sigma^2)
taken as a max over annotated visible joints; limb maps hold the unit
vector along each limb at cells within limb_half_width of the segment,
averaged where several people's limbs overlap. Map cells sample input
coordinates at ((c + 0.5) * stride, (r + 0.5) * stride).

Each keypoint and each limb is evaluated only over the window of cells
it can change. The maps are byte for byte those of evaluating every
person over the whole map:

- A keypoint's window is the square of cells whose centres lie within
  sigma * sqrt(_GAUSS_CUTOFF) of it. Beyond that the Gaussian is below
  exp(-110), and any float64 at or below 2**-150 (exp(-103.97)) rounds
  to 0.0 in float32, so each skipped cell would have cast to 0.0. The
  2.8% of slack on the radius covers the rounding of the window bounds.
  A NaN coordinate makes every cell NaN, so its window is the whole map.
- A limb's window is its bounding box widened by limb_half_width plus
  one cell. Every cell within limb_half_width of the segment lies in
  the box widened by limb_half_width; the extra cell covers the float64
  rounding of the along/perpendicular test. That rounding stays far
  below a cell for coordinates up to about 1e15 px. Beyond that the
  whole-map test cancels to garbage and can mark cells far from the
  segment, which the window does not.

Each stack is rendered in one array pass over the windows of all its
channels and written into one float32 array, with no whole-map float64
buffer. The windows are laid out as one (N, wh, ww) grid padded to the
largest window, and every cell is evaluated with the same elementwise
float64 expressions as the dense oracle, so the pass is exact:

- Gaussian windows are cast to float32 and maxed into their channels by
  ``np.maximum.at``. Max does not depend on order, and rounding to
  float32 is monotone, so the float32 max of the rounded values is the
  rounded float64 max, bit for bit. Padding cells repeat a window cell
  and its value, which the max leaves unchanged. The background channel
  is written into the same stack.
- Limb cells sum their unit vectors in (limb type, person) order,
  starting from 0.0, through ``np.bincount`` over the distinct on-limb
  cells, and divide once by their counts. Order matters here: numpy's
  pairwise reduction would round differently beyond 8 terms, and a
  lone -0.0 would stay -0.0 instead of becoming 0.0 + -0.0 = +0.0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .skeleton import Visibility
from .tensor_ops import ShapeError


@dataclass(frozen=True)
class GtConfig(Config):
    sigma: float = 7.0            # Gaussian spread, input px
    limb_half_width: float = 8.0  # perpendicular on-limb threshold, input px
    output_stride: int = 8        # input px per map cell

    def __post_init__(self):
        super().__post_init__()
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.limb_half_width <= 0:
            raise ValueError("limb_half_width must be > 0")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")


def cell_centers(map_dims, stride):
    """Input-px coordinates of cell centers; returns (xs[W], ys[H])."""
    h, w = map_dims
    xs = (np.arange(w, dtype=np.float64) + 0.5) * stride
    ys = (np.arange(h, dtype=np.float64) + 0.5) * stride
    return xs, ys


# exp(-x) for x >= 110 is below 2**-150, which rounds to 0.0 in float32.
_GAUSS_CUTOFF = 110.0


def _span(centers, lo, hi):
    """Start and stop cells of the sorted cell centres that lie in
    [lo[i], hi[i]], for each i."""
    return centers.searchsorted(lo, "left"), centers.searchsorted(hi, "right")


def _grid(start, stop):
    """(N, n) cell indices of each window start[i]:stop[i], padded to the
    widest window by repeating its last cell, and the (N, n) mask of the
    cells that lie in their window."""
    offsets = np.arange((stop - start).max())
    cells = start[:, None] + offsets
    valid = cells < stop[:, None]
    return np.minimum(cells, stop[:, None] - 1), valid


def _gaussians(dy, dx, inv):
    """float32 exp(-(dy**2 + dx**2) * inv) on the (N, wh, ww) grid of row
    offsets dy (N, wh) and column offsets dx (N, ww); one float64 buffer."""
    d2 = (dy ** 2)[:, :, None] + (dx ** 2)[:, None, :]
    np.negative(d2, out=d2)
    d2 *= inv
    return np.exp(d2, out=d2).astype(np.float32)


def _draw_joints(out, people, m, cfg):
    """Max the Gaussian window of every visible keypoint of joint type
    j < m into the float32 channel ``out[j]``, all channels in one pass."""
    points = [(j, kp.x, kp.y) for j in range(m) for person in people
              if (kp := person.keypoints[j]) is not None
              and kp.visibility == Visibility.VISIBLE]
    if not points:
        return
    ch, kx, ky = np.array(points, dtype=np.float64).T
    ch = ch.astype(np.intp)
    h, w = out.shape[1:]
    xs, ys = cell_centers((h, w), cfg.output_stride)
    inv = 1.0 / (cfg.sigma * cfg.sigma)
    radius = cfg.sigma * math.sqrt(_GAUSS_CUTOFF)
    r0, r1 = _span(ys, ky - radius, ky + radius)
    c0, c1 = _span(xs, kx - radius, kx + radius)
    nan = np.isnan(kx) | np.isnan(ky)
    keep = ~nan & (r0 < r1) & (c0 < c1)
    if keep.any():
        # Padding cells repeat a window cell and its value, which max
        # leaves unchanged, so the grid needs no mask.
        rows, _ = _grid(r0[keep], r1[keep])
        cols, _ = _grid(c0[keep], c1[keep])
        gauss = _gaussians(ys[rows] - ky[keep, None], xs[cols] - kx[keep, None], inv)
        cells = ((ch[keep, None] * h + rows) * w)[:, :, None] + cols[:, None, :]
        np.maximum.at(out.reshape(-1), cells.ravel(), gauss.ravel())
    # A NaN coordinate makes every cell NaN, so its window is the whole map.
    for c, x, y in zip(ch[nan], kx[nan], ky[nan]):
        np.maximum(out[c], _gaussians((ys - y)[None], (xs - x)[None], inv)[0], out=out[c])


def render_background_map(joint_maps):
    """1 - channelwise max; completes the joint-map stack."""
    joint_maps = np.asarray(joint_maps)
    return (1.0 - joint_maps.max(axis=0)).astype(np.float32)


def render_joint_maps(people, skeleton, cfg, map_dims):
    """(m [+1], H, W) stack of joint maps, background last when enabled;
    each joint map is the max over people of their Gaussian bumps."""
    m = skeleton.num_joints
    maps = np.zeros((skeleton.joint_map_channels, *map_dims), dtype=np.float32)
    _draw_joints(maps, people, m, cfg)
    if skeleton.background_channel:
        maps[m] = render_background_map(maps[:m])
    return maps


def _draw_pafs(out, people, limbs, cfg):
    """Write the field of the limb ``limbs[i]`` (a joint index pair) into
    channels ``out[2i:2i + 2]`` of the zero float32 stack ``out``, all
    limbs in one pass."""
    ends = [(c, ka.x, ka.y, kb.x, kb.y, kb.x - ka.x, kb.y - ka.y)
            for c, (a, b) in enumerate(limbs) for person in people
            if (ka := person.keypoints[a]) is not None
            and (kb := person.keypoints[b]) is not None
            and ka.visibility == Visibility.VISIBLE and kb.visibility == Visibility.VISIBLE]
    if not ends:
        return
    ch, ax, ay, bx, by, dx, dy = np.array(ends, dtype=np.float64).T
    length = np.hypot(dx, dy)
    h, w = out.shape[1:]
    xs, ys = cell_centers((h, w), cfg.output_stride)
    reach = cfg.limb_half_width + cfg.output_stride
    r0, r1 = _span(ys, np.minimum(ay, by) - reach, np.maximum(ay, by) + reach)
    c0, c1 = _span(xs, np.minimum(ax, bx) - reach, np.maximum(ax, bx) + reach)
    keep = (0.0 < length) & (length < np.inf) & (r0 < r1) & (c0 < c1)
    if not keep.any():
        return
    ch, ax, ay, length = ch[keep].astype(np.intp), ax[keep], ay[keep], length[keep]
    ux, uy = dx[keep] / length, dy[keep] / length
    rows, row_ok = _grid(r0[keep], r1[keep])
    cols, col_ok = _grid(c0[keep], c1[keep])
    ex, ey = xs[cols] - ax[:, None], ys[rows] - ay[:, None]
    along = (ex * ux[:, None])[:, None, :] + (ey * uy[:, None])[:, :, None]
    perp = (ex * uy[:, None])[:, None, :] - (ey * ux[:, None])[:, :, None]
    on_limb = (along >= 0.0) & (along <= length[:, None, None])
    on_limb &= np.abs(perp, out=perp) <= cfg.limb_half_width
    on_limb &= row_ok[:, :, None] & col_ok[:, None, :]
    # Each cell sums its unit vectors from 0.0 in (limb type, person)
    # order, as the dense oracle does: bincount adds in input order.
    limb, r, c = np.nonzero(on_limb)
    cells, inverse = np.unique((ch[limb] * h + rows[limb, r]) * w + cols[limb, c],
                               return_inverse=True)
    count = np.bincount(inverse)
    channel, cell = np.divmod(cells, h * w)
    fields = out.reshape(-1, 2, h * w)
    fields[channel, 0, cell] = np.bincount(inverse, ux[limb]) / count
    fields[channel, 1, cell] = np.bincount(inverse, uy[limb]) / count


def render_pafs(people, skeleton, cfg, map_dims):
    """(2n, H, W) stack of limb fields in limb order; (0, H, W) for a
    skeleton without limbs.

    Cells on several people's limbs hold the average of the contributing
    unit vectors; degenerate (zero-length) limbs and limbs with a
    non-finite length contribute nothing.
    """
    out = np.zeros((skeleton.limb_map_channels, *map_dims), dtype=np.float32)
    _draw_pafs(out, people, skeleton.limbs, cfg)
    return out


def _checked_maps(pred, gt, mask):
    """pred, gt and mask as float64; pred and gt must share a shape and
    mask must match their map dims."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != pred.shape[-2:]:
        raise ShapeError(f"mask shape {mask.shape} does not match map dims {pred.shape[-2:]}")
    return pred, gt, mask


def joint_loss(pred, gt, mask):
    """Masked sum of squared residuals over all channels and cells; the
    same loss serves joint maps and limb fields."""
    pred, gt, mask = _checked_maps(pred, gt, mask)
    return float(((pred - gt) ** 2 * mask).sum())


def loss_gradient(pred, gt, mask):
    """Analytic gradient of the masked L2 loss: 2 * W * (pred - gt)."""
    pred64, gt64, mask = _checked_maps(pred, gt, mask)
    grad = 2.0 * (pred64 - gt64) * mask
    return grad.astype(np.asarray(pred).dtype)
