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

Both stacks are written in place into one float32 array each, with no
whole-map float64 buffer and no per-channel copies:

- Each Gaussian window is cast to float32 before it is maxed into its
  channel. Rounding to float32 is monotone, so the float32 max of the
  rounded values is the rounded float64 max, bit for bit. The background
  channel is written into the same stack.
- A limb type's float64 sums and counts cover only the box around its
  limbs' windows; every cell outside it is 0 in the averaged field too.
  The box is averaged, cast, and written into the type's two channels.
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
    """Slice of the sorted cell centres that lie in [lo, hi]."""
    return slice(int(centers.searchsorted(lo, "left")),
                 int(centers.searchsorted(hi, "right")))


def _draw_joint(out, people, joint_type, cfg, xs, ys):
    """Max each visible keypoint's Gaussian window into the float32 map
    ``out``."""
    inv = 1.0 / (cfg.sigma * cfg.sigma)
    radius = cfg.sigma * math.sqrt(_GAUSS_CUTOFF)
    for person in people:
        kp = person.keypoints[joint_type]
        if kp is None or kp.visibility != Visibility.VISIBLE:
            continue
        if math.isnan(kp.x) or math.isnan(kp.y):
            rows = cols = slice(None)
        else:
            rows = _span(ys, kp.y - radius, kp.y + radius)
            cols = _span(xs, kp.x - radius, kp.x + radius)
        d2 = (ys[rows, None] - kp.y) ** 2 + (xs[None, cols] - kp.x) ** 2
        window = out[rows, cols]
        np.maximum(window, np.exp(-d2 * inv).astype(np.float32), out=window)


def render_joint_map(people, joint_type, cfg, map_dims):
    """Confidence map for one joint type: max-over-people Gaussian bumps."""
    out = np.zeros(map_dims, dtype=np.float32)
    _draw_joint(out, people, joint_type, cfg, *cell_centers(map_dims, cfg.output_stride))
    return out


def render_background_map(joint_maps):
    """1 - channelwise max; completes the joint-map stack."""
    joint_maps = np.asarray(joint_maps)
    return (1.0 - joint_maps.max(axis=0)).astype(np.float32)


def render_joint_maps(people, skeleton, cfg, map_dims):
    """(m [+1], H, W) stack of joint maps, background last when enabled."""
    m = skeleton.num_joints
    maps = np.zeros((skeleton.joint_map_channels, *map_dims), dtype=np.float32)
    xs, ys = cell_centers(map_dims, cfg.output_stride)
    for j in range(m):
        _draw_joint(maps[j], people, j, cfg, xs, ys)
    if skeleton.background_channel:
        maps[m] = render_background_map(maps[:m])
    return maps


def _draw_paf(out, people, limb_type, skeleton, cfg, xs, ys):
    """Write one limb type's field into the float32 (2, H, W) ``out``,
    which must be zero. The float64 sums and counts cover only the box
    around the limbs' windows."""
    a_idx, b_idx = skeleton.limbs[limb_type]
    reach = cfg.limb_half_width + cfg.output_stride
    limbs = []
    for person in people:
        ka = person.keypoints[a_idx]
        kb = person.keypoints[b_idx]
        if ka is None or kb is None:
            continue
        if ka.visibility != Visibility.VISIBLE or kb.visibility != Visibility.VISIBLE:
            continue
        dx, dy = kb.x - ka.x, kb.y - ka.y
        length = np.hypot(dx, dy)
        if not 0.0 < length < np.inf:
            continue
        rows = _span(ys, min(ka.y, kb.y) - reach, max(ka.y, kb.y) + reach)
        cols = _span(xs, min(ka.x, kb.x) - reach, max(ka.x, kb.x) + reach)
        if rows.start < rows.stop and cols.start < cols.stop:
            limbs.append((ka, dx / length, dy / length, length, rows, cols))
    if not limbs:
        return
    r0 = min(rows.start for *_, rows, cols in limbs)
    r1 = max(rows.stop for *_, rows, cols in limbs)
    c0 = min(cols.start for *_, cols in limbs)
    c1 = max(cols.stop for *_, cols in limbs)
    acc = np.zeros((2, r1 - r0, c1 - c0), dtype=np.float64)
    count = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
    for ka, ux, uy, length, rows, cols in limbs:
        px, py = xs[None, cols], ys[rows, None]
        along = (px - ka.x) * ux + (py - ka.y) * uy
        perp = (px - ka.x) * uy - (py - ka.y) * ux
        on_limb = (along >= 0.0) & (along <= length) & (np.abs(perp) <= cfg.limb_half_width)
        rows = slice(rows.start - r0, rows.stop - r0)
        cols = slice(cols.start - c0, cols.stop - c0)
        acc[0, rows, cols][on_limb] += ux
        acc[1, rows, cols][on_limb] += uy
        count[rows, cols][on_limb] += 1
    nonzero = count > 0
    acc[0][nonzero] /= count[nonzero]
    acc[1][nonzero] /= count[nonzero]
    out[:, r0:r1, c0:c1] = acc


def render_paf(people, limb_type, skeleton, cfg, map_dims):
    """(2, H, W) limb vector field for one limb type.

    Cells on several people's limbs hold the average of the contributing
    unit vectors; degenerate (zero-length) limbs and limbs with a
    non-finite length contribute nothing.
    """
    out = np.zeros((2, *map_dims), dtype=np.float32)
    _draw_paf(out, people, limb_type, skeleton, cfg,
              *cell_centers(map_dims, cfg.output_stride))
    return out


def render_pafs(people, skeleton, cfg, map_dims):
    """(2n, H, W) stack of limb fields in limb order; (0, H, W) for a
    skeleton without limbs."""
    out = np.zeros((skeleton.limb_map_channels, *map_dims), dtype=np.float32)
    xs, ys = cell_centers(map_dims, cfg.output_stride)
    for j in range(skeleton.num_limbs):
        _draw_paf(out[2 * j:2 * j + 2], people, j, skeleton, cfg, xs, ys)
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
    same loss serves joint maps and limb fields (``limb_loss``)."""
    pred, gt, mask = _checked_maps(pred, gt, mask)
    return float(((pred - gt) ** 2 * mask).sum())


limb_loss = joint_loss


def loss_gradient(pred, gt, mask):
    """Analytic gradient of the masked L2 loss: 2 * W * (pred - gt)."""
    pred64, gt64, mask = _checked_maps(pred, gt, mask)
    grad = 2.0 * (pred64 - gt64) * mask
    return grad.astype(np.asarray(pred).dtype)


def full_mask(map_dims):
    """Default mask: include every cell."""
    return np.ones(map_dims, dtype=np.float32)


def crowd_mask(map_dims, stride, crowd_boxes):
    """Mask that zeroes map cells whose centers fall in crowd bboxes.

    crowd_boxes: iterable of (x, y, w, h) in input px.
    """
    mask = np.ones(map_dims, dtype=np.float32)
    xs, ys = cell_centers(map_dims, stride)
    for x, y, w, h in crowd_boxes:
        cols = (xs >= x) & (xs <= x + w)
        rows = (ys >= y) & (ys <= y + h)
        mask[np.ix_(rows, cols)] = 0.0
    return mask
