"""Synthetic scene generation and map corruption.

Scenes are articulated stick figures placed on a jittered grid, so the
pairwise spacing guarantee holds by construction. A scene's identity
rests on the order of its draws from the generator seeded with its
``SceneConfig.seed``: the person count, the slot permutation, then for
each person the neck's x and y jitter followed by one call for the 17
(angle jitter, limb length) pairs of the placement tree.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .evalkit import MAX_IMAGE_SIDE
from .skeleton import Keypoint, Person, Visibility


def splitmix64(x):
    """One splitmix64 step; used to derive independent per-scene seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(master_seed, index):
    return splitmix64((master_seed & 0xFFFFFFFFFFFFFFFF) + index)


@dataclass(frozen=True)
class SceneConfig(Config):
    image_dims: tuple[int, int] = (800, 1200)       # (height, width) px
    person_count: tuple[int, int] = (1, 10)         # inclusive range
    limb_length_range: tuple[float, float] = (12.0, 26.0)
    min_spacing: float = 170.0            # pairwise person-center spacing, px
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        h, w = self.image_dims
        if not (0 < h <= MAX_IMAGE_SIDE and 0 < w <= MAX_IMAGE_SIDE):
            raise ValueError(f"image_dims must be in [1, {MAX_IMAGE_SIDE}], got {h}x{w}")
        lo, hi = self.person_count
        if not (0 <= lo <= hi):
            raise ValueError("person_count must satisfy 0 <= lo <= hi")
        if self.min_spacing < 0:
            raise ValueError("min_spacing must be >= 0")
        lo, hi = self.limb_length_range
        if not (0 < lo <= hi):
            raise ValueError("limb_length_range must satisfy 0 < lo <= hi")


@dataclass(frozen=True)
class NoiseSpec(Config):
    map_sigma: float = 0.0        # additive Gaussian noise on map values
    false_peak_count: int = 0
    false_peak_amplitude: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        for name in ("map_sigma", "false_peak_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class InfeasibleSceneError(RuntimeError):
    """Requested person count cannot satisfy the spacing constraint."""


# Placement tree for the default 18-joint skeleton: (parent, child,
# nominal angle deg; x right, y down; figure faces the viewer so its
# right side sits at negative x).
_PLACEMENT_TREE = (
    (1, 0, -90.0),    # neck -> nose
    (0, 14, -135.0), (14, 16, 180.0),   # right eye, ear
    (0, 15, -45.0), (15, 17, 0.0),      # left eye, ear
    (1, 2, 180.0), (2, 3, 120.0), (3, 4, 100.0),   # right arm
    (1, 5, 0.0), (5, 6, 60.0), (6, 7, 80.0),       # left arm
    (1, 8, 100.0), (8, 9, 90.0), (9, 10, 90.0),    # right leg
    (1, 11, 80.0), (11, 12, 90.0), (12, 13, 90.0), # left leg
)

_ANGLE_JITTER_DEG = 18.0
_NUM_JOINTS = 18


def _place_person(rng, cx, cy, cfg):
    """The 18 joint positions (x, y) of one person with its neck at
    (cx, cy), walking _PLACEMENT_TREE in Python floats.

    One call draws each edge's (angle jitter, length) pair, in tree order.
    ``Generator.uniform(low, high)`` is ``low + (high - low) * next_double``,
    so that formula written out over ``rng.random`` gives the doubles of one
    uniform call per number, without numpy's per-call checks. The walk
    uses ``math``'s cos and sin, which are libm's; numpy's SIMD float64
    ones need not match libm bit for bit.
    """
    lo, hi = cfg.limb_length_range
    draws = rng.random((len(_PLACEMENT_TREE), 2)).tolist()
    pos = [(cx, cy)] * _NUM_JOINTS      # the neck; the tree places every other joint
    for (parent, child, angle), (a, b) in zip(_PLACEMENT_TREE, draws):
        theta = math.radians(angle + (-_ANGLE_JITTER_DEG + 2.0 * _ANGLE_JITTER_DEG * a))
        length = lo + (hi - lo) * b
        x, y = pos[parent]
        pos[child] = (x + length * math.cos(theta), y + length * math.sin(theta))
    return pos


def sample_scene(cfg):
    """Deterministic multi-person scene; returns a list of Persons.

    Person centers go on a jittered grid whose pitch exceeds
    min_spacing plus twice the jitter, so the spacing invariant holds
    for every pair. A slot is 3.5 longest limbs plus the jitter from each
    edge and no joint is over three limbs from the neck, so each person
    is inside the image. Raises InfeasibleSceneError when the image
    cannot host the requested count at the requested spacing.

    A scene is fixed by the order of its draws from one generator seeded
    with ``cfg.seed``: the person count, the slot permutation, then per
    person the neck's x and y jitter and one call for the 17 (angle
    jitter, limb length) pairs.
    """
    rng = np.random.default_rng(cfg.seed)
    h, w = cfg.image_dims
    count = int(rng.integers(cfg.person_count[0], cfg.person_count[1] + 1))
    jitter = 0.1 * cfg.min_spacing
    pitch = cfg.min_spacing + 2.0 * jitter + 1.0
    margin = 3.5 * cfg.limb_length_range[1] + jitter
    cols = int((w - 2 * margin) // pitch) + 1 if w - 2 * margin >= 0 else 0
    rows = int((h - 2 * margin) // pitch) + 1 if h - 2 * margin >= 0 else 0
    slots = [(margin + r * pitch, margin + c * pitch)
             for r in range(rows) for c in range(cols)]
    if count > len(slots):
        raise InfeasibleSceneError(
            f"cannot place {count} people with spacing {cfg.min_spacing} "
            f"in a {w}x{h} image ({len(slots)} slots)")
    chosen = rng.permutation(len(slots))[:count]
    people = []
    for slot in chosen:
        sy, sx = slots[slot]
        cx, cy = sx + rng.uniform(-jitter, jitter), sy + rng.uniform(-jitter, jitter)
        pos = _place_person(rng, cx, cy, cfg)
        people.append(Person([Keypoint(x, y, Visibility.VISIBLE, 1.0) for x, y in pos]))
    return people


def corrupt_maps(maps, spec, seed, clamp=(0.0, 1.0)):
    """Seeded corruption: additive Gaussian noise plus localized false
    bumps; clamp (default [0,1], for joint maps) applies last. Pass
    clamp=None for vector fields."""
    out = np.array(maps, dtype=np.float32)
    rng = np.random.default_rng(seed)
    if spec.map_sigma > 0:
        out += rng.normal(0.0, spec.map_sigma, size=out.shape).astype(np.float32)
    if spec.false_peak_count > 0:
        c, h, w = out.shape[-3:]
        ys, xs = np.mgrid[0:h, 0:w]
        for _ in range(spec.false_peak_count):
            ch = int(rng.integers(c))
            py, px = rng.uniform(0, h), rng.uniform(0, w)
            bump = spec.false_peak_amplitude * np.exp(
                -((ys - py) ** 2 + (xs - px) ** 2) / 4.0)
            out[..., ch, :, :] += bump.astype(np.float32)
    if clamp is not None:
        np.clip(out, clamp[0], clamp[1], out=out)
    return out
