"""Body model: joint catalog, kinematic chain of limbs, person records."""

import enum
from dataclasses import dataclass

from .config import Config


class Visibility(enum.IntEnum):
    """Mirrors the COCO v flag: 0 unlabeled, 1 labeled-occluded, 2 visible."""
    ABSENT = 0
    OCCLUDED = 1
    VISIBLE = 2


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    visibility: Visibility = Visibility.VISIBLE
    confidence: float = 1.0


@dataclass
class Person:
    """Per-joint optional keypoints, indexed by joint type."""
    keypoints: list  # length m; entries are Keypoint or None

    def labeled_count(self):
        return sum(1 for kp in self.keypoints
                   if kp is not None and kp.visibility != Visibility.ABSENT)


@dataclass(frozen=True)
class SkeletonDef(Config):
    """Joint types plus the limb pairs used for grouping and assembly."""
    joint_names: tuple[str, ...]
    limbs: tuple[tuple[int, int], ...]  # (joint_index_a, joint_index_b) pairs
    background_channel: bool = True

    def __post_init__(self):
        super().__post_init__()
        m = len(self.joint_names)
        if m == 0:
            raise ValueError("joint_names must be non-empty, got ()")
        seen = set()
        for i, (a, b) in enumerate(self.limbs):
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"limb ({a},{b}) references joint index >= {m}")
            if a == b:
                raise ValueError(f"limbs[{i}] must be two different joints, got ({a},{b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate limb pair ({a},{b})")
            seen.add((a, b))
        touched = {j for limb in self.limbs for j in limb}
        if touched and not _is_connected(touched, self.limbs):
            raise ValueError("limb graph is not connected over the joints it touches")

    @property
    def num_joints(self):
        return len(self.joint_names)

    @property
    def num_limbs(self):
        return len(self.limbs)

    @property
    def joint_map_channels(self):
        return self.num_joints + (1 if self.background_channel else 0)

    @property
    def limb_map_channels(self):
        return 2 * self.num_limbs


def _is_connected(nodes, edges):
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    stack = [next(iter(nodes))]
    seen = set()
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj[n] - seen)
    return seen == nodes


# 18-joint body model: COCO's 17 joints plus a neck, with 19 limbs
# (38 vector-field channels) forming the grouping chain.
DEFAULT_JOINT_NAMES = (
    "nose", "neck",
    "right_shoulder", "right_elbow", "right_wrist",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_hip", "right_knee", "right_ankle",
    "left_hip", "left_knee", "left_ankle",
    "right_eye", "left_eye", "right_ear", "left_ear",
)

DEFAULT_LIMBS = (
    (1, 2), (1, 5),            # neck -> shoulders
    (2, 3), (3, 4),            # right arm
    (5, 6), (6, 7),            # left arm
    (1, 8), (8, 9), (9, 10),   # right leg via neck->hip
    (1, 11), (11, 12), (12, 13),  # left leg
    (1, 0),                    # neck -> nose
    (0, 14), (14, 16),         # right eye, ear
    (0, 15), (15, 17),         # left eye, ear
    (2, 16), (5, 17),          # shoulder -> ear shortcuts
)


def default_skeleton():
    """18 joints, 19 limbs, background heatmap channel enabled."""
    return SkeletonDef(DEFAULT_JOINT_NAMES, DEFAULT_LIMBS, background_channel=True)
