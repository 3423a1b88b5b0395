import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlnpose.decoder import DecodeParams
from mlnpose.groundtruth import GtConfig
from mlnpose.network import NetworkConfig
from mlnpose.skeleton import SkeletonDef, default_skeleton
from mlnpose.synth import SceneConfig

CLASSES = [NetworkConfig, DecodeParams, GtConfig, SkeletonDef, SceneConfig]

# One non-default instance per config class.
EXAMPLES = [
    NetworkConfig(block_channels=64, refine_blocks=2, aggregation="add",
                  transfer_tap="penultimate"),
    DecodeParams(nms_threshold=0.2, num_samples=12, min_parts_per_person=2,
                 filters_enabled=False),
    GtConfig(sigma=6.5, limb_half_width=5, output_stride=4),
    SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2)), background_channel=False),
    SceneConfig(image_dims=(368, 432), person_count=(2, 4),
                limb_length_range=(8, 16.5), min_spacing=80, seed=2**63 + 5),
]


@pytest.mark.parametrize("cfg", EXAMPLES + [default_skeleton()],
                         ids=[type(c).__name__ for c in EXAMPLES] + ["default_skeleton"])
def test_json_round_trip(cfg):
    again = type(cfg).from_config(json.loads(json.dumps(cfg.to_config())))
    assert again == cfg


@pytest.mark.parametrize("cls", CLASSES[:3] + CLASSES[4:])
def test_empty_section_gives_defaults(cls):
    assert cls.from_config({}) == cls()


def test_unknown_keys_are_ignored():
    assert GtConfig.from_config({"sigma": 5, "colour": "red"}) == GtConfig(sigma=5)


@pytest.mark.parametrize("sigma", [7, 10**200])
def test_ints_fill_floats_as_floats(sigma):
    cfg = GtConfig.from_config({"sigma": sigma})
    assert cfg.sigma == float(sigma) and type(cfg.sigma) is float
    lengths = SceneConfig(limb_length_range=(8, 16)).limb_length_range
    assert tuple(map(type, lengths)) == (float, float)


@pytest.mark.parametrize("cls, section", [
    (GtConfig, {"sigma": "7"}),
    (GtConfig, {"sigma": float("inf")}),
    (GtConfig, {"sigma": 10**400}),
    (GtConfig, {"output_stride": 8.0}),
    (GtConfig, {"output_stride": True}),
    (DecodeParams, {"filters_enabled": 1}),
    (DecodeParams, {"nms_threshold": None}),
    (NetworkConfig, {"aggregation": ["concat"]}),
    (SceneConfig, {"image_dims": [368, 432, 3]}),
    (SceneConfig, {"limb_length_range": [8, True]}),
    (SkeletonDef, {"joint_names": ["a", 1], "limbs": [[0, 1]]}),
    (SkeletonDef, {"joint_names": ["a", "b"], "limbs": [[0, 1, 1]]}),
    (SkeletonDef, {"joint_names": ["a", "b"], "limbs": [0, 1]}),
])
def test_bad_types_raise_value_error(cls, section):
    with pytest.raises(ValueError, match="must be"):
        cls.from_config(section)


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("section", [[1], "sigma", 3, None])
def test_section_must_be_object(cls, section):
    with pytest.raises(TypeError, match="must be an object"):
        cls.from_config(section)


def test_numpy_scalars_are_accepted():
    cfg = SceneConfig(seed=np.int64(3), min_spacing=np.float32(80.0))
    assert cfg.seed == 3 and cfg.min_spacing == 80.0 and type(cfg.min_spacing) is float


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


@pytest.mark.parametrize("cls", CLASSES)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_from_config_returns_instance_or_raises_typed_error(cls, data):
    names = sorted(cls.__dataclass_fields__)
    section = data.draw(_json | st.dictionaries(st.sampled_from(names), _json, max_size=4))
    try:
        cfg = cls.from_config(section)
    except (TypeError, ValueError):
        return
    assert isinstance(cfg, cls)
