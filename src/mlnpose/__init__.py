"""Bottom-up multi-person pose estimation toolkit: ground-truth map
rendering, two-branch network inference, greedy keypoint grouping,
OKS/AP evaluation, and complexity accounting."""

from . import _heap
from .decoder import DecodeParams, decode
from .evalkit import (Detection, EvalResult, GroundTruthInstance,
                      average_precision, oks, parse_annotations, write_results)
from .groundtruth import (GtConfig, joint_loss, loss_gradient,
                          render_background_map, render_joint_maps, render_pafs)
from .network import (ComplexityReport, NetworkConfig, NetworkGraph, build_mln,
                      complexity_report, dump_activation, forward, load_weights,
                      plan, random_weights, save_weights)
from .skeleton import Keypoint, Person, SkeletonDef, Visibility, default_skeleton
from .synth import NoiseSpec, SceneConfig, corrupt_maps, sample_scene
from .tensor_ops import (LayerSpec, ShapeError, concat_channels, conv2d,
                         layer_param_count, maxpool2, relu)

__version__ = "0.1.0"

_heap.steady_heap()
